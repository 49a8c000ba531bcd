// Distributed-matrix tests: the parallel spmv and gathers must agree with
// their serial counterparts for every rank count.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <limits>
#include <string>
#include <utility>

#include "comm/comm.hpp"
#include "mesh/pde5pt.hpp"
#include "sparse/convert.hpp"
#include "sparse/dist_csr.hpp"
#include "sparse/generate.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/ops.hpp"
#include "sparse/partition.hpp"
#include "support/rng.hpp"

// Counts heap allocations, so the zero-allocation contract of
// DistCsrMatrix::spmv can be asserted directly.
#include "alloc_count.hpp"

#ifndef LISI_TEST_DATA_DIR
#define LISI_TEST_DATA_DIR "tests/data"
#endif

namespace lisi::sparse {
namespace {

TEST(BlockRowPartition, EvenSplit) {
  const BlockRowPartition p(12, 4);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(p.localRows(r), 3);
    EXPECT_EQ(p.startRow(r), 3 * r);
  }
}

TEST(BlockRowPartition, RemainderGoesToLowRanks) {
  const BlockRowPartition p(10, 3);
  EXPECT_EQ(p.localRows(0), 4);
  EXPECT_EQ(p.localRows(1), 3);
  EXPECT_EQ(p.localRows(2), 3);
  EXPECT_EQ(p.startRow(0), 0);
  EXPECT_EQ(p.startRow(1), 4);
  EXPECT_EQ(p.startRow(2), 7);
}

TEST(BlockRowPartition, OwnerLookup) {
  const BlockRowPartition p(10, 3);
  EXPECT_EQ(p.ownerOf(0), 0);
  EXPECT_EQ(p.ownerOf(3), 0);
  EXPECT_EQ(p.ownerOf(4), 1);
  EXPECT_EQ(p.ownerOf(9), 2);
  EXPECT_THROW((void)p.ownerOf(10), Error);
}

TEST(BlockRowPartition, MoreRanksThanRows) {
  const BlockRowPartition p(2, 5);
  int total = 0;
  for (int r = 0; r < 5; ++r) total += p.localRows(r);
  EXPECT_EQ(total, 2);
  EXPECT_EQ(p.localRows(0), 1);
  EXPECT_EQ(p.localRows(1), 1);
  EXPECT_EQ(p.localRows(4), 0);
}

/// DistCsrMatrix canonicalizes its block (sorted columns), so the serial
/// reference runs on the canonical form too: both then accumulate every row
/// in the same stored order.
CsrMatrix canonical(CsrMatrix a) {
  a.canonicalize();
  return a;
}

CsrMatrixF toFloat(const CsrMatrix& a) {
  CsrMatrixF f;
  f.rows = a.rows;
  f.cols = a.cols;
  f.rowPtr = a.rowPtr;
  f.colIdx = a.colIdx;
  f.values.assign(a.values.begin(), a.values.end());
  return f;
}

std::vector<double> randomVector(int n, std::uint64_t seed) {
  std::vector<double> x(static_cast<std::size_t>(n));
  Rng rng(seed);
  for (auto& v : x) v = rng.uniform(-1, 1);
  return x;
}

/// The bitwise oracle: spmv, spmvFloat and every lane of spmvMulti on 1 to
/// 5 vectors equal the serial CSR kernel on the same matrix exactly.  Each
/// row accumulates in stored order on both sides, so the halo exchange and
/// the row schedule may not change a single bit.  `build` makes this rank's distributed
/// operator for `serial` (scattered from a root copy unless given).
void expectSpmvBitwiseSerial(
    const CsrMatrix& serialIn, int p, std::uint64_t seed,
    const std::function<DistCsrMatrix(comm::Comm&)>& build = {}) {
  constexpr int kLanes = 5;
  const CsrMatrix serial = canonical(serialIn);
  const int n = serial.rows;
  std::vector<std::vector<double>> x;
  std::vector<std::vector<double>> yRef;
  for (int v = 0; v < kLanes; ++v) {
    x.push_back(randomVector(n, seed + static_cast<std::uint64_t>(v)));
    yRef.emplace_back(static_cast<std::size_t>(n));
    spmv(serial, std::span<const double>(x.back()),
         std::span<double>(yRef.back()));
  }
  const std::vector<float> xF(x[0].begin(), x[0].end());
  std::vector<float> yRefF(static_cast<std::size_t>(n));
  spmv(toFloat(serial), std::span<const float>(xF), std::span<float>(yRefF));

  comm::World::run(p, [&](comm::Comm& c) {
    DistCsrMatrix dist =
        build ? build(c) : DistCsrMatrix::scatterFromRoot(c, serial);
    const auto s = static_cast<std::size_t>(dist.startRow());
    const auto m = static_cast<std::size_t>(dist.localRows());
    const auto xLoc = [&](int v) {
      return std::span<const double>(x[static_cast<std::size_t>(v)])
          .subspan(s, m);
    };

    std::vector<double> y(m);
    dist.spmv(xLoc(0), std::span<double>(y));
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_EQ(y[i], yRef[0][s + i]) << "spmv rank " << c.rank() << " row "
                                      << s + i;
    }

    std::vector<float> yF(m);
    dist.spmvFloat(std::span<const float>(xF).subspan(s, m),
                   std::span<float>(yF));
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_EQ(yF[i], yRefF[s + i]) << "spmvFloat rank " << c.rank()
                                     << " row " << s + i;
    }

    for (int v = 1; v < kLanes; ++v) {
      dist.spmv(xLoc(v), std::span<double>(y));
      for (std::size_t i = 0; i < m; ++i) {
        EXPECT_EQ(y[i], yRef[static_cast<std::size_t>(v)][s + i]);
      }
    }
    for (int nVec = 1; nVec <= kLanes; ++nVec) {
      std::vector<double> xMulti;
      for (int v = 0; v < nVec; ++v) {
        xMulti.insert(xMulti.end(), xLoc(v).begin(), xLoc(v).end());
      }
      std::vector<double> yMulti(m * static_cast<std::size_t>(nVec));
      dist.spmvMulti(std::span<const double>(xMulti),
                     std::span<double>(yMulti), nVec);
      for (int v = 0; v < nVec; ++v) {
        for (std::size_t i = 0; i < m; ++i) {
          EXPECT_EQ(yMulti[static_cast<std::size_t>(v) * m + i],
                    yRef[static_cast<std::size_t>(v)][s + i])
              << "spmvMulti(" << nVec << ") lane " << v << " rank "
              << c.rank() << " row " << s + i;
        }
      }
    }
  });
}

/// Rows [begin, begin + count) of `a`, global column indices kept.
CsrMatrix rowSlice(const CsrMatrix& a, int begin, int count) {
  CsrMatrix s;
  s.rows = count;
  s.cols = a.cols;
  s.rowPtr.assign(static_cast<std::size_t>(count) + 1, 0);
  const int base = a.rowPtr[static_cast<std::size_t>(begin)];
  for (int i = 0; i <= count; ++i) {
    s.rowPtr[static_cast<std::size_t>(i)] =
        a.rowPtr[static_cast<std::size_t>(begin + i)] - base;
  }
  const int end = a.rowPtr[static_cast<std::size_t>(begin + count)];
  s.colIdx.assign(a.colIdx.begin() + base, a.colIdx.begin() + end);
  s.values.assign(a.values.begin() + base, a.values.begin() + end);
  return s;
}

class DistP : public ::testing::TestWithParam<int> {};

TEST_P(DistP, SpmvMatchesSerialOnRandomMatrix) {
  const int p = GetParam();
  const int n = 83;
  Rng rngA(100);
  const CsrMatrix global = randomDiagDominant(n, 6, 1.0, rngA);
  comm::World::run(p, [&](comm::Comm& c) {
    const DistCsrMatrix dist = DistCsrMatrix::scatterFromRoot(c, global);
    EXPECT_EQ(dist.globalRows(), n);
    EXPECT_EQ(dist.globalNnz(), global.nnz());
  });
  expectSpmvBitwiseSerial(global, p, 200);
}

TEST_P(DistP, SpmvMatchesSerialOnPdeMatrix) {
  const int p = GetParam();
  mesh::Pde5ptSpec spec;
  spec.gridN = 12;
  expectSpmvBitwiseSerial(
      mesh::assembleGlobal(spec).localA, p, 300, [&](comm::Comm& c) {
        const auto local = mesh::assembleLocal(spec, c.rank(), c.size());
        return DistCsrMatrix(c, local.globalN, local.globalN, local.startRow,
                             local.localA);
      });
}

TEST_P(DistP, SpmvMatchesSerialOnZooMatrices) {
  // The autotune zoo shapes: scattered FEM-like locality (synthetic and
  // from disk) and dense 4x4 blocks.
  const int p = GetParam();
  Rng prng(7);
  expectSpmvBitwiseSerial(permuteSymmetric(laplacian2d9(20, 20), prng), p,
                          400);
  expectSpmvBitwiseSerial(
      readMatrixMarket(std::string(LISI_TEST_DATA_DIR) + "/perm9pt16.mtx"), p,
      500);
  expectSpmvBitwiseSerial(blockLaplacian2d(12, 12, 4), p, 600);
}

TEST_P(DistP, ProductsAfterUpdateValuesMatchSerialOnNewValues) {
  // The values live once, in the global-index block: a refresh must reach
  // every product, including a float mirror built before it.
  const int p = GetParam();
  mesh::Pde5ptSpec spec;
  spec.gridN = 12;
  const CsrMatrix before = canonical(mesh::assembleGlobal(spec).localA);
  CsrMatrix after = before;
  Rng rng(800);
  for (double& v : after.values) v *= rng.uniform(0.5, 1.5);
  expectSpmvBitwiseSerial(after, p, 810, [&](comm::Comm& c) {
    DistCsrMatrix dist = DistCsrMatrix::scatterFromRoot(c, before);
    const auto m = static_cast<std::size_t>(dist.localRows());
    std::vector<double> x(m, 1.0), y(m);
    std::vector<float> xF(m, 1.0F), yF(m);
    dist.spmv(std::span<const double>(x), std::span<double>(y));
    dist.spmvFloat(std::span<const float>(xF), std::span<float>(yF));
    dist.updateValues(rowSlice(after, dist.startRow(), dist.localRows()));
    return dist;
  });
}

TEST(Dist, MovedCanonicalBlockIsHeldOnce) {
  // Built from a moved canonical block, the operator keeps those arrays,
  // renumbers the column indices in place, and adds only row- and
  // ghost-sized plan state: no second values array (8 bytes per nonzero)
  // and no second index array (4).  Counted over all ranks together; the
  // grid is large enough that per-rank plan and transport overhead stays
  // well below 1 byte per nonzero.
  mesh::Pde5ptSpec spec;
  spec.gridN = 100;
  for (const int p : {1, 4}) {
    std::atomic<long long> nnz{0};
    comm::World::run(p, [&](comm::Comm& c) {
      auto sys = mesh::assembleLocal(spec, c.rank(), c.size());
      sys.localA.canonicalize();
      nnz.fetch_add(sys.localA.nnz());
      c.barrier();
      if (c.rank() == 0) {
        g_allocBytes.store(0);
        g_countAllocs.store(true);
      }
      c.barrier();
      const DistCsrMatrix dist(c, sys.globalN, sys.globalN, sys.startRow,
                               std::move(sys.localA));
      c.barrier();
      if (c.rank() == 0) g_countAllocs.store(false);
      EXPECT_EQ(dist.globalNnz(), nnz.load());
    });
    EXPECT_LT(g_allocBytes.load(), static_cast<std::size_t>(4 * nnz.load()))
        << "p=" << p;
  }
}

/// Serial oracle for the owned block: rows [rowBegin, rowBegin + rows) of `g`
/// restricted to columns [colBegin, colEnd), local indices, stored order.
CsrMatrix ownedBlockOracle(const CsrMatrix& g, int rowBegin, int rows,
                           int colBegin, int colEnd) {
  CsrMatrix b;
  b.rows = rows;
  b.cols = colEnd - colBegin;
  b.rowPtr.push_back(0);
  for (int i = rowBegin; i < rowBegin + rows; ++i) {
    for (int k = g.rowPtr[static_cast<std::size_t>(i)];
         k < g.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      const int c = g.colIdx[static_cast<std::size_t>(k)];
      if (c < colBegin || c >= colEnd) continue;
      b.colIdx.push_back(c - colBegin);
      b.values.push_back(g.values[static_cast<std::size_t>(k)]);
    }
    b.rowPtr.push_back(static_cast<int>(b.colIdx.size()));
  }
  return b;
}

/// Bilinear prolongation from the (nc x nc) interior grid to the
/// (2nc+1)^2 fine grid: the shape of a HyMG transfer operator.
CsrMatrix bilinearProlongation(int nc) {
  const int n = 2 * nc + 1;
  // Coarse neighbours of fine index f along one axis, with weights.
  const auto axis = [nc](int f) {
    std::vector<std::pair<int, double>> w;
    if (f % 2 == 1) {
      w.emplace_back((f - 1) / 2, 1.0);
    } else {
      if (f / 2 - 1 >= 0) w.emplace_back(f / 2 - 1, 0.5);
      if (f / 2 < nc) w.emplace_back(f / 2, 0.5);
    }
    return w;
  };
  CooMatrix coo;
  coo.rows = n * n;
  coo.cols = nc * nc;
  for (int fi = 0; fi < n; ++fi) {
    for (int fj = 0; fj < n; ++fj) {
      for (const auto& [ci, wi] : axis(fi)) {
        for (const auto& [cj, wj] : axis(fj)) {
          coo.rowIdx.push_back(fi * n + fj);
          coo.colIdx.push_back(ci * nc + cj);
          coo.values.push_back(wi * wj);
        }
      }
    }
  }
  return canonical(cooToCsr(coo));
}

/// On every rank, the owned-block view read row by row through
/// ownedRange() equals the oracle exactly; every entry outside the range
/// is a ghost; globalBlock() gives back the caller's rows exactly; and the
/// view reads the operator's own storage, so a value refresh shows through.
/// rowCounts/colCounts give each rank's share (colCounts empty: square,
/// columns partitioned like the rows).
void expectOwnedBlockMatchesOracle(const CsrMatrix& g,
                                   const std::vector<int>& rowCounts,
                                   const std::vector<int>& colCounts) {
  std::vector<int> rowStarts{0}, colStarts;
  for (const int r : rowCounts) rowStarts.push_back(rowStarts.back() + r);
  if (!colCounts.empty()) {
    colStarts.push_back(0);
    for (const int r : colCounts) colStarts.push_back(colStarts.back() + r);
  }
  const int p = static_cast<int>(rowCounts.size());
  comm::World::run(p, [&](comm::Comm& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    const CsrMatrix given = rowSlice(g, rowStarts[r], rowCounts[r]);
    DistCsrMatrix dist(c, g.rows, g.cols, rowStarts[r], given, colStarts);
    const std::vector<int>& cs = dist.colStarts();
    const CsrMatrix want =
        ownedBlockOracle(g, rowStarts[r], rowCounts[r], cs[r], cs[r + 1]);
    const OwnedBlockView view = dist.ownedBlockView();
    EXPECT_EQ(view.rows, want.rows);
    EXPECT_EQ(view.ownedCols, want.cols);
    EXPECT_EQ(view.nnz(), dist.localNnz());
    CsrMatrix got;
    got.rows = view.rows;
    got.cols = view.ownedCols;
    got.rowPtr.push_back(0);
    for (int i = 0; i < view.rows; ++i) {
      const OwnedBlockView::Range own = view.ownedRange(i);
      for (int k = view.rowPtr[i]; k < view.rowPtr[i + 1]; ++k) {
        const int col = view.colIdx[k];
        if (k >= own.begin && k < own.end) {
          got.colIdx.push_back(col);
          got.values.push_back(view.values[k]);
        } else {
          EXPECT_GE(col, view.ownedCols) << "rank " << r << " row " << i;
          const int gc = dist.globalCol(col);
          EXPECT_TRUE(gc < cs[r] || gc >= cs[r + 1]);
        }
      }
      got.rowPtr.push_back(static_cast<int>(got.colIdx.size()));
    }
    EXPECT_EQ(got.rowPtr, want.rowPtr) << "rank " << r;
    EXPECT_EQ(got.colIdx, want.colIdx) << "rank " << r;
    EXPECT_EQ(got.values, want.values) << "rank " << r;
    const CsrMatrix back = dist.globalBlock();
    EXPECT_EQ(back.cols, given.cols);
    EXPECT_EQ(back.rowPtr, given.rowPtr) << "rank " << r;
    EXPECT_EQ(back.colIdx, given.colIdx) << "rank " << r;
    EXPECT_EQ(back.values, given.values) << "rank " << r;
    // The view is the operator's storage: a refresh shows through it.
    CsrMatrix twice = given;
    for (double& v : twice.values) v *= 2.0;
    dist.updateValues(twice);
    for (int i = 0; i < view.rows; ++i) {
      const OwnedBlockView::Range own = view.ownedRange(i);
      for (int k = own.begin; k < own.end; ++k) {
        const auto w = static_cast<std::size_t>(
            want.rowPtr[static_cast<std::size_t>(i)] + (k - own.begin));
        EXPECT_EQ(view.values[k], 2.0 * want.values[w]);
      }
    }
  });
}

TEST(Dist, OwnedBlockMatchesOracleOnUnevenPartition) {
  Rng rng(900);
  const CsrMatrix g = canonical(randomDiagDominant(83, 6, 1.0, rng));
  expectOwnedBlockMatchesOracle(g, {83}, {});
  expectOwnedBlockMatchesOracle(g, {5, 0, 50, 28}, {});
  expectOwnedBlockMatchesOracle(g, {40, 1, 42}, {});
}

TEST(Dist, OwnedBlockMatchesOracleOnTransferOperator) {
  // Prolongation 15^2 x 7^2 (tall) and its transpose, the shape of the
  // restriction (wide): rows split like one grid, columns like the other,
  // both near-even with remainders on low ranks.
  const CsrMatrix prolong = bilinearProlongation(7);
  for (const CsrMatrix& g : {prolong, transpose(prolong)}) {
    for (const int p : {1, 2, 4}) {
      const BlockRowPartition rowPart(g.rows, p);
      const BlockRowPartition colPart(g.cols, p);
      std::vector<int> rows, cols;
      for (int r = 0; r < p; ++r) {
        rows.push_back(rowPart.localRows(r));
        cols.push_back(colPart.localRows(r));
      }
      expectOwnedBlockMatchesOracle(g, rows, cols);
    }
  }
}

TEST_P(DistP, GatherToRootReassemblesMatrix) {
  const int p = GetParam();
  Rng rng(400);
  const CsrMatrix global = randomCsr(37, 37, 5, rng);
  CsrMatrix canonical = global;
  canonical.canonicalize();
  comm::World::run(p, [&](comm::Comm& c) {
    DistCsrMatrix dist = DistCsrMatrix::scatterFromRoot(c, global);
    const CsrMatrix gathered = dist.gatherToRoot(0);
    if (c.rank() == 0) {
      EXPECT_DOUBLE_EQ(maxAbsDiff(canonical, gathered), 0.0);
    } else {
      EXPECT_EQ(gathered.rows, 0);
    }
  });
}

TEST_P(DistP, VectorGatherScatterRoundTrip) {
  const int p = GetParam();
  const int n = 29;
  std::vector<double> xGlobal(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) xGlobal[static_cast<std::size_t>(i)] = i * 1.5;
  comm::World::run(p, [&](comm::Comm& c) {
    const CsrMatrix eye = laplacian1d(n);  // any square matrix fixes the layout
    DistCsrMatrix dist = DistCsrMatrix::scatterFromRoot(c, eye);
    const auto xLoc = dist.scatterVectorFromRoot(
        c.rank() == 0 ? std::span<const double>(xGlobal)
                      : std::span<const double>(),
        0);
    ASSERT_EQ(static_cast<int>(xLoc.size()), dist.localRows());
    for (int i = 0; i < dist.localRows(); ++i) {
      EXPECT_DOUBLE_EQ(xLoc[static_cast<std::size_t>(i)],
                       (dist.startRow() + i) * 1.5);
    }
    const auto back =
        dist.gatherVectorToRoot(std::span<const double>(xLoc), 0);
    if (c.rank() == 0) {
      ASSERT_EQ(back.size(), xGlobal.size());
      for (std::size_t i = 0; i < back.size(); ++i) {
        EXPECT_DOUBLE_EQ(back[i], xGlobal[i]);
      }
    }
  });
}

TEST_P(DistP, LocalDiagonalMatchesGlobal) {
  const int p = GetParam();
  Rng rng(500);
  const CsrMatrix global = randomDiagDominant(41, 4, 0.5, rng);
  const auto dRef = diagonal(global);
  comm::World::run(p, [&](comm::Comm& c) {
    DistCsrMatrix dist = DistCsrMatrix::scatterFromRoot(c, global);
    const auto d = dist.localDiagonal();
    for (int i = 0; i < dist.localRows(); ++i) {
      EXPECT_DOUBLE_EQ(d[static_cast<std::size_t>(i)],
                       dRef[static_cast<std::size_t>(dist.startRow() + i)]);
    }
  });
}

TEST_P(DistP, DistVectorReductionsMatchSerial) {
  const int p = GetParam();
  const int n = 57;
  std::vector<double> x(static_cast<std::size_t>(n)), y(static_cast<std::size_t>(n));
  Rng rng(600);
  for (auto& v : x) v = rng.uniform(-2, 2);
  for (auto& v : y) v = rng.uniform(-2, 2);
  const double dotRef = dot(std::span<const double>(x), std::span<const double>(y));
  const double n2Ref = norm2(std::span<const double>(x));
  comm::World::run(p, [&](comm::Comm& c) {
    const BlockRowPartition part(n, p);
    const int s = part.startRow(c.rank());
    const int m = part.localRows(c.rank());
    std::span<const double> xLoc(x.data() + s, static_cast<std::size_t>(m));
    std::span<const double> yLoc(y.data() + s, static_cast<std::size_t>(m));
    EXPECT_NEAR(distDot(c, xLoc, yLoc), dotRef, 1e-12);
    EXPECT_NEAR(distNorm2(c, xLoc), n2Ref, 1e-12);
    double infRef = 0.0;
    for (double v : x) infRef = std::max(infRef, std::abs(v));
    EXPECT_DOUBLE_EQ(distNormInf(c, xLoc), infRef);
  });
}

TEST_P(DistP, MatchBlockIsExactAndFlagsNonFinite) {
  // The exact pattern check behind the port's classification: a moved
  // column (owned or ghost) is another pattern, a sign flip of zero is
  // another value, and NaN/Inf are flagged whatever the pattern, while the
  // largest finite value and subnormals are not.
  const int p = GetParam();
  mesh::Pde5ptSpec spec;
  spec.gridN = 9;
  comm::World::run(p, [&](comm::Comm& c) {
    const auto sys = mesh::assembleLocal(spec, c.rank(), c.size());
    const CsrMatrix block = canonical(sys.localA);
    const DistCsrMatrix dist(c, sys.globalN, sys.globalN, sys.startRow, block);
    BlockMatch m = dist.matchBlock(block);
    EXPECT_TRUE(m.pattern && m.values && m.finite);

    CsrMatrix moved = block;  // last entry of row 0 one column right
    moved.colIdx[static_cast<std::size_t>(moved.rowPtr[1]) - 1] += 1;
    m = dist.matchBlock(moved);
    EXPECT_FALSE(m.pattern);
    EXPECT_FALSE(m.values);
    EXPECT_TRUE(m.finite);
    EXPECT_THROW(DistCsrMatrix(dist).updateValues(moved), Error);

    CsrMatrix other = block;
    other.values.back() = -other.values.back();
    m = dist.matchBlock(other);
    EXPECT_TRUE(m.pattern);
    EXPECT_FALSE(m.values);
    EXPECT_TRUE(m.finite);

    for (const double v : {std::numeric_limits<double>::max(),
                           -std::numeric_limits<double>::denorm_min(), 0.0,
                           -0.0}) {
      CsrMatrix odd = block;
      odd.values.front() = v;
      EXPECT_TRUE(dist.matchBlock(odd).finite) << v;
      EXPECT_TRUE(allFinite(odd.values)) << v;
    }
    for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
      CsrMatrix bad = block;
      bad.values[bad.values.size() / 2] = v;
      EXPECT_FALSE(dist.matchBlock(bad).finite) << v;
      bad.colIdx[static_cast<std::size_t>(bad.rowPtr[1]) - 1] += 1;
      EXPECT_FALSE(dist.matchBlock(bad).finite) << v;
      EXPECT_FALSE(allFinite(bad.values)) << v;
    }
  });
}

TEST(Dist, RejectsInconsistentTiling) {
  EXPECT_THROW(
      comm::World::run(2,
                       [](comm::Comm& c) {
                         CsrMatrix local;
                         local.rows = 3;  // 3+3 != 5 => must throw
                         local.cols = 5;
                         local.rowPtr = {0, 0, 0, 0};
                         DistCsrMatrix bad(c, 5, 5, c.rank() == 0 ? 0 : 3,
                                           local);
                       }),
      Error);
}

TEST(Dist, GhostCountIsZeroForBlockDiagonal) {
  comm::World::run(2, [](comm::Comm& c) {
    // Each rank's rows touch only its own columns -> no halo traffic.
    const int nloc = 4;
    CsrMatrix local;
    local.rows = nloc;
    local.cols = 8;
    local.rowPtr.resize(nloc + 1);
    const int base = c.rank() * nloc;
    for (int i = 0; i < nloc; ++i) {
      local.rowPtr[static_cast<std::size_t>(i)] = i;
      local.colIdx.push_back(base + i);
      local.values.push_back(1.0);
    }
    local.rowPtr[nloc] = nloc;
    DistCsrMatrix dist(c, 8, 8, base, local);
    EXPECT_EQ(dist.numGhosts(), 0);
    std::vector<double> x(nloc, 2.0), y(nloc);
    dist.spmv(std::span<const double>(x), std::span<double>(y));
    for (double v : y) EXPECT_DOUBLE_EQ(v, 2.0);
  });
}

TEST_P(DistP, InteriorBoundarySplitCoversAllRows) {
  const int p = GetParam();
  mesh::Pde5ptSpec spec;
  spec.gridN = 10;
  comm::World::run(p, [&](comm::Comm& c) {
    const auto local = mesh::assembleLocal(spec, c.rank(), c.size());
    const DistCsrMatrix dist(c, local.globalN, local.globalN, local.startRow,
                             local.localA);
    EXPECT_EQ(dist.numInteriorRows() + dist.numBoundaryRows(),
              dist.localRows());
    // A row is boundary iff it touches a ghost column, so boundary rows and
    // ghosts appear together.
    EXPECT_EQ(dist.numBoundaryRows() > 0, dist.numGhosts() > 0);
    if (p == 1) {
      EXPECT_EQ(dist.numBoundaryRows(), 0);
    }
  });
}

TEST_P(DistP, RepeatedSpmvIsBitwiseDeterministic) {
  const int p = GetParam();
  const int n = 83;
  Rng rng(700);
  const CsrMatrix global = randomDiagDominant(n, 6, 1.0, rng);
  comm::World::run(p, [&](comm::Comm& c) {
    DistCsrMatrix dist = DistCsrMatrix::scatterFromRoot(c, global);
    const int m = dist.localRows();
    std::vector<double> x(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
      x[static_cast<std::size_t>(i)] = 0.25 * (dist.startRow() + i) - 3.0;
    }
    std::vector<double> y0(static_cast<std::size_t>(m));
    dist.spmv(std::span<const double>(x), std::span<double>(y0));
    // Back-to-back rounds rotate through distinct reserved tags; the values
    // must nevertheless be bitwise identical every round.
    for (int round = 0; round < 5; ++round) {
      std::vector<double> y(static_cast<std::size_t>(m), -1.0);
      dist.spmv(std::span<const double>(x), std::span<double>(y));
      for (int i = 0; i < m; ++i) {
        EXPECT_EQ(y[static_cast<std::size_t>(i)],
                  y0[static_cast<std::size_t>(i)]);
      }
    }
  });
}

TEST(Dist, SpmvIsAllocationFreeSingleRank) {
  comm::World::run(1, [](comm::Comm& c) {
    const int n = 256;
    const CsrMatrix a = laplacian1d(n);
    const DistCsrMatrix dist(c, n, n, 0, a);
    std::vector<double> x(static_cast<std::size_t>(n), 1.0);
    std::vector<double> y(static_cast<std::size_t>(n));
    dist.spmv(std::span<const double>(x), std::span<double>(y));  // warm
    g_allocCalls.store(0);
    g_allocBytes.store(0);
    g_countAllocs.store(true);
    for (int it = 0; it < 32; ++it) {
      dist.spmv(std::span<const double>(x), std::span<double>(y));
    }
    g_countAllocs.store(false);
    EXPECT_EQ(g_allocCalls.load(), 0u);
    EXPECT_EQ(g_allocBytes.load(), 0u);

    // The float path builds its value mirror on the first call only.
    const std::vector<float> xF(static_cast<std::size_t>(n), 1.0F);
    std::vector<float> yF(static_cast<std::size_t>(n));
    dist.spmvFloat(std::span<const float>(xF), std::span<float>(yF));  // warm
    g_countAllocs.store(true);
    for (int it = 0; it < 32; ++it) {
      dist.spmvFloat(std::span<const float>(xF), std::span<float>(yF));
    }
    g_countAllocs.store(false);
    EXPECT_EQ(g_allocCalls.load(), 0u);
    EXPECT_EQ(g_allocBytes.load(), 0u);
  });
}

TEST(Dist, SpmvAllocatesOnlyTransportEnvelopesMultiRank) {
  // With two ranks the 1-D Laplacian couples the blocks through a single
  // entry each way, so per-call message payloads are a few bytes while the
  // operator itself is ~n doubles.  If spmv re-allocated
  // its scratch per call, the counted bytes would be megabytes.
  const int n = 20000;
  const int reps = 16;
  const CsrMatrix global = laplacian1d(n);
  comm::World::run(2, [&](comm::Comm& c) {
    DistCsrMatrix dist = DistCsrMatrix::scatterFromRoot(c, global);
    const int m = dist.localRows();
    std::vector<double> x(static_cast<std::size_t>(m), 1.0);
    std::vector<double> y(static_cast<std::size_t>(m));
    for (int it = 0; it < 4; ++it) {  // warm the transport
      dist.spmv(std::span<const double>(x), std::span<double>(y));
    }
    c.barrier();
    if (c.rank() == 0) {
      g_allocCalls.store(0);
      g_allocBytes.store(0);
      g_countAllocs.store(true);
    }
    c.barrier();
    for (int it = 0; it < reps; ++it) {
      dist.spmv(std::span<const double>(x), std::span<double>(y));
    }
    c.barrier();
    if (c.rank() == 0) {
      g_countAllocs.store(false);
      // Both ranks' transport traffic over all reps: far below one x.
      EXPECT_LT(g_allocBytes.load(), static_cast<std::size_t>(n));
    }
    c.barrier();
  });
}

TEST_P(DistP, FusedDotsMatchDistDotBitwise) {
  // Every lane of the interleaved multi-dot is bitwise distDot, for 1-9
  // lanes (full groups of 8 and every remainder), whether the lanes share
  // x (the GMRES projection shape) or not.
  const int p = GetParam();
  const int n = 53;
  const int kVecs = 10;
  std::vector<std::vector<double>> vecs(kVecs,
                                        std::vector<double>(std::size_t(n)));
  Rng rng(811);
  for (auto& v : vecs) {
    for (double& e : v) e = rng.uniform(-1, 1);
  }
  comm::World::run(p, [&](comm::Comm& c) {
    const BlockRowPartition part(n, p);
    const auto s = static_cast<std::size_t>(part.startRow(c.rank()));
    const auto m = static_cast<std::size_t>(part.localRows(c.rank()));
    const auto local = [&](int k) {
      return std::span<const double>(vecs[std::size_t(k)]).subspan(s, m);
    };
    for (int lanes = 1; lanes <= 9; ++lanes) {
      for (const bool shared : {true, false}) {
        std::vector<DotArgs> dots;
        for (int l = 0; l < lanes; ++l) {
          dots.push_back({local(shared ? 0 : l), local(l + 1)});
        }
        std::vector<double> out(dots.size());
        distDots(c, dots, out);
        for (std::size_t l = 0; l < dots.size(); ++l) {
          const double ref = distDot(c, dots[l].x, dots[l].y);
          EXPECT_EQ(out[l], ref) << lanes << " lanes, lane " << l
                                 << (shared ? " (shared x)" : "");
        }
      }
    }
  });
}

TEST(FusedKernels, MaxpyMatchesSequentialAxpysBitwise) {
  // maxpy updates each element in the order of the sequential axpys, for
  // every count of vectors (full passes of 4 and each remainder), and
  // returns bitwise the local partial of the updated w's squared norm.
  const std::size_t n = 37;
  Rng rng(812);
  std::vector<std::vector<double>> ys(9, std::vector<double>(n));
  for (auto& y : ys) {
    for (double& e : y) e = rng.uniform(-1, 1);
  }
  std::vector<double> coeffs(9);
  for (double& c : coeffs) c = rng.uniform(-2, 2);
  std::vector<double> w0(n);
  for (double& e : w0) e = rng.uniform(-1, 1);
  for (std::size_t count = 0; count <= 9; ++count) {
    std::vector<double> ref = w0;
    for (std::size_t i = 0; i < count; ++i) {
      for (std::size_t k = 0; k < n; ++k) ref[k] -= coeffs[i] * ys[i][k];
    }
    double refNorm2 = 0.0;
    for (const double e : ref) refNorm2 += e * e;
    std::vector<std::span<const double>> yspans(ys.begin(),
                                                ys.begin() + long(count));
    std::vector<double> w = w0;
    const double norm2 =
        maxpy(w, std::span<const double>(coeffs.data(), count), yspans);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(w[k], ref[k]) << count << " vectors, entry " << k;
    }
    EXPECT_EQ(norm2, refNorm2) << count << " vectors";
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistP,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8));

}  // namespace
}  // namespace lisi::sparse
