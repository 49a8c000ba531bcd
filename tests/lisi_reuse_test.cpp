// Operator-change contract tests: a same-pattern setupMatrix must flow as a
// value-only update through every layer — no halo-plan rebuild in the
// distributed matrix, no symbolic refactorization in the direct solver, a
// preconditioner refresh (not rebuild) in the Krylov packages — while the
// computed solutions stay identical to a from-scratch rebuild.
//
// The reuse observability counters (sparse::haloPlanBuilds,
// slu::symbolicFactorizations, ...) are process-wide, and MiniMPI ranks are
// threads, so every sample is taken inside a barrier sandwich: between two
// barriers the only activity on any rank is reading the counter.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "comm/comm_handle.hpp"
#include "lisi/pde_driver.hpp"
#include "lisi/sparse_solver.hpp"
#include "mesh/pde5pt.hpp"
#include "pksp/pksp.hpp"
#include "slu/slu.hpp"
#include "sparse/dist_csr.hpp"
#include "sparse/ops.hpp"

namespace lisi {
namespace {

using comm::Comm;
using comm::World;

const char* backendClass(int index) {
  switch (index) {
    case 0: return kPkspComponentClass;
    case 1: return kAztecComponentClass;
    case 2: return kSluComponentClass;
    default: return kHymgComponentClass;
  }
}

const char* backendLabel(int index) {
  switch (index) {
    case 0: return "pksp";
    case 1: return "aztec";
    case 2: return "slu";
    default: return "hymg";
  }
}

std::map<std::string, std::string> backendParams(int index, int gridN) {
  switch (index) {
    case 0:
      return {{"solver", "gmres"}, {"preconditioner", "ilu"}, {"tol", "1e-10"},
              {"maxits", "5000"}};
    case 1:
      return {{"solver", "gmres"}, {"preconditioner", "ilu"}, {"tol", "1e-10"},
              {"maxits", "5000"}};
    case 2:
      return {{"ordering", "rcm"}};
    default:
      return {{"mg_grid_n", std::to_string(gridN)}, {"mg_bx", "3"},
              {"tol", "1e-10"}, {"maxits", "100"}};
  }
}

/// Wire a fresh solver port and declare the block-row distribution of `sys`.
std::shared_ptr<SparseSolver> wireSolver(
    cca::Framework& fw, long handle, int backendIndex,
    const mesh::Pde5ptLocalSystem& sys, int gridN) {
  registerSolverComponents();
  static int counter = 0;
  const std::string name = "reuse" + std::to_string(counter++);
  fw.instantiate(name, backendClass(backendIndex));
  auto s = fw.getProvidesPortAs<SparseSolver>(name, kSparseSolverPortName);
  EXPECT_EQ(s->initialize(handle), 0);
  EXPECT_EQ(s->setStartRow(sys.startRow), 0);
  EXPECT_EQ(s->setLocalRows(sys.localA.rows), 0);
  EXPECT_EQ(s->setGlobalCols(sys.globalN), 0);
  for (const auto& [k, v] : backendParams(backendIndex, gridN)) {
    EXPECT_EQ(s->set(k, v), 0) << k;
  }
  return s;
}

/// setupMatrix(a) + setupRHS(b) + solve; returns the local solution.
std::vector<double> feedAndSolve(SparseSolver& s, const sparse::CsrMatrix& a,
                                 const std::vector<double>& b) {
  const int m = a.rows;
  EXPECT_EQ(s.setupMatrix(RArray<const double>(a.values.data(), a.nnz()),
                          RArray<const int>(a.rowPtr.data(), m + 1),
                          RArray<const int>(a.colIdx.data(), a.nnz()),
                          SparseStruct::kCsr, m + 1, a.nnz()),
            0);
  EXPECT_EQ(s.setupRHS(RArray<const double>(b.data(), m), m, 1), 0);
  std::vector<double> x(static_cast<std::size_t>(m));
  std::vector<double> st(kStatusLength);
  EXPECT_EQ(s.solve(RArray<double>(x.data(), m),
                    RArray<double>(st.data(), kStatusLength), m,
                    kStatusLength),
            0);
  EXPECT_DOUBLE_EQ(st[kStatusConverged], 1.0);
  return x;
}

/// setupMatrix(scale * A) + setupRHS + solve; returns the local solution.
std::vector<double> feedAndSolve(SparseSolver& s,
                                 const mesh::Pde5ptLocalSystem& sys,
                                 double scale) {
  sparse::CsrMatrix a = sys.localA;
  for (double& v : a.values) v *= scale;
  return feedAndSolve(s, a, sys.localB);
}

// ---- no plan rebuild, no symbolic refactorization on same pattern --------

class LisiReuseCounters
    : public ::testing::TestWithParam<std::tuple<int, int>> {};
// param: (backendIndex, ranks)

TEST_P(LisiReuseCounters, SamePatternResetupIsValueOnly) {
  const auto [backendIndex, ranks] = GetParam();
  const int gridN = 15;  // odd so hymg can coarsen
  // HyMG validates the supplied matrix against its rediscretized fine level,
  // so its "new values" are the same values; the other backends get a
  // genuinely scaled operator.
  const double rescale = backendIndex == 3 ? 1.0 : 1.25;
  World::run(ranks, [&, backendIndex](Comm& c) {
    mesh::Pde5ptSpec spec;
    spec.gridN = gridN;
    const auto sys = mesh::assembleLocal(spec, c.rank(), c.size());
    cca::Framework fw;
    const long h = comm::registerHandle(c);
    auto s = wireSolver(fw, h, backendIndex, sys, gridN);
    const std::vector<double> x0 = feedAndSolve(*s, sys, 1.0);

    c.barrier();
    const long long plans0 = sparse::haloPlanBuilds();
    const long long updates0 = sparse::valueUpdates();
    const long long sym0 = slu::symbolicFactorizations();
    const long long refac0 = slu::numericRefactorizations();
    c.barrier();

    const std::vector<double> x1 = feedAndSolve(*s, sys, rescale);

    c.barrier();
    const long long planDelta = sparse::haloPlanBuilds() - plans0;
    const long long updateDelta = sparse::valueUpdates() - updates0;
    const long long symDelta = slu::symbolicFactorizations() - sym0;
    const long long refacDelta = slu::numericRefactorizations() - refac0;
    c.barrier();

    EXPECT_EQ(planDelta, 0) << backendLabel(backendIndex)
                            << ": same-pattern re-setup rebuilt a halo plan";
    EXPECT_GE(updateDelta, 1) << backendLabel(backendIndex);
    if (backendIndex == 2) {
      EXPECT_EQ(symDelta, 0) << "slu re-ran the symbolic analysis";
      EXPECT_GE(refacDelta, 1) << "slu did not take the refactorize path";
    }

    // The reused solve must match a from-scratch rebuild on the same data.
    auto fresh = wireSolver(fw, h, backendIndex, sys, gridN);
    const std::vector<double> xf = feedAndSolve(*fresh, sys, rescale);
    ASSERT_EQ(x1.size(), xf.size());
    for (std::size_t i = 0; i < xf.size(); ++i) {
      EXPECT_NEAR(x1[i], xf[i], 1e-12)
          << backendLabel(backendIndex) << " entry " << i;
    }
    comm::releaseHandle(h);
  });
}

INSTANTIATE_TEST_SUITE_P(
    BackendsByRanks, LisiReuseCounters,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return std::string(backendLabel(std::get<0>(info.param))) + "_ranks" +
             std::to_string(std::get<1>(info.param));
    });

// ---- SLU: a frozen pivot that turns zero falls back to a full factor ------

TEST(LisiReuseSlu, ZeroFrozenPivotFallsBackToFullFactorization) {
  // Natural ordering pivots the paper PDE on its diagonal.  The second
  // setupMatrix keeps the pattern but rewrites the leading 2x2 block to
  // [1 2; 3 6], so the frozen pivot at position 1 becomes 6 - 3*2 = 0 and
  // the numeric refactorization throws mid-replay.  The component must fall
  // back to one full factorization and still solve, bitwise like a fresh
  // component fed the same matrix.
  const int gridN = 9;
  World::run(2, [&](Comm& c) {
    mesh::Pde5ptSpec spec;
    spec.gridN = gridN;
    const auto sys = mesh::assembleLocal(spec, c.rank(), c.size());
    sparse::CsrMatrix bad = sys.localA;
    const double block[2][2] = {{1.0, 2.0}, {3.0, 6.0}};
    // Global rows 0 and 1 are rank 0's first two rows.
    for (int i = 0; i < (sys.startRow == 0 ? 2 : 0); ++i) {
      for (int k = bad.rowPtr[static_cast<std::size_t>(i)];
           k < bad.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
        const int j = bad.colIdx[static_cast<std::size_t>(k)];
        if (j < 2) bad.values[static_cast<std::size_t>(k)] = block[i][j];
      }
    }
    cca::Framework fw;
    const long h = comm::registerHandle(c);
    auto s = wireSolver(fw, h, 2, sys, gridN);
    ASSERT_EQ(s->set("ordering", "natural"), 0);
    (void)feedAndSolve(*s, sys.localA, sys.localB);

    c.barrier();
    const long long plans0 = sparse::haloPlanBuilds();
    const long long sym0 = slu::symbolicFactorizations();
    const long long refac0 = slu::numericRefactorizations();
    c.barrier();

    const std::vector<double> x = feedAndSolve(*s, bad, sys.localB);

    c.barrier();
    const long long planDelta = sparse::haloPlanBuilds() - plans0;
    const long long symDelta = slu::symbolicFactorizations() - sym0;
    const long long refacDelta = slu::numericRefactorizations() - refac0;
    c.barrier();

    EXPECT_EQ(planDelta, 0) << "the re-setup was not classified same-pattern";
    EXPECT_EQ(symDelta, 1) << "no fallback to a full factorization";
    EXPECT_EQ(refacDelta, 0) << "a zero frozen pivot refactorized";

    auto fresh = wireSolver(fw, h, 2, sys, gridN);
    ASSERT_EQ(fresh->set("ordering", "natural"), 0);
    const std::vector<double> xf = feedAndSolve(*fresh, bad, sys.localB);
    EXPECT_EQ(x, xf);
    comm::releaseHandle(h);
  });
}

// ---- FEM duplicate triplets: assembly order must not change the pattern --

TEST(LisiReusePattern, PermutedFemDuplicatesKeepTheFingerprint) {
  // The same operator contributed as FEM duplicates in two different triplet
  // orders must canonicalize to the same structure, so the second setupMatrix
  // is a value-only update (no halo-plan rebuild) and the solutions are
  // bit-identical.  Values are halves so duplicate summation is exact.
  World::run(1, [](Comm& c) {
    registerSolverComponents();
    cca::Framework fw;
    fw.instantiate("fem", kPkspComponentClass);
    auto s = fw.getProvidesPortAs<SparseSolver>("fem", kSparseSolverPortName);
    const long h = comm::registerHandle(c);
    ASSERT_EQ(s->initialize(h), 0);
    ASSERT_EQ(s->setStartRow(0), 0);
    ASSERT_EQ(s->setLocalRows(3), 0);
    ASSERT_EQ(s->setGlobalCols(3), 0);
    ASSERT_EQ(s->set("solver", "gmres"), 0);
    ASSERT_EQ(s->setDouble("tol", 1e-12), 0);

    // Tridiagonal 3x3: diag 4 (as 2+2), off-diagonals -1 (as -0.5-0.5).
    struct Trip { int r, cIdx; double v; };
    const std::vector<Trip> base = {
        {0, 0, 2.0}, {0, 0, 2.0}, {0, 1, -0.5}, {0, 1, -0.5},
        {1, 0, -0.5}, {1, 0, -0.5}, {1, 1, 2.0}, {1, 1, 2.0},
        {1, 2, -0.5}, {1, 2, -0.5}, {2, 1, -0.5}, {2, 1, -0.5},
        {2, 2, 2.0}, {2, 2, 2.0}};
    // Second feed: same triplets, duplicates interleaved differently.
    const std::vector<std::size_t> perm = {13, 2, 7, 0, 10, 5, 12, 4,
                                           9, 1, 6, 11, 3, 8};

    auto solveWith = [&](const std::vector<Trip>& t) {
      std::vector<double> v;
      std::vector<int> rows, cols;
      for (const Trip& e : t) {
        v.push_back(e.v);
        rows.push_back(e.r);
        cols.push_back(e.cIdx);
      }
      const int nnz = static_cast<int>(t.size());
      EXPECT_EQ(s->setupMatrix(RArray<const double>(v.data(), nnz),
                               RArray<const int>(rows.data(), nnz),
                               RArray<const int>(cols.data(), nnz),
                               SparseStruct::kFem, nnz, nnz),
                0);
      const double b[3] = {1, 2, 3};
      EXPECT_EQ(s->setupRHS(RArray<const double>(b, 3), 3, 1), 0);
      std::vector<double> x(3);
      std::vector<double> st(kStatusLength);
      EXPECT_EQ(s->solve(RArray<double>(x.data(), 3),
                         RArray<double>(st.data(), kStatusLength), 3,
                         kStatusLength),
                0);
      return x;
    };

    const std::vector<double> x0 = solveWith(base);
    const long long plans0 = sparse::haloPlanBuilds();
    std::vector<Trip> shuffled;
    for (const std::size_t i : perm) shuffled.push_back(base[i]);
    const std::vector<double> x1 = solveWith(shuffled);
    EXPECT_EQ(sparse::haloPlanBuilds() - plans0, 0)
        << "permuted duplicate order changed the structural fingerprint";
    for (int i = 0; i < 3; ++i) {
      EXPECT_DOUBLE_EQ(x1[static_cast<std::size_t>(i)],
                       x0[static_cast<std::size_t>(i)]);
    }
    comm::releaseHandle(h);
  });
}

// ---- status contract: exactly min(statusLength, kStatusLength) entries ---

TEST(LisiStatusFill, ExactlyMinStatusLengthEntriesWritten) {
  const double kSentinel = -7.25;
  for (int backendIndex = 0; backendIndex < 4; ++backendIndex) {
    World::run(1, [&, backendIndex](Comm& c) {
      const int gridN = 7;  // odd so hymg can coarsen
      mesh::Pde5ptSpec spec;
      spec.gridN = gridN;
      const auto sys = mesh::assembleLocal(spec, c.rank(), c.size());
      const int m = sys.localA.rows;
      cca::Framework fw;
      const long h = comm::registerHandle(c);
      auto s = wireSolver(fw, h, backendIndex, sys, gridN);
      ASSERT_EQ(
          s->setupMatrix(
              RArray<const double>(sys.localA.values.data(), sys.localA.nnz()),
              RArray<const int>(sys.localA.rowPtr.data(), m + 1),
              RArray<const int>(sys.localA.colIdx.data(), sys.localA.nnz()),
              SparseStruct::kCsr, m + 1, sys.localA.nnz()),
          0);
      ASSERT_EQ(s->setupRHS(RArray<const double>(sys.localB.data(), m), m, 1),
                0);
      for (const int len : {0, 3, 8}) {
        double st[8];
        for (double& e : st) e = kSentinel;
        std::vector<double> x(static_cast<std::size_t>(m));
        ASSERT_EQ(s->solve(RArray<double>(x.data(), m), RArray<double>(st, len),
                           m, len),
                  0)
            << backendLabel(backendIndex) << " statusLength=" << len;
        const int filled = len < kStatusLength ? len : kStatusLength;
        for (int i = 0; i < filled; ++i) {
          EXPECT_NE(st[i], kSentinel)
              << backendLabel(backendIndex) << " statusLength=" << len
              << " entry " << i << " left unwritten";
        }
        for (int i = filled; i < 8; ++i) {
          EXPECT_EQ(st[i], kSentinel)
              << backendLabel(backendIndex) << " statusLength=" << len
              << " entry " << i << " overwritten";
        }
      }
      comm::releaseHandle(h);
    });
  }
}

// ---- matrix-free <-> assembled switching is a structural change ----------

TEST(LisiKindSwitch, AssembledMatrixFreeAssembledRoundTrip) {
  // Flipping the operator kind must report kNewStructure even though the
  // assembled fingerprint still matches: the backend has to rebuild its
  // wrapped operator, not value-update a stale one.
  for (const char* cls : {kPkspComponentClass, kAztecComponentClass}) {
    World::run(2, [&](Comm& c) {
      registerSolverComponents();
      registerDriverComponent();
      cca::Framework fw;
      fw.instantiate("driver", kDriverComponentClass);
      fw.instantiate("solver", cls);
      fw.connect("driver", kSparseSolverPortName, "solver",
                 kSparseSolverPortName);
      fw.connect("solver", kMatrixFreePortName, "driver", kMatrixFreePortName);
      auto go = fw.getProvidesPortAs<GoPort>("driver", kGoPortName);
      PdeDriverConfig config;
      config.gridN = 12;
      config.solverParams = {{"solver", "gmres"}, {"preconditioner", "none"},
                             {"tol", "1e-10"}, {"maxits", "20000"}};
      std::vector<double> first;
      int round = 0;
      for (const bool mf : {false, true, false}) {
        config.matrixFree = mf;
        const PdeDriverResult res = go->go(c, config);
        ASSERT_TRUE(res.solved)
            << cls << " round " << round << " matrixFree=" << mf;
        if (first.empty()) {
          first = res.localSolution;
        } else {
          for (std::size_t i = 0; i < first.size(); ++i) {
            EXPECT_NEAR(res.localSolution[i], first[i], 1e-6)
                << cls << " round " << round << " (iterations="
                << res.iterations << ", residualNorm=" << res.residualNorm
                << ")";
          }
        }
        ++round;
      }
    });
  }
}

// ---- PKSP structure flags drive the PC state machine ---------------------

TEST(PkspPcReuse, SameNonzeroPatternRefreshesInsteadOfRebuilding) {
  World::run(2, [](Comm& c) {
    mesh::Pde5ptSpec spec;
    spec.gridN = 12;
    const auto sys = mesh::assembleLocal(spec, c.rank(), c.size());
    const sparse::DistCsrMatrix a(c, sys.globalN, sys.globalN, sys.startRow,
                                  sys.localA);
    sparse::CsrMatrix scaledLocal = sys.localA;
    for (double& v : scaledLocal.values) v *= 2.0;
    const sparse::DistCsrMatrix a2(c, sys.globalN, sys.globalN, sys.startRow,
                                   scaledLocal);

    pksp::KSP ksp = nullptr;
    ASSERT_EQ(pksp::KSPCreate(c, &ksp), pksp::PKSP_SUCCESS);
    pksp::KSPSetType(ksp, pksp::PKSP_GMRES);
    pksp::KSPSetPCType(ksp, pksp::PKSP_PC_ILU0);
    pksp::KSPSetTolerances(ksp, 1e-10, 1e-50, 5000);
    std::vector<double> x(sys.localB.size(), 0.0);

    ASSERT_EQ(pksp::KSPSetOperator(ksp, &a, pksp::PKSP_DIFFERENT_NONZERO_PATTERN),
              pksp::PKSP_SUCCESS);
    ASSERT_EQ(pksp::KSPSolve(ksp, sys.localB, x), pksp::PKSP_SUCCESS);
    int builds = 0, refreshes = 0;
    ASSERT_EQ(pksp::KSPGetPCSetupCounts(ksp, &builds, &refreshes),
              pksp::PKSP_SUCCESS);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(refreshes, 0);

    // Same pattern, new values: the ILU(0) storage is refreshed in place.
    std::fill(x.begin(), x.end(), 0.0);
    ASSERT_EQ(pksp::KSPSetOperator(ksp, &a2, pksp::PKSP_SAME_NONZERO_PATTERN),
              pksp::PKSP_SUCCESS);
    ASSERT_EQ(pksp::KSPSolve(ksp, sys.localB, x), pksp::PKSP_SUCCESS);
    ASSERT_EQ(pksp::KSPGetPCSetupCounts(ksp, &builds, &refreshes),
              pksp::PKSP_SUCCESS);
    EXPECT_EQ(builds, 1) << "same-pattern update rebuilt the preconditioner";
    EXPECT_EQ(refreshes, 1);

    // Same preconditioner: the solve reuses the PC untouched.
    std::fill(x.begin(), x.end(), 0.0);
    ASSERT_EQ(pksp::KSPSetOperator(ksp, &a2, pksp::PKSP_SAME_PRECONDITIONER),
              pksp::PKSP_SUCCESS);
    ASSERT_EQ(pksp::KSPSolve(ksp, sys.localB, x), pksp::PKSP_SUCCESS);
    ASSERT_EQ(pksp::KSPGetPCSetupCounts(ksp, &builds, &refreshes),
              pksp::PKSP_SUCCESS);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(refreshes, 1);
    pksp::KSPDestroy(&ksp);
  });
}

}  // namespace
}  // namespace lisi
