// Aztec package tests: Map/Vector semantics, CrsMatrix, matrix-free
// RowMatrix subclasses, the AztecOO driver across solver/preconditioner
// combinations, and parallel/serial agreement.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "aztec/aztecoo.hpp"
#include "comm/comm.hpp"
#include "mesh/pde5pt.hpp"
#include "sparse/generate.hpp"
#include "sparse/ops.hpp"
#include "support/rng.hpp"

// Counts heap allocations, so the GMRES workspace can be held to a budget.
#include "alloc_count.hpp"
#include "block_reference.hpp"
#include "gmres_golden.hpp"

namespace aztec {
namespace {

using lisi::Rng;
using lisi::comm::Comm;
using lisi::comm::World;
using lisi::sparse::CsrMatrix;

/// Local slice of a replicated global vector under `map`.
std::vector<double> sliceFor(const Map& map, const std::vector<double>& g) {
  const int s = map.minMyGlobalIndex();
  const int m = map.numMyElements();
  return {g.begin() + s, g.begin() + s + m};
}

/// Build a CrsMatrix for this rank from a replicated global CSR.
CrsMatrix makeCrs(const Map& map, const CsrMatrix& global) {
  const int s = map.minMyGlobalIndex();
  const int m = map.numMyElements();
  CsrMatrix local;
  local.rows = m;
  local.cols = global.cols;
  local.rowPtr.assign(static_cast<std::size_t>(m) + 1, 0);
  for (int i = 0; i < m; ++i) {
    const int gb = global.rowPtr[static_cast<std::size_t>(s + i)];
    const int ge = global.rowPtr[static_cast<std::size_t>(s + i) + 1];
    local.colIdx.insert(local.colIdx.end(), global.colIdx.begin() + gb,
                        global.colIdx.begin() + ge);
    local.values.insert(local.values.end(), global.values.begin() + gb,
                        global.values.begin() + ge);
    local.rowPtr[static_cast<std::size_t>(i) + 1] =
        static_cast<int>(local.values.size());
  }
  return CrsMatrix(map, std::move(local));
}

TEST(AztecMap, EvenDistribution) {
  World::run(4, [](Comm& c) {
    const Map map(12, c);
    EXPECT_EQ(map.numGlobalElements(), 12);
    EXPECT_EQ(map.numMyElements(), 3);
    EXPECT_EQ(map.minMyGlobalIndex(), 3 * c.rank());
    EXPECT_TRUE(map.sameAs(Map(12, c)));
    EXPECT_FALSE(map.sameAs(Map(13, c)));
  });
}

TEST(AztecMap, ExplicitLocalCounts) {
  World::run(3, [](Comm& c) {
    const int mine = c.rank() + 1;  // 1+2+3 = 6
    const Map map(6, mine, c);
    EXPECT_EQ(map.numMyElements(), mine);
    const std::vector<int> expect{0, 1, 3, 6};
    EXPECT_EQ(map.offsets(), expect);
  });
}

TEST(AztecMap, InconsistentCountsRejected) {
  EXPECT_THROW(World::run(2,
                          [](Comm& c) {
                            const Map bad(10, 4, c);  // 4+4 != 10
                          }),
               lisi::Error);
}

TEST(AztecVector, UpdateAndReductions) {
  World::run(2, [](Comm& c) {
    const Map map(8, c);
    Vector x(map), y(map);
    x.putScalar(2.0);
    y.putScalar(3.0);
    EXPECT_DOUBLE_EQ(x.dot(y), 8 * 6.0);
    EXPECT_DOUBLE_EQ(x.norm2(), std::sqrt(8 * 4.0));
    y.update(2.0, x, -1.0);  // y = 2x - y = 1
    EXPECT_DOUBLE_EQ(y.normInf(), 1.0);
    Vector z(map);
    z.update(1.0, x, 1.0, y, 0.0);  // z = x + y = 3
    EXPECT_DOUBLE_EQ(z.norm2(), std::sqrt(8 * 9.0));
  });
}

TEST(AztecVector, MultiplyReciprocal) {
  World::run(1, [](Comm& c) {
    const Map map(4, c);
    Vector a(map), b(map), r(map);
    for (int i = 0; i < 4; ++i) {
      a[i] = i + 1.0;
      b[i] = 2.0;
    }
    r.multiply(a, b);
    EXPECT_DOUBLE_EQ(r[3], 8.0);
    Vector inv(map);
    inv.reciprocal(a);
    EXPECT_DOUBLE_EQ(inv[1], 0.5);
    Vector zero(map);
    EXPECT_THROW(inv.reciprocal(zero), lisi::Error);
  });
}

TEST(AztecVector, MapMismatchRejected) {
  World::run(1, [](Comm& c) {
    const Map m1(4, c), m2(5, c);
    Vector a(m1), b(m2);
    EXPECT_THROW(a.update(1.0, b, 0.0), lisi::Error);
    EXPECT_THROW((void)a.dot(b), lisi::Error);
  });
}

TEST(AztecCrs, ApplyMatchesSerialSpmv) {
  const CsrMatrix g = lisi::sparse::laplacian2d(6, 5);
  std::vector<double> xg(static_cast<std::size_t>(g.rows));
  Rng rng(9);
  for (auto& v : xg) v = rng.uniform(-1, 1);
  std::vector<double> yRef(xg.size());
  lisi::sparse::spmv(g, std::span<const double>(xg), std::span<double>(yRef));
  for (int p : {1, 2, 3}) {
    World::run(p, [&](Comm& c) {
      const Map map(g.rows, c);
      const CrsMatrix a = makeCrs(map, g);
      Vector x(map, sliceFor(map, xg));
      Vector y(map);
      a.apply(x, y);
      for (int i = 0; i < map.numMyElements(); ++i) {
        EXPECT_NEAR(y[i], yRef[static_cast<std::size_t>(map.minMyGlobalIndex() + i)],
                    1e-13);
      }
    });
  }
}

TEST(AztecCrs, ExtractDiagonal) {
  const CsrMatrix g = lisi::sparse::laplacian2d(4, 4);
  World::run(2, [&](Comm& c) {
    const Map map(g.rows, c);
    const CrsMatrix a = makeCrs(map, g);
    Vector d(map);
    a.extractDiagonal(d);
    for (int i = 0; i < map.numMyElements(); ++i) EXPECT_DOUBLE_EQ(d[i], 4.0);
  });
}

TEST(AztecCrs, ViewUsesTheOperatorWithoutCopying) {
  // View mode: no copy and no second halo plan; the owner's in-place value
  // refresh shows through, and the shared handle keeps the operator alive
  // after the owner lets go.
  const CsrMatrix g = lisi::sparse::laplacian2d(7, 6);
  std::vector<double> xg(static_cast<std::size_t>(g.rows));
  Rng rng(11);
  for (auto& v : xg) v = rng.uniform(-1, 1);
  for (int p : {1, 3}) {
    World::run(p, [&](Comm& c) {
      const Map map(g.rows, c);
      const CrsMatrix copy = makeCrs(map, g);
      auto owner = std::make_shared<lisi::sparse::DistCsrMatrix>(
          c, g.rows, g.cols, map.minMyGlobalIndex(),
          copy.assembled()->globalBlock());
      c.barrier();
      const long long plans0 = lisi::sparse::haloPlanBuilds();
      c.barrier();
      CrsMatrix view(map, owner);
      c.barrier();
      EXPECT_EQ(lisi::sparse::haloPlanBuilds(), plans0);
      c.barrier();
      EXPECT_EQ(view.assembled(), owner.get());
      EXPECT_THROW(view.replaceValues(owner->globalBlock()), lisi::Error);
      const Map other(g.rows + 1, c);
      EXPECT_THROW(CrsMatrix(other, owner), lisi::Error);

      CsrMatrix scaled = owner->globalBlock();
      for (double& v : scaled.values) v *= 1.5;
      owner->updateValues(scaled);
      CrsMatrix scaledCopy(map, scaled);
      owner.reset();
      const Vector x(map, sliceFor(map, xg));
      Vector y(map), yRef(map);
      view.apply(x, y);
      scaledCopy.apply(x, yRef);
      for (int i = 0; i < map.numMyElements(); ++i) EXPECT_EQ(y[i], yRef[i]);
    });
  }
}

/// Matrix-free operator implementing the 1-D Laplacian via neighbor
/// exchange — the §5.5 pattern: application code subclasses RowMatrix.
class MatrixFreeLaplacian1d final : public RowMatrix {
 public:
  explicit MatrixFreeLaplacian1d(const Map& map) : map_(&map) {}
  [[nodiscard]] const Map& rowMap() const override { return *map_; }

  void apply(const Vector& x, Vector& y) const override {
    const auto& comm = map_->comm();
    const int rank = comm.rank();
    const int p = comm.size();
    const int m = map_->numMyElements();
    // Exchange boundary values with neighbors.
    double left = 0.0, right = 0.0;
    if (rank > 0) comm.sendValue(x[0], rank - 1, 42);
    if (rank + 1 < p) comm.sendValue(x[m - 1], rank + 1, 42);
    if (rank + 1 < p) right = comm.recvValue<double>(rank + 1, 42);
    if (rank > 0) left = comm.recvValue<double>(rank - 1, 42);
    for (int i = 0; i < m; ++i) {
      const double xm = i > 0 ? x[i - 1] : left;
      const double xp = i + 1 < m ? x[i + 1] : right;
      y[i] = 2.0 * x[i] - xm - xp;
    }
  }

  void extractDiagonal(Vector& d) const override { d.putScalar(2.0); }

 private:
  const Map* map_;
};

TEST(AztecMatrixFree, OperatorMatchesAssembled) {
  const int n = 24;
  const CsrMatrix g = lisi::sparse::laplacian1d(n);
  std::vector<double> xg(static_cast<std::size_t>(n));
  Rng rng(10);
  for (auto& v : xg) v = rng.uniform(-1, 1);
  std::vector<double> yRef(xg.size());
  lisi::sparse::spmv(g, std::span<const double>(xg), std::span<double>(yRef));
  for (int p : {1, 2, 4}) {
    World::run(p, [&](Comm& c) {
      const Map map(n, c);
      const MatrixFreeLaplacian1d a(map);
      Vector x(map, sliceFor(map, xg));
      Vector y(map);
      a.apply(x, y);
      for (int i = 0; i < map.numMyElements(); ++i) {
        EXPECT_NEAR(y[i], yRef[static_cast<std::size_t>(map.minMyGlobalIndex() + i)],
                    1e-13);
      }
    });
  }
}

TEST(AztecMatrixFree, SolveWithoutAssembledMatrix) {
  // CG + Jacobi on the matrix-free Laplacian: §5.5 end to end.
  const int n = 32;
  World::run(2, [&](Comm& c) {
    const Map map(n, c);
    const MatrixFreeLaplacian1d a(map);
    Vector x(map), b(map);
    b.putScalar(1.0);
    AztecOO solver(a, x, b);
    solver.setOption(AZ_solver, AZ_cg).setOption(AZ_precond, AZ_Jacobi);
    EXPECT_EQ(solver.iterate(500, 1e-10), 0);
    // Verify against the assembled solve residual.
    Vector r(map);
    a.apply(x, r);
    r.update(1.0, b, -1.0);
    EXPECT_LT(r.norm2(), 1e-8 * b.norm2() + 1e-9);
  });
}

TEST(AztecMatrixFree, DomDecompRequiresAssembled) {
  World::run(1, [](Comm& c) {
    const Map map(8, c);
    const MatrixFreeLaplacian1d a(map);
    Vector x(map), b(map);
    b.putScalar(1.0);
    AztecOO solver(a, x, b);
    solver.setOption(AZ_precond, AZ_dom_decomp);
    EXPECT_THROW((void)solver.iterate(10, 1e-8), lisi::Error);
  });
}

TEST(AztecOptions, DefaultsAndBounds) {
  World::run(1, [](Comm& c) {
    const Map map(4, c);
    const CrsMatrix a = makeCrs(map, lisi::sparse::laplacian1d(4));
    Vector x(map), b(map);
    AztecOO solver(a, x, b);
    EXPECT_EQ(solver.option(AZ_solver), AZ_gmres);
    EXPECT_EQ(solver.option(AZ_kspace), 30);
    EXPECT_DOUBLE_EQ(solver.param(AZ_tol), 1e-6);
    EXPECT_THROW(solver.setOption(99, 1), lisi::Error);
    EXPECT_THROW(solver.setParam(-1, 0.0), lisi::Error);
  });
}

struct AzCombo {
  int solver;
  int precond;
};

class AztecConvergence : public ::testing::TestWithParam<AzCombo> {};

TEST_P(AztecConvergence, SpdSystemSolves) {
  const AzCombo combo = GetParam();
  const CsrMatrix g = lisi::sparse::laplacian2d(11, 11);
  std::vector<double> xTrue(static_cast<std::size_t>(g.rows));
  Rng rng(77);
  for (auto& v : xTrue) v = rng.uniform(-1, 1);
  std::vector<double> bg(xTrue.size());
  lisi::sparse::spmv(g, std::span<const double>(xTrue), std::span<double>(bg));

  World::run(2, [&](Comm& c) {
    const Map map(g.rows, c);
    const CrsMatrix a = makeCrs(map, g);
    Vector x(map);
    const Vector b(map, sliceFor(map, bg));
    AztecOO solver(a, x, b);
    solver.setOption(AZ_solver, combo.solver)
        .setOption(AZ_precond, combo.precond);
    EXPECT_EQ(solver.iterate(3000, 1e-10), 0)
        << "why=" << solver.terminationReason();
    EXPECT_LT(solver.scaledResidual(), 1e-9);
    for (int i = 0; i < map.numMyElements(); ++i) {
      EXPECT_NEAR(x[i], xTrue[static_cast<std::size_t>(map.minMyGlobalIndex() + i)],
                  1e-5);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Combos, AztecConvergence,
    ::testing::Values(AzCombo{AZ_cg, AZ_none}, AzCombo{AZ_cg, AZ_Jacobi},
                      AzCombo{AZ_cg, AZ_dom_decomp},
                      AzCombo{AZ_cg, AZ_sym_GS},
                      AzCombo{AZ_gmres, AZ_none}, AzCombo{AZ_gmres, AZ_Jacobi},
                      AzCombo{AZ_gmres, AZ_Neumann},
                      AzCombo{AZ_gmres, AZ_dom_decomp},
                      AzCombo{AZ_gmres, AZ_sym_GS},
                      AzCombo{AZ_bicgstab, AZ_none},
                      AzCombo{AZ_bicgstab, AZ_Jacobi},
                      AzCombo{AZ_bicgstab, AZ_dom_decomp}));

TEST(AztecSymGs, RequiresAssembledMatrix) {
  World::run(1, [](Comm& c) {
    const Map map(8, c);
    const MatrixFreeLaplacian1d a(map);
    Vector x(map), b(map);
    b.putScalar(1.0);
    AztecOO solver(a, x, b);
    solver.setOption(AZ_precond, AZ_sym_GS);
    EXPECT_THROW((void)solver.iterate(10, 1e-8), lisi::Error);
  });
}

TEST(AztecSymGs, PreservesCgOnSpdProblem) {
  // SGS is a symmetric preconditioner: CG must converge cleanly (a
  // one-sided GS would break CG's assumptions).
  const CsrMatrix g = lisi::sparse::laplacian2d(14, 14);
  World::run(1, [&](Comm& c) {
    const Map map(g.rows, c);
    const CrsMatrix a = makeCrs(map, g);
    Vector x(map), b(map);
    b.putScalar(1.0);
    AztecOO solver(a, x, b);
    solver.setOption(AZ_solver, AZ_cg).setOption(AZ_precond, AZ_sym_GS);
    EXPECT_EQ(solver.iterate(1000, 1e-10), 0);
    // On one rank SGS is exact symmetric Gauss-Seidel and must beat
    // unpreconditioned CG.  (Across ranks it degrades to block-local SGS
    // and only convergence is guaranteed — covered by the Combos sweep.)
    Vector x2(map);
    AztecOO plain(a, x2, b);
    plain.setOption(AZ_solver, AZ_cg).setOption(AZ_precond, AZ_none);
    EXPECT_EQ(plain.iterate(1000, 1e-10), 0);
    EXPECT_LT(solver.numIters(), plain.numIters());
  });
}

TEST(AztecNonsymmetric, GmresIluOnConvectionDiffusion) {
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = 15;
  const auto sys = lisi::mesh::assembleGlobal(spec);
  for (int p : {1, 3}) {
    World::run(p, [&](Comm& c) {
      const Map map(sys.globalN, c);
      const CrsMatrix a = makeCrs(map, sys.localA);
      Vector x(map);
      const Vector b(map, sliceFor(map, sys.localB));
      AztecOO solver(a, x, b);
      solver.setOption(AZ_solver, AZ_gmres)
          .setOption(AZ_precond, AZ_dom_decomp)
          .setOption(AZ_kspace, 40);
      EXPECT_EQ(solver.iterate(2000, 1e-10), 0);
      EXPECT_LT(solver.scaledResidual(), 1e-9);
    });
  }
}

// Eigenvalues spread geometrically over ten decades: classical
// Gram-Schmidt loses orthogonality here unless Kelley's test sends the
// badly cancelled steps through a second pass.  With the pass the solve
// takes 117-120 iterations at p = 1-3; without it, 175-179.
TEST(AztecNonsymmetric, GmresReorthogonalizationKeepsIllConditionedSolveShort) {
  const int n = 60;
  CsrMatrix g;
  g.rows = n;
  g.cols = n;
  g.rowPtr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (int i = 0; i < n; ++i) {
    g.rowPtr[static_cast<std::size_t>(i) + 1] = i + 1;
    g.colIdx.push_back(i);
    g.values.push_back(std::pow(10.0, -10.0 * i / (n - 1)));
  }
  std::vector<double> bGlobal(static_cast<std::size_t>(n));
  Rng rng(11);
  for (double& v : bGlobal) v = rng.uniform(-1, 1);
  for (int p : {1, 3}) {
    World::run(p, [&](Comm& c) {
      const Map map(n, c);
      const CrsMatrix a = makeCrs(map, g);
      Vector x(map);
      const Vector b(map, sliceFor(map, bGlobal));
      AztecOO solver(a, x, b);
      solver.setOption(AZ_solver, AZ_gmres)
          .setOption(AZ_precond, AZ_none)
          .setOption(AZ_kspace, n);
      EXPECT_EQ(solver.iterate(1000, 1e-10), 0);
      EXPECT_LE(solver.numIters(), 150) << "p=" << p;
      EXPECT_LT(solver.scaledResidual(), 1e-10);
    });
  }
}

TEST(AztecStatus, MaxItersReported) {
  const CsrMatrix g = lisi::sparse::laplacian2d(16, 16);
  World::run(1, [&](Comm& c) {
    const Map map(g.rows, c);
    const CrsMatrix a = makeCrs(map, g);
    Vector x(map), b(map);
    b.putScalar(1.0);
    AztecOO solver(a, x, b);
    solver.setOption(AZ_solver, AZ_cg);
    EXPECT_EQ(solver.iterate(4, 1e-14), 1);
    EXPECT_EQ(solver.terminationReason(), AZ_maxits);
    EXPECT_EQ(solver.numIters(), 4);
  });
}

TEST(AztecStatus, R0ConvergenceMode) {
  const CsrMatrix g = lisi::sparse::laplacian2d(8, 8);
  World::run(1, [&](Comm& c) {
    const Map map(g.rows, c);
    const CrsMatrix a = makeCrs(map, g);
    Vector x(map), b(map);
    b.putScalar(1.0);
    AztecOO solver(a, x, b);
    solver.setOption(AZ_solver, AZ_cg).setOption(AZ_conv, AZ_r0);
    EXPECT_EQ(solver.iterate(500, 1e-11), 0);
    EXPECT_LT(solver.scaledResidual(), 1e-10);
  });
}

TEST(AztecStatus, StoredOptionsIterateOverload) {
  const CsrMatrix g = lisi::sparse::laplacian1d(20);
  World::run(1, [&](Comm& c) {
    const Map map(g.rows, c);
    const CrsMatrix a = makeCrs(map, g);
    Vector x(map), b(map);
    b.putScalar(1.0);
    AztecOO solver(a, x, b);
    solver.setOption(AZ_solver, AZ_cg)
        .setOption(AZ_max_iter, 300)
        .setParam(AZ_tol, 1e-9);
    EXPECT_EQ(solver.iterate(), 0);
    EXPECT_LT(solver.scaledResidual(), 1e-8);
  });
}

TEST(AztecParallel, MatchesSerialSolution) {
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = 12;
  const auto sys = lisi::mesh::assembleGlobal(spec);
  // Serial reference.
  std::vector<double> xRef;
  World::run(1, [&](Comm& c) {
    const Map map(sys.globalN, c);
    const CrsMatrix a = makeCrs(map, sys.localA);
    Vector x(map);
    const Vector b(map, sys.localB);
    AztecOO solver(a, x, b);
    solver.setOption(AZ_solver, AZ_bicgstab).setOption(AZ_precond, AZ_Jacobi);
    ASSERT_EQ(solver.iterate(5000, 1e-12), 0);
    xRef.assign(x.localView().begin(), x.localView().end());
  });
  for (int p : {2, 4, 8}) {
    World::run(p, [&](Comm& c) {
      const Map map(sys.globalN, c);
      const CrsMatrix a = makeCrs(map, sys.localA);
      Vector x(map);
      const Vector b(map, sliceFor(map, sys.localB));
      AztecOO solver(a, x, b);
      solver.setOption(AZ_solver, AZ_bicgstab).setOption(AZ_precond, AZ_Jacobi);
      ASSERT_EQ(solver.iterate(5000, 1e-12), 0);
      for (int i = 0; i < map.numMyElements(); ++i) {
        EXPECT_NEAR(x[i], xRef[static_cast<std::size_t>(map.minMyGlobalIndex() + i)],
                    1e-6);
      }
    });
  }
}

// ---- MultiVector / iterateMulti ---------------------------------------

TEST(AztecMultiVector, FusedDotsMatchPerLaneBitwise) {
  World::run(3, [](Comm& c) {
    const Map map(17, c);
    const int m = map.numMyElements();
    const int nv = 4;
    std::vector<double> vals(static_cast<std::size_t>(m * nv));
    Rng rng(11 + c.rank());
    for (auto& v : vals) v = rng.uniform(-1, 1);
    const MultiVector mv(map, vals, nv);
    std::vector<double> fused(nv, 0.0);
    mv.norms2(std::span<double>(fused));
    for (int k = 0; k < nv; ++k) {
      // Lane access must see the same data, and the fused reduction must
      // be bitwise identical to the standalone per-lane norm.
      EXPECT_EQ(fused[static_cast<std::size_t>(k)], mv(k).norm2());
    }
  });
}

TEST(AztecMulti, IterateMultiMatchesPerLaneBitwise) {
  const CsrMatrix g = lisi::sparse::laplacian2d(9, 9);
  const int n = g.rows;
  const int nv = 3;
  std::vector<double> bGlobal(static_cast<std::size_t>(n * nv));
  Rng rng(5);
  for (auto& v : bGlobal) v = rng.uniform(-1, 1);

  for (const int p : {1, 2, 4}) {
    World::run(p, [&](Comm& c) {
      const Map map(n, c);
      const CrsMatrix a = makeCrs(map, g);
      const int s = map.minMyGlobalIndex();
      const int m = map.numMyElements();
      std::vector<double> bLocal(static_cast<std::size_t>(m * nv));
      for (int k = 0; k < nv; ++k) {
        std::copy(bGlobal.begin() + k * n + s, bGlobal.begin() + k * n + s + m,
                  bLocal.begin() + static_cast<std::ptrdiff_t>(k * m));
      }

      // Per-lane reference: one standalone solver per right-hand side.
      std::vector<double> xRef(static_cast<std::size_t>(m * nv));
      for (int k = 0; k < nv; ++k) {
        Vector x(map);
        const Vector b(map,
                       std::span<const double>(
                           bLocal.data() + static_cast<std::size_t>(k) *
                                               static_cast<std::size_t>(m),
                           static_cast<std::size_t>(m)));
        AztecOO solver(a, x, b);
        solver.setOption(AZ_solver, AZ_gmres)
            .setOption(AZ_precond, AZ_dom_decomp);
        ASSERT_EQ(solver.iterate(500, 1e-10), 0);
        std::copy(x.localView().begin(), x.localView().end(),
                  xRef.begin() + static_cast<std::ptrdiff_t>(k * m));
      }

      // Blocked path: one solver, preconditioner built once, fused scales.
      MultiVector x(map, nv);
      const MultiVector b(map, bLocal, nv);
      AztecOO solver(a, x, b);
      solver.setOption(AZ_solver, AZ_gmres)
          .setOption(AZ_precond, AZ_dom_decomp);
      ASSERT_EQ(solver.iterateMulti(500, 1e-10), 0);
      EXPECT_EQ(solver.terminationReason(), AZ_normal);
      std::vector<double> xBlk(static_cast<std::size_t>(m * nv));
      x.extract(std::span<double>(xBlk));
      for (std::size_t i = 0; i < xBlk.size(); ++i) {
        ASSERT_EQ(xBlk[i], xRef[i]) << "p=" << p << " entry " << i;
      }
    });
  }
}

// GMRES(m) keeps only the vectors it reads: m basis vectors, w and mz.  A
// solve over several restart cycles allocates at most (m + 2) n-vectors
// plus O(m^2) for the Hessenberg and its scratch; a cycle-residual copy, a
// stored v_m or a V y vector per restart would each be an n-vector over.
// One rank, no preconditioner (whose set-up would count), after a warm
// solve, so the operator's halo scratch is already sized.
TEST(AztecGmres, WorkspaceIsTheBasisPlusTwoVectors) {
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = 40;
  const auto sys = lisi::mesh::assembleGlobal(spec);
  World::run(1, [&](Comm& c) {
    const Map map(sys.globalN, c);
    const CrsMatrix a = makeCrs(map, sys.localA);
    const Vector b(map, sliceFor(map, sys.localB));
    const int restart = 10;
    const auto bytes = [&] {
      Vector x(map);
      AztecOO solver(a, x, b);
      solver.setOption(AZ_solver, AZ_gmres).setOption(AZ_kspace, restart);
      g_allocBytes.store(0);
      g_countAllocs.store(true);
      EXPECT_EQ(solver.iterate(4 * restart, 1e-14), 1);  // several cycles
      g_countAllocs.store(false);
      return g_allocBytes.load();
    };
    (void)bytes();  // warm the matrix's halo scratch
    const auto n = static_cast<std::size_t>(sys.globalN);
    const auto m = static_cast<std::size_t>(restart);
    const std::size_t budget =
        (m + 2) * n * sizeof(double) + 64 * (m + 2) * (m + 2);
    EXPECT_LE(bytes(), budget);
    // The slack stays below one more n-vector.
    EXPECT_LT(budget, (m + 3) * n * sizeof(double));
  });
}

// Golden pins: the solution bits and iteration counts of three GMRES solves
// at p = 2, recorded before the kernel stopped storing its cycle residual,
// the unread basis vector v_m and a per-restart V y vector.  Any change to
// an Arnoldi step's arithmetic or its order moves a hash.
//   - GMRES(5) + ILU on the paper's operator, over more than 3 cycles;
//   - a lucky breakdown: the cyclic shift S on e_0 cancels to exactly zero
//     at step 8, inside a GMRES(30) cycle;
//   - iterateMulti with GMRES(8) on S (16 unknowns), lanes that stop at
//     different steps: period 8 at j = m - 1, period 4 at j = 3, e_0 at the
//     iteration cap, and a random lane.
TEST(AztecGmres, GoldenIteratesBitwiseUnchanged) {
  const auto hashOf = [](const Comm& c, std::span<const double> x) {
    return lisi::testref::hashBits(c.allgatherv(x));
  };
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = 12;
  const auto pde = lisi::mesh::assembleGlobal(spec);
  World::run(2, [&](Comm& c) {
    const Map map(pde.globalN, c);
    const CrsMatrix a = makeCrs(map, pde.localA);
    Vector x(map);
    const Vector b(map, sliceFor(map, pde.localB));
    AztecOO solver(a, x, b);
    solver.setOption(AZ_solver, AZ_gmres)
        .setOption(AZ_precond, AZ_dom_decomp)
        .setOption(AZ_kspace, 5);
    EXPECT_EQ(solver.iterate(500, 1e-10), 0);
    EXPECT_GT(solver.numIters(), 3 * 5);
    EXPECT_EQ(solver.numIters(), 35);
    EXPECT_EQ(hashOf(c, x.localView()), 0x50a2e47bdfcf479eULL)
        << std::hex << hashOf(c, x.localView());
  });
  World::run(2, [&](Comm& c) {
    const Map map(8, c);
    const CrsMatrix a = makeCrs(map, lisi::testref::cyclicShift(8));
    std::vector<double> e0(8, 0.0);
    e0[0] = 1.0;
    Vector x(map);
    const Vector b(map, sliceFor(map, e0));
    AztecOO solver(a, x, b);
    solver.setOption(AZ_solver, AZ_gmres).setOption(AZ_kspace, 30);
    EXPECT_EQ(solver.iterate(100, 1e-10), 0);
    EXPECT_EQ(solver.numIters(), 8);
    // Exact arithmetic throughout: x = S^{-1} e_0 = e_7.
    const std::vector<double> all =
        c.allgatherv(std::span<const double>(x.localView()));
    for (std::size_t i = 0; i < all.size(); ++i) {
      EXPECT_EQ(all[i], i == 7 ? 1.0 : 0.0) << "entry " << i;
    }
    EXPECT_EQ(hashOf(c, x.localView()), 0xb90ef03a46722098ULL)
        << std::hex << hashOf(c, x.localView());
  });
  World::run(2, [&](Comm& c) {
    const int n = 16;
    const int nv = 4;
    const Map map(n, c);
    const CrsMatrix a = makeCrs(map, lisi::testref::cyclicShift(n));
    std::vector<double> bGlobal(std::size_t(n) * nv, 0.0);
    for (int i = 0; i < n; i += 8) bGlobal[std::size_t(i)] = 1.0;
    for (int i = 0; i < n; i += 4) bGlobal[std::size_t(n + i)] = 1.0;
    bGlobal[std::size_t(2 * n)] = 1.0;
    Rng rng(23);
    for (int i = 0; i < n; ++i) {
      bGlobal[std::size_t(3 * n + i)] = rng.uniform(-1, 1);
    }
    const auto s = static_cast<std::size_t>(map.minMyGlobalIndex());
    const auto m = static_cast<std::size_t>(map.numMyElements());
    std::vector<double> bLocal(m * nv);
    for (std::size_t k = 0; k < nv; ++k) {
      std::copy_n(bGlobal.begin() + long(k * n + s), m,
                  bLocal.begin() + long(k * m));
    }
    MultiVector x(map, nv);
    const MultiVector b(map, bLocal, nv);
    AztecOO solver(a, x, b);
    solver.setOption(AZ_solver, AZ_gmres).setOption(AZ_kspace, 8);
    EXPECT_EQ(solver.iterateMulti(20, 1e-10), 1);
    EXPECT_EQ(solver.terminationReason(), AZ_maxits);
    EXPECT_EQ(solver.numIters(), 20);
    std::vector<double> xLocal(m * nv);
    x.extract(std::span<double>(xLocal));
    const std::uint64_t pins[] = {0x1ac8ca8909283925ULL, 0x35beec0ae9236425ULL,
                                  0x8421ae126c7ced25ULL, 0x075e8ebe55e94be5ULL};
    for (std::size_t k = 0; k < nv; ++k) {
      const auto lane = std::span<const double>(xLocal).subspan(k * m, m);
      EXPECT_EQ(hashOf(c, lane), pins[k])
          << "lane " << k << std::hex << " hash 0x" << hashOf(c, lane);
    }
  });
}

TEST(AztecMulti, SingleVectorIterateRejectedOnBlockProblem) {
  World::run(2, [](Comm& c) {
    const CsrMatrix g = lisi::sparse::laplacian1d(8);
    const Map map(8, c);
    const CrsMatrix a = makeCrs(map, g);
    MultiVector x(map, 2);
    const MultiVector b(map, 2);
    AztecOO solver(a, x, b);
    EXPECT_THROW((void)solver.iterate(10, 1e-6), lisi::Error);
  });
}

// ---- block-local preconditioners read the operator through its view -----

/// Reference symmetric Gauss-Seidel on an extracted block:
/// z = (D + U)^{-1} D (D + L)^{-1} r, in AZ_sym_GS's order.
std::vector<double> referenceSgs(const CsrMatrix& b,
                                 std::span<const double> r) {
  const auto n = static_cast<std::size_t>(b.rows);
  const auto at = [&b](int k) { return b.values[static_cast<std::size_t>(k)]; };
  const auto col = [&b](int k) {
    return static_cast<std::size_t>(b.colIdx[static_cast<std::size_t>(k)]);
  };
  std::vector<double> d(n), z(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (int k = b.rowPtr[i]; k < b.rowPtr[i + 1]; ++k) {
      if (col(k) == i) d[i] = at(k);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    double acc = r[i];
    for (int k = b.rowPtr[i]; k < b.rowPtr[i + 1] && col(k) < i; ++k) {
      acc -= at(k) * z[col(k)];
    }
    z[i] = acc / d[i];
  }
  for (std::size_t i = 0; i < n; ++i) z[i] *= d[i];
  for (std::size_t i = n; i-- > 0;) {
    double acc = z[i];
    for (int k = b.rowPtr[i]; k < b.rowPtr[i + 1]; ++k) {
      if (col(k) > i) acc -= at(k) * z[col(k)];
    }
    z[i] = acc / d[i];
  }
  return z;
}

TEST(AztecPcView, DomDecompAndSymGsMatchReferenceOnExtractedBlock) {
  // AZ_dom_decomp (ILU(0)) and AZ_sym_GS read the viewed operator through
  // its owned-block view; each application must be bitwise the algorithm
  // on an extracted copy of the diagonal block, also after the owner
  // refreshes the values in place.
  const CsrMatrix g0 = lisi::testref::perturbedPaperOperator(12, 51);
  CsrMatrix g1 = g0;
  Rng rng(52);
  for (double& v : g1.values) v *= rng.uniform(0.8, 1.2);
  std::vector<double> rg(static_cast<std::size_t>(g0.rows));
  for (double& v : rg) v = rng.uniform(-1.0, 1.0);
  for (const int p : {1, 2, 4}) {
    World::run(p, [&](Comm& c) {
      const Map map(g0.rows, c);
      const int s = map.minMyGlobalIndex();
      const int m = map.numMyElements();
      auto owner = std::make_shared<lisi::sparse::DistCsrMatrix>(
          c, g0.rows, g0.cols, s, lisi::testref::rowsOf(g0, s, m));
      const CrsMatrix view(map, owner);
      Vector x(map), z(map);
      const Vector r(map, sliceFor(map, rg));
      AztecOO solver(view, x, r);
      const auto check = [&](const CsrMatrix& g, const char* stage) {
        const CsrMatrix blk = lisi::testref::diagonalBlock(g, s, m);
        const std::span<const double> rl(rg.data() + s,
                                         static_cast<std::size_t>(m));
        solver.setOption(AZ_precond, AZ_dom_decomp);
        solver.precondition(r, z);
        const std::vector<double> ilu = lisi::testref::referenceIlu0(blk, rl);
        const std::vector<double> sgs = referenceSgs(blk, rl);
        for (int i = 0; i < m; ++i) {
          EXPECT_EQ(z[i], ilu[static_cast<std::size_t>(i)])
              << stage << " ilu p=" << p << " row " << i;
        }
        solver.setOption(AZ_precond, AZ_sym_GS);
        solver.precondition(r, z);
        for (int i = 0; i < m; ++i) {
          EXPECT_EQ(z[i], sgs[static_cast<std::size_t>(i)])
              << stage << " sgs p=" << p << " row " << i;
        }
      };
      check(g0, "built");
      owner->updateValues(lisi::testref::rowsOf(g1, s, m));
      check(g1, "refreshed");
    });
  }
}

}  // namespace
}  // namespace aztec
