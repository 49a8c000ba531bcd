// PKSP package tests: API contract (handles, error codes, call order),
// convergence of every method/preconditioner combination, parallel/serial
// agreement, matrix-free shell operators, and options-string parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <thread>

#include "comm/comm.hpp"
#include "mesh/pde5pt.hpp"
#include "pksp/pksp.hpp"
#include "pksp/pksp_internal.hpp"
#include "sparse/dist_csr.hpp"
#include "sparse/generate.hpp"
#include "sparse/ops.hpp"
#include "support/rng.hpp"

// Counts heap allocations, so the allocation-free Arnoldi step can be
// asserted directly.
#include "alloc_count.hpp"
#include "block_reference.hpp"
#include "gmres_golden.hpp"

namespace pksp {
namespace {

using lisi::Rng;
using lisi::comm::Comm;
using lisi::comm::World;
using lisi::sparse::CsrMatrix;
using lisi::sparse::DistCsrMatrix;
using namespace lisi::testref;

/// Run a serial (1-rank) solve of `global` with the given config; returns
/// the relative true-residual and solution.
struct SerialResult {
  double relResidual;
  int iterations;
  PkspConvergedReason reason;
  std::vector<double> x;
};

SerialResult solveSerial(const CsrMatrix& global, const std::vector<double>& b,
                         PkspType type, PkspPcType pc, double rtol = 1e-10,
                         int maxits = 2000) {
  SerialResult result{};
  World::run(1, [&](Comm& c) {
    DistCsrMatrix a = DistCsrMatrix::scatterFromRoot(c, global);
    KSP ksp = nullptr;
    ASSERT_EQ(KSPCreate(c, &ksp), PKSP_SUCCESS);
    ASSERT_EQ(KSPSetOperator(ksp, &a), PKSP_SUCCESS);
    ASSERT_EQ(KSPSetType(ksp, type), PKSP_SUCCESS);
    ASSERT_EQ(KSPSetPCType(ksp, pc), PKSP_SUCCESS);
    ASSERT_EQ(KSPSetTolerances(ksp, rtol, 1e-14, maxits), PKSP_SUCCESS);
    std::vector<double> x(b.size());
    (void)KSPSolve(ksp, std::span<const double>(b), std::span<double>(x));
    double rnorm = 0;
    KSPGetResidualNorm(ksp, &rnorm);
    KSPGetIterationNumber(ksp, &result.iterations);
    KSPGetConvergedReason(ksp, &result.reason);
    result.relResidual =
        rnorm / lisi::sparse::norm2(std::span<const double>(b));
    result.x = x;
    KSPDestroy(&ksp);
    EXPECT_EQ(ksp, nullptr);
  });
  return result;
}

TEST(PkspApi, NullHandleRejected) {
  EXPECT_EQ(KSPSetType(nullptr, PKSP_CG), PKSP_ERR_ARG);
  EXPECT_EQ(KSPSetPCType(nullptr, PKSP_PC_NONE), PKSP_ERR_ARG);
  EXPECT_EQ(KSPSetTolerances(nullptr, 1e-6, 1e-12, 10), PKSP_ERR_ARG);
  int it = 0;
  EXPECT_EQ(KSPGetIterationNumber(nullptr, &it), PKSP_ERR_ARG);
}

TEST(PkspApi, SolveBeforeOperatorIsOrderError) {
  World::run(1, [](Comm& c) {
    KSP ksp = nullptr;
    ASSERT_EQ(KSPCreate(c, &ksp), PKSP_SUCCESS);
    std::vector<double> b(4, 1.0), x(4);
    EXPECT_EQ(KSPSolve(ksp, std::span<const double>(b), std::span<double>(x)),
              PKSP_ERR_ORDER);
    KSPDestroy(&ksp);
  });
}

TEST(PkspApi, SizeMismatchRejected) {
  World::run(1, [](Comm& c) {
    const CsrMatrix g = lisi::sparse::laplacian1d(6);
    DistCsrMatrix a = DistCsrMatrix::scatterFromRoot(c, g);
    KSP ksp = nullptr;
    KSPCreate(c, &ksp);
    KSPSetOperator(ksp, &a);
    std::vector<double> b(5, 1.0), x(6);
    EXPECT_EQ(KSPSolve(ksp, std::span<const double>(b), std::span<double>(x)),
              PKSP_ERR_ARG);
    KSPDestroy(&ksp);
  });
}

TEST(PkspApi, RectangularOperatorRejected) {
  World::run(1, [](Comm& c) {
    Rng rng(1);
    const CsrMatrix g = lisi::sparse::randomCsr(4, 6, 2, rng);
    CsrMatrix local = g;
    DistCsrMatrix a(c, 4, 6, 0, local);
    KSP ksp = nullptr;
    KSPCreate(c, &ksp);
    EXPECT_EQ(KSPSetOperator(ksp, &a), PKSP_ERR_ARG);
    KSPDestroy(&ksp);
  });
}

TEST(PkspApi, DestroyNullsAndToleratesNull) {
  KSP ksp = nullptr;
  EXPECT_EQ(KSPDestroy(&ksp), PKSP_SUCCESS);
  EXPECT_EQ(KSPDestroy(nullptr), PKSP_ERR_ARG);
}

TEST(PkspApi, InvalidSettingsRejected) {
  World::run(1, [](Comm& c) {
    KSP ksp = nullptr;
    KSPCreate(c, &ksp);
    EXPECT_EQ(KSPSetRestart(ksp, 0), PKSP_ERR_ARG);
    EXPECT_EQ(KSPSetSorOptions(ksp, 2.5, 1), PKSP_ERR_ARG);
    EXPECT_EQ(KSPSetSorOptions(ksp, 1.0, 0), PKSP_ERR_ARG);
    KSPDestroy(&ksp);
  });
}

TEST(PkspOptions, StringParsingConfigures) {
  World::run(1, [](Comm& c) {
    KSP ksp = nullptr;
    KSPCreate(c, &ksp);
    EXPECT_EQ(KSPSetFromString(ksp,
                               "-ksp_type bicgstab -pc_type jacobi "
                               "-ksp_rtol 1e-9 -ksp_max_it 123"),
              PKSP_SUCCESS);
    std::string desc;
    KSPGetDescription(ksp, &desc);
    EXPECT_NE(desc.find("bicgstab"), std::string::npos);
    EXPECT_NE(desc.find("jacobi"), std::string::npos);
    EXPECT_NE(desc.find("1e-09"), std::string::npos);
    EXPECT_NE(desc.find("123"), std::string::npos);
    KSPDestroy(&ksp);
  });
}

TEST(PkspOptions, UnknownKeyReported) {
  World::run(1, [](Comm& c) {
    KSP ksp = nullptr;
    KSPCreate(c, &ksp);
    EXPECT_EQ(KSPSetFromString(ksp, "-ksp_bogus_flag on"),
              PKSP_ERR_UNSUPPORTED);
    EXPECT_EQ(KSPSetFromString(ksp, "-ksp_pipeline on"),
              PKSP_ERR_UNSUPPORTED);
    EXPECT_EQ(KSPSetFromString(ksp, "-ksp_rtol notanumber"), PKSP_ERR_ARG);
    KSPDestroy(&ksp);
  });
}

// ---- convergence matrix: method x preconditioner ----------------------

struct Combo {
  PkspType type;
  PkspPcType pc;
};

class PkspConvergence : public ::testing::TestWithParam<Combo> {};

TEST_P(PkspConvergence, SpdSystemSolves) {
  const Combo combo = GetParam();
  const CsrMatrix g = lisi::sparse::laplacian2d(12, 12);
  std::vector<double> xTrue(static_cast<std::size_t>(g.rows));
  Rng rng(42);
  for (auto& v : xTrue) v = rng.uniform(-1, 1);
  std::vector<double> b(xTrue.size());
  lisi::sparse::spmv(g, std::span<const double>(xTrue), std::span<double>(b));
  const auto res = solveSerial(g, b, combo.type, combo.pc, 1e-10, 5000);
  EXPECT_GT(res.reason, 0) << "reason=" << res.reason;
  EXPECT_LT(res.relResidual, 1e-8);
  // Solution itself must be accurate (Laplacian is well conditioned here).
  for (std::size_t i = 0; i < xTrue.size(); ++i) {
    EXPECT_NEAR(res.x[i], xTrue[i], 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndPcs, PkspConvergence,
    ::testing::Values(Combo{PKSP_CG, PKSP_PC_NONE},
                      Combo{PKSP_CG, PKSP_PC_JACOBI},
                      Combo{PKSP_CG, PKSP_PC_ILU0},
                      Combo{PKSP_GMRES, PKSP_PC_NONE},
                      Combo{PKSP_GMRES, PKSP_PC_JACOBI},
                      Combo{PKSP_GMRES, PKSP_PC_SOR},
                      Combo{PKSP_GMRES, PKSP_PC_ILU0},
                      Combo{PKSP_GMRES, PKSP_PC_BJACOBI},
                      Combo{PKSP_BICGSTAB, PKSP_PC_NONE},
                      Combo{PKSP_BICGSTAB, PKSP_PC_JACOBI},
                      Combo{PKSP_BICGSTAB, PKSP_PC_ILU0},
                      Combo{PKSP_RICHARDSON, PKSP_PC_ILU0},
                      Combo{PKSP_RICHARDSON, PKSP_PC_SOR}));

TEST(PkspNonsymmetric, GmresSolvesConvectionDiffusion) {
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = 16;
  const auto sys = lisi::mesh::assembleGlobal(spec);
  const auto res =
      solveSerial(sys.localA, sys.localB, PKSP_GMRES, PKSP_PC_ILU0, 1e-10);
  EXPECT_GT(res.reason, 0);
  EXPECT_LT(res.relResidual, 1e-8);
}

TEST(PkspNonsymmetric, BicgstabSolvesConvectionDiffusion) {
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = 16;
  const auto sys = lisi::mesh::assembleGlobal(spec);
  const auto res =
      solveSerial(sys.localA, sys.localB, PKSP_BICGSTAB, PKSP_PC_ILU0, 1e-10);
  EXPECT_GT(res.reason, 0);
  EXPECT_LT(res.relResidual, 1e-8);
}

TEST(PkspDiagnostics, MaxItsReportedAsDivergence) {
  const CsrMatrix g = lisi::sparse::laplacian2d(20, 20);
  std::vector<double> b(static_cast<std::size_t>(g.rows), 1.0);
  const auto res = solveSerial(g, b, PKSP_CG, PKSP_PC_NONE, 1e-14, 3);
  EXPECT_EQ(res.reason, PKSP_DIVERGED_ITS);
  EXPECT_EQ(res.iterations, 3);
}

TEST(PkspDiagnostics, ZeroRhsConvergesImmediately) {
  const CsrMatrix g = lisi::sparse::laplacian1d(30);
  std::vector<double> b(30, 0.0);
  const auto res = solveSerial(g, b, PKSP_GMRES, PKSP_PC_NONE);
  EXPECT_GT(res.reason, 0);
  EXPECT_EQ(res.iterations, 0);
  for (double v : res.x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(PkspDiagnostics, InitialGuessNonzeroIsUsed) {
  World::run(1, [](Comm& c) {
    const CsrMatrix g = lisi::sparse::laplacian1d(40);
    DistCsrMatrix a = DistCsrMatrix::scatterFromRoot(c, g);
    std::vector<double> xTrue(40, 1.0);
    std::vector<double> b(40);
    lisi::sparse::spmv(g, std::span<const double>(xTrue), std::span<double>(b));
    KSP ksp = nullptr;
    KSPCreate(c, &ksp);
    KSPSetOperator(ksp, &a);
    KSPSetType(ksp, PKSP_CG);
    KSPSetInitialGuessNonzero(ksp, true);
    // Exact solution as initial guess: must converge in zero iterations.
    std::vector<double> x = xTrue;
    EXPECT_EQ(KSPSolve(ksp, std::span<const double>(b), std::span<double>(x)),
              PKSP_SUCCESS);
    int its = -1;
    KSPGetIterationNumber(ksp, &its);
    EXPECT_EQ(its, 0);
    KSPDestroy(&ksp);
  });
}

TEST(PkspPc, ShellOperatorWithMatrixPcUnsupported) {
  World::run(1, [](Comm& c) {
    KSP ksp = nullptr;
    KSPCreate(c, &ksp);
    auto matvec = [](void*, const double* x, double* y, int n) {
      for (int i = 0; i < n; ++i) y[i] = 2.0 * x[i];
    };
    KSPSetOperatorShell(ksp, matvec, nullptr, 8);
    KSPSetPCType(ksp, PKSP_PC_ILU0);
    std::vector<double> b(8, 2.0), x(8);
    EXPECT_EQ(KSPSolve(ksp, std::span<const double>(b), std::span<double>(x)),
              PKSP_ERR_UNSUPPORTED);
    KSPDestroy(&ksp);
  });
}

// ILU(0)'s lane-interleaved triangular solves reproduce apply() on every
// lane bitwise, for 1-5 lanes (a full group of four and each remainder)
// picked out of a wider block, in both precisions.
TEST(PkspPc, Ilu0ApplyLanesMatchesApplyBitwise) {
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = 14;
  const CsrMatrix g = lisi::mesh::assembleGlobal(spec).localA;
  for (const int p : {1, 2}) {
    World::run(p, [&](Comm& c) {
      DistCsrMatrix a = DistCsrMatrix::scatterFromRoot(c, g);
      const auto m = static_cast<std::size_t>(a.localRows());
      const std::size_t width = 7;
      std::vector<double> r(m * width);
      Rng rng(99 + static_cast<std::uint64_t>(c.rank()));
      for (double& v : r) v = rng.uniform(-1, 1);
      const auto pc = detail::makeLocalIlu0(a);
      for (const bool low : {false, true}) {
        pc->setLowPrecision(low);
        for (std::size_t count = 1; count <= 5; ++count) {
          std::vector<std::size_t> lanes;
          for (std::size_t q = 0; q < count; ++q) {
            lanes.push_back(width - 1 - q);
          }
          std::vector<double> z(m * width, 0.0), zRef(m * width, 0.0);
          pc->applyLanes(r, z, lanes, m);
          for (const std::size_t v : lanes) {
            pc->apply(std::span<const double>(r).subspan(v * m, m),
                      std::span<double>(zRef).subspan(v * m, m));
          }
          for (std::size_t i = 0; i < z.size(); ++i) {
            ASSERT_EQ(z[i], zRef[i]) << count << " lanes, entry " << i
                                     << (low ? " (float32)" : "");
          }
        }
      }
    });
  }
}

TEST(PkspShell, MatrixFreeDiagonalSolve) {
  World::run(1, [](Comm& c) {
    KSP ksp = nullptr;
    KSPCreate(c, &ksp);
    auto matvec = [](void*, const double* x, double* y, int n) {
      for (int i = 0; i < n; ++i) y[i] = (4.0 + i % 3) * x[i];
    };
    KSPSetOperatorShell(ksp, matvec, nullptr, 10);
    KSPSetType(ksp, PKSP_CG);
    std::vector<double> b(10, 1.0), x(10);
    EXPECT_EQ(KSPSolve(ksp, std::span<const double>(b), std::span<double>(x)),
              PKSP_SUCCESS);
    for (int i = 0; i < 10; ++i) {
      EXPECT_NEAR(x[static_cast<std::size_t>(i)], 1.0 / (4.0 + i % 3), 1e-8);
    }
    KSPDestroy(&ksp);
  });
}

TEST(PkspShell, MatrixFreeMatchesAssembledOperator) {
  // Shell wrapping a DistCsrMatrix must reproduce the assembled solve.
  for (int p : {1, 2, 4}) {
    lisi::mesh::Pde5ptSpec spec;
    spec.gridN = 10;
    const auto serial = lisi::mesh::assembleGlobal(spec);
    const auto ref = solveSerial(serial.localA, serial.localB, PKSP_GMRES,
                                 PKSP_PC_NONE, 1e-10);
    ASSERT_GT(ref.reason, 0);
    World::run(p, [&](Comm& c) {
      const auto local = lisi::mesh::assembleLocal(spec, c.rank(), c.size());
      DistCsrMatrix a(c, local.globalN, local.globalN, local.startRow,
                      local.localA);
      auto matvec = [](void* ctx, const double* x, double* y, int n) {
        const auto* mat = static_cast<const DistCsrMatrix*>(ctx);
        mat->spmv(std::span<const double>(x, static_cast<std::size_t>(n)),
                  std::span<double>(y, static_cast<std::size_t>(n)));
      };
      KSP ksp = nullptr;
      KSPCreate(c, &ksp);
      KSPSetOperatorShell(ksp, matvec, &a, a.localRows());
      KSPSetType(ksp, PKSP_GMRES);
      KSPSetTolerances(ksp, 1e-10, 1e-14, 2000);
      std::vector<double> x(static_cast<std::size_t>(a.localRows()));
      std::span<const double> bLoc(local.localB);
      EXPECT_EQ(KSPSolve(ksp, bLoc, std::span<double>(x)), PKSP_SUCCESS);
      for (int i = 0; i < a.localRows(); ++i) {
        EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                    ref.x[static_cast<std::size_t>(a.startRow() + i)], 1e-6);
      }
      KSPDestroy(&ksp);
    });
  }
}

class PkspParallel : public ::testing::TestWithParam<int> {};

TEST_P(PkspParallel, ParallelSolutionMatchesSerial) {
  const int p = GetParam();
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = 14;
  const auto serial = lisi::mesh::assembleGlobal(spec);
  const auto ref = solveSerial(serial.localA, serial.localB, PKSP_BICGSTAB,
                               PKSP_PC_JACOBI, 1e-12);
  ASSERT_GT(ref.reason, 0);

  World::run(p, [&](Comm& c) {
    const auto local = lisi::mesh::assembleLocal(spec, c.rank(), c.size());
    DistCsrMatrix a(c, local.globalN, local.globalN, local.startRow,
                    local.localA);
    KSP ksp = nullptr;
    KSPCreate(c, &ksp);
    KSPSetOperator(ksp, &a);
    KSPSetType(ksp, PKSP_BICGSTAB);
    KSPSetPCType(ksp, PKSP_PC_JACOBI);
    KSPSetTolerances(ksp, 1e-12, 1e-14, 5000);
    std::vector<double> x(static_cast<std::size_t>(a.localRows()));
    EXPECT_EQ(KSPSolve(ksp, std::span<const double>(local.localB),
                       std::span<double>(x)),
              PKSP_SUCCESS);
    for (int i = 0; i < a.localRows(); ++i) {
      EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                  ref.x[static_cast<std::size_t>(a.startRow() + i)], 1e-6);
    }
    KSPDestroy(&ksp);
  });
}

TEST_P(PkspParallel, IluBlockJacobiConvergesInParallel) {
  const int p = GetParam();
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = 14;
  World::run(p, [&](Comm& c) {
    const auto local = lisi::mesh::assembleLocal(spec, c.rank(), c.size());
    DistCsrMatrix a(c, local.globalN, local.globalN, local.startRow,
                    local.localA);
    KSP ksp = nullptr;
    KSPCreate(c, &ksp);
    KSPSetOperator(ksp, &a);
    KSPSetType(ksp, PKSP_GMRES);
    KSPSetPCType(ksp, PKSP_PC_ILU0);
    KSPSetTolerances(ksp, 1e-10, 1e-14, 2000);
    std::vector<double> x(static_cast<std::size_t>(a.localRows()));
    EXPECT_EQ(KSPSolve(ksp, std::span<const double>(local.localB),
                       std::span<double>(x)),
              PKSP_SUCCESS);
    double rnorm = 0;
    KSPGetResidualNorm(ksp, &rnorm);
    const double bnorm =
        lisi::sparse::distNorm2(c, std::span<const double>(local.localB));
    EXPECT_LT(rnorm / bnorm, 1e-8);
    KSPDestroy(&ksp);
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, PkspParallel, ::testing::Values(1, 2, 3, 4, 8));

// ---- classic CG/BiCGStab iterates across rank counts --------------------
// These loops are the only CG and BiCGStab paths (there is no pipelined
// variant); a p-rank solve with the pointwise Jacobi preconditioner must
// reproduce the one-rank iterate up to reduction-order rounding.

/// Solve a globally replicated system on `p` ranks with the given method and
/// preconditioner; gathers the full solution for comparison.
struct DistRun {
  std::vector<double> x;          // full solution (assembled from all ranks)
  std::vector<int> historyLen;    // per-rank residual-history length
  std::vector<PkspConvergedReason> reason;
};

DistRun solveDist(const CsrMatrix& global, const std::vector<double>& b, int p,
                  PkspType type, PkspPcType pc, double rtol) {
  DistRun run;
  run.x.assign(static_cast<std::size_t>(global.rows), 0.0);
  run.historyLen.assign(static_cast<std::size_t>(p), 0);
  run.reason.assign(static_cast<std::size_t>(p), PKSP_ITERATING);
  std::mutex mu;
  World::run(p, [&](Comm& c) {
    DistCsrMatrix a = DistCsrMatrix::scatterFromRoot(c, global);
    const std::size_t n = static_cast<std::size_t>(a.localRows());
    const std::size_t start = static_cast<std::size_t>(a.startRow());
    std::vector<double> bLocal(b.begin() + static_cast<std::ptrdiff_t>(start),
                               b.begin() +
                                   static_cast<std::ptrdiff_t>(start + n));
    KSP ksp = nullptr;
    KSPCreate(c, &ksp);
    KSPSetOperator(ksp, &a);
    KSPSetType(ksp, type);
    KSPSetPCType(ksp, pc);
    KSPSetTolerances(ksp, rtol, 1e-14, 5000);
    std::vector<double> x(n);
    EXPECT_EQ(KSPSolve(ksp, std::span<const double>(bLocal),
                       std::span<double>(x)),
              PKSP_SUCCESS);
    const double* hist = nullptr;
    int histLen = 0;
    KSPGetResidualHistory(ksp, &hist, &histLen);
    PkspConvergedReason reason = PKSP_ITERATING;
    KSPGetConvergedReason(ksp, &reason);
    {
      std::lock_guard<std::mutex> lock(mu);
      for (std::size_t i = 0; i < n; ++i) run.x[start + i] = x[i];
      run.historyLen[static_cast<std::size_t>(c.rank())] = histLen;
      run.reason[static_cast<std::size_t>(c.rank())] = reason;
    }
    KSPDestroy(&ksp);
  });
  return run;
}

/// SPD 5-point Poisson system for the CG tests (the paper PDE's -3 u_x
/// convection term makes it nonsymmetric, so CG does not apply there).
CsrMatrix spdSystem(std::vector<double>& b) {
  const CsrMatrix g = lisi::sparse::laplacian2d(14, 14);
  std::vector<double> xTrue(static_cast<std::size_t>(g.rows));
  Rng rng(1234);
  for (auto& v : xTrue) v = rng.uniform(-1, 1);
  b.assign(xTrue.size(), 0.0);
  lisi::sparse::spmv(g, std::span<const double>(xTrue), std::span<double>(b));
  return g;
}

/// Nonsymmetric convection-diffusion system (the paper's PDE) for BiCGStab.
CsrMatrix paperSystem(std::vector<double>& b) {
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = 14;
  const auto sys = lisi::mesh::assembleGlobal(spec);
  b = sys.localB;
  return sys.localA;
}

class PkspPipelined : public ::testing::TestWithParam<int> {};

TEST_P(PkspPipelined, CgMatchesClassicIterate) {
  const int p = GetParam();
  std::vector<double> b;
  const CsrMatrix g = spdSystem(b);
  const auto serial = solveDist(g, b, 1, PKSP_CG, PKSP_PC_JACOBI, 1e-12);
  const auto dist = solveDist(g, b, p, PKSP_CG, PKSP_PC_JACOBI, 1e-12);
  ASSERT_GT(serial.reason[0], 0);
  for (int r = 0; r < p; ++r) {
    EXPECT_GT(dist.reason[static_cast<std::size_t>(r)], 0);
    // Same convergence-history length up to one iteration of slack (the
    // reductions sum in a different order on p ranks).
    EXPECT_NEAR(serial.historyLen[0],
                dist.historyLen[static_cast<std::size_t>(r)], 1);
  }
  ASSERT_EQ(serial.x.size(), dist.x.size());
  for (std::size_t i = 0; i < serial.x.size(); ++i) {
    EXPECT_NEAR(serial.x[i], dist.x[i], 1e-10) << "entry " << i;
  }
}

TEST_P(PkspPipelined, BicgstabMatchesClassicIterate) {
  const int p = GetParam();
  std::vector<double> b;
  const CsrMatrix g = paperSystem(b);
  const auto serial = solveDist(g, b, 1, PKSP_BICGSTAB, PKSP_PC_JACOBI, 1e-12);
  const auto dist = solveDist(g, b, p, PKSP_BICGSTAB, PKSP_PC_JACOBI, 1e-12);
  ASSERT_GT(serial.reason[0], 0);
  for (int r = 0; r < p; ++r) {
    EXPECT_GT(dist.reason[static_cast<std::size_t>(r)], 0);
  }
  ASSERT_EQ(serial.x.size(), dist.x.size());
  for (std::size_t i = 0; i < serial.x.size(); ++i) {
    EXPECT_NEAR(serial.x[i], dist.x[i], 1e-10) << "entry " << i;
  }
}

TEST_P(PkspPipelined, AutoModeConvergesWithIlu) {
  // CG with block-Jacobi ILU(0) converges on every rank count (the former
  // automatic mode always resolves to this classic loop now).
  const int p = GetParam();
  std::vector<double> b;
  const CsrMatrix g = spdSystem(b);
  const auto run = solveDist(g, b, p, PKSP_CG, PKSP_PC_ILU0, 1e-10);
  for (int r = 0; r < p; ++r) {
    EXPECT_GT(run.reason[static_cast<std::size_t>(r)], 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, PkspPipelined, ::testing::Values(1, 3, 4, 8));

TEST(PkspPipeline, DescriptionOmitsMarkerForGmres) {
  // The removed `-ksp_pipeline` key is rejected and leaves the solver's
  // configuration, and so its description, as it was.
  World::run(1, [](Comm& c) {
    KSP ksp = nullptr;
    ASSERT_EQ(KSPCreate(c, &ksp), PKSP_SUCCESS);
    KSPSetType(ksp, PKSP_GMRES);
    std::string before;
    KSPGetDescription(ksp, &before);
    EXPECT_EQ(KSPSetFromString(ksp, "-ksp_pipeline on"), PKSP_ERR_UNSUPPORTED);
    std::string desc;
    KSPGetDescription(ksp, &desc);
    EXPECT_EQ(desc, before);
    EXPECT_EQ(desc.find("pipelined"), std::string::npos) << desc;
    KSPDestroy(&ksp);
  });
}

TEST(PkspReuse, MultipleSolvesReuseFactorization) {
  // Use case (c) of §5.2: same A, several right-hand sides.
  World::run(2, [](Comm& c) {
    lisi::mesh::Pde5ptSpec spec;
    spec.gridN = 10;
    const auto local = lisi::mesh::assembleLocal(spec, c.rank(), c.size());
    DistCsrMatrix a(c, local.globalN, local.globalN, local.startRow,
                    local.localA);
    KSP ksp = nullptr;
    KSPCreate(c, &ksp);
    KSPSetOperator(ksp, &a);
    KSPSetType(ksp, PKSP_GMRES);
    KSPSetPCType(ksp, PKSP_PC_ILU0);
    KSPSetTolerances(ksp, 1e-10, 1e-14, 1000);
    for (int rhs = 0; rhs < 3; ++rhs) {
      std::vector<double> b(local.localB);
      for (auto& v : b) v *= (rhs + 1);
      std::vector<double> x(b.size());
      EXPECT_EQ(KSPSolve(ksp, std::span<const double>(b), std::span<double>(x)),
                PKSP_SUCCESS);
      double rnorm = 0;
      KSPGetResidualNorm(ksp, &rnorm);
      const double bnorm = lisi::sparse::distNorm2(c, std::span<const double>(b));
      EXPECT_LT(rnorm / bnorm, 1e-8) << "rhs " << rhs;
    }
    KSPDestroy(&ksp);
  });
}

TEST(PkspMonitor, CallbackSeesMonotoneCgResiduals) {
  World::run(1, [](Comm& c) {
    const CsrMatrix g = lisi::sparse::laplacian2d(10, 10);
    DistCsrMatrix a = DistCsrMatrix::scatterFromRoot(c, g);
    KSP ksp = nullptr;
    KSPCreate(c, &ksp);
    KSPSetOperator(ksp, &a);
    KSPSetType(ksp, PKSP_CG);
    KSPSetTolerances(ksp, 1e-10, 1e-14, 1000);
    std::vector<double> seen;
    auto monitor = [](void* ctx, int it, double rnorm) {
      auto* v = static_cast<std::vector<double>*>(ctx);
      EXPECT_EQ(static_cast<int>(v->size()), it);
      v->push_back(rnorm);
    };
    KSPSetMonitor(ksp, monitor, &seen);
    std::vector<double> b(static_cast<std::size_t>(g.rows), 1.0), x(b.size());
    ASSERT_EQ(KSPSolve(ksp, std::span<const double>(b), std::span<double>(x)),
              PKSP_SUCCESS);
    int its = 0;
    KSPGetIterationNumber(ksp, &its);
    ASSERT_EQ(static_cast<int>(seen.size()), its + 1);  // includes iter 0
    EXPECT_LT(seen.back(), 1e-10 * seen.front() + 1e-14);
    KSPDestroy(&ksp);
  });
}

TEST(PkspMonitor, HistoryRecordedWithoutExplicitMonitor) {
  World::run(2, [](Comm& c) {
    lisi::mesh::Pde5ptSpec spec;
    spec.gridN = 8;
    const auto local = lisi::mesh::assembleLocal(spec, c.rank(), c.size());
    DistCsrMatrix a(c, local.globalN, local.globalN, local.startRow,
                    local.localA);
    KSP ksp = nullptr;
    KSPCreate(c, &ksp);
    KSPSetOperator(ksp, &a);
    KSPSetType(ksp, PKSP_GMRES);
    KSPSetTolerances(ksp, 1e-8, 1e-14, 1000);
    std::vector<double> x(static_cast<std::size_t>(a.localRows()));
    ASSERT_EQ(KSPSolve(ksp, std::span<const double>(local.localB),
                       std::span<double>(x)),
              PKSP_SUCCESS);
    const double* history = nullptr;
    int count = 0;
    ASSERT_EQ(KSPGetResidualHistory(ksp, &history, &count), PKSP_SUCCESS);
    int its = 0;
    KSPGetIterationNumber(ksp, &its);
    ASSERT_EQ(count, its + 1);
    // GMRES's tracked residual is non-increasing.
    for (int i = 1; i < count; ++i) {
      EXPECT_LE(history[i], history[i - 1] * (1.0 + 1e-12));
    }
    // History resets on the next solve.
    ASSERT_EQ(KSPSolve(ksp, std::span<const double>(local.localB),
                       std::span<double>(x)),
              PKSP_SUCCESS);
    int count2 = 0;
    KSPGetResidualHistory(ksp, &history, &count2);
    EXPECT_EQ(count2, count);
    KSPDestroy(&ksp);
  });
}

TEST(PkspGmres, RestartAffectsButStillConverges) {
  const CsrMatrix g = lisi::sparse::laplacian2d(15, 15);
  std::vector<double> b(static_cast<std::size_t>(g.rows), 1.0);
  World::run(1, [&](Comm& c) {
    DistCsrMatrix a = DistCsrMatrix::scatterFromRoot(c, g);
    for (int restart : {5, 20, 100}) {
      KSP ksp = nullptr;
      KSPCreate(c, &ksp);
      KSPSetOperator(ksp, &a);
      KSPSetType(ksp, PKSP_GMRES);
      KSPSetRestart(ksp, restart);
      KSPSetTolerances(ksp, 1e-10, 1e-14, 5000);
      std::vector<double> x(b.size());
      EXPECT_EQ(KSPSolve(ksp, std::span<const double>(b), std::span<double>(x)),
                PKSP_SUCCESS)
          << "restart " << restart;
      double rnorm = 0;
      KSPGetResidualNorm(ksp, &rnorm);
      EXPECT_LT(rnorm, 1e-7);
      KSPDestroy(&ksp);
    }
  });
}

// An operator with three tight eigenvalue clusters: after three Arnoldi
// steps the Krylov space holds all but a 1e-6 sliver of every new vector,
// so the projections cancel severely and the second CGS pass must run.
// The solve still meets rtol on the true residual, at every rank count.
TEST(PkspGmres, ReorthogonalizationKeepsTrueResidualAtRtol) {
  const int n = 60;
  CsrMatrix g;
  g.rows = n;
  g.cols = n;
  g.rowPtr.assign(static_cast<std::size_t>(n) + 1, 0);
  Rng rng(11);
  for (int i = 0; i < n; ++i) {
    g.rowPtr[static_cast<std::size_t>(i) + 1] = i + 1;
    g.colIdx.push_back(i);
    g.values.push_back(std::ldexp(1.0, i % 3) *
                       (1.0 + 1e-6 * rng.uniform(-1, 1)));
  }
  std::vector<double> bGlobal(static_cast<std::size_t>(n));
  for (double& v : bGlobal) v = rng.uniform(-1, 1);
  const double rtol = 1e-10;
  for (const int p : {1, 3}) {
    World::run(p, [&](Comm& c) {
      DistCsrMatrix a = DistCsrMatrix::scatterFromRoot(c, g);
      const auto s = static_cast<std::size_t>(a.startRow());
      const auto m = static_cast<std::size_t>(a.localRows());
      const std::vector<double> b(bGlobal.begin() + long(s),
                                  bGlobal.begin() + long(s + m));
      std::vector<double> x(m, 0.0), r(m);
      const detail::IdentityPc pc;
      const detail::MatrixOperator op(&a);
      detail::Tolerances tol;
      tol.rtol = rtol;
      tol.atol = 0.0;
      tol.maxits = 200;
      const detail::SolveReport rep =
          detail::runGmres(c, op, pc, b, x, tol, 30);
      EXPECT_EQ(rep.reason, PKSP_CONVERGED_RTOL) << "p=" << p;
      EXPECT_GT(rep.reorthogonalizations, 0) << "p=" << p;
      a.spmv(x, std::span<double>(r));
      for (std::size_t i = 0; i < m; ++i) r[i] = b[i] - r[i];
      EXPECT_LE(lisi::sparse::distNorm2(c, std::span<const double>(r)),
                rtol * lisi::sparse::distNorm2(c, b))
          << "p=" << p;
    });
  }
}

// A warm Arnoldi step allocates nothing: solves that differ only in their
// iteration budget, all inside one restart cycle, make the same number of
// allocations.  One rank, where the reductions and the halo exchange are
// themselves allocation-free.
TEST(PkspGmres, WarmArnoldiStepAllocatesNothing) {
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = 20;
  const auto sys = lisi::mesh::assembleGlobal(spec);
  World::run(1, [&](Comm& c) {
    DistCsrMatrix a = DistCsrMatrix::scatterFromRoot(c, sys.localA);
    const auto pc = detail::makeLocalIlu0(a);
    const detail::MatrixOperator op(&a);
    const auto n = sys.localB.size();
    const auto allocations = [&](int maxits, int nRhs) {
      std::vector<double> b(n * static_cast<std::size_t>(nRhs));
      for (std::size_t i = 0; i < b.size(); ++i) {
        b[i] = sys.localB[i % n] * (1.0 + 0.1 * static_cast<double>(i / n));
      }
      std::vector<double> x(b.size(), 0.0);
      detail::Tolerances tol;
      tol.rtol = 1e-12;
      tol.maxits = maxits;
      g_allocCalls.store(0);
      g_countAllocs.store(true);
      if (nRhs == 1) {
        (void)detail::runGmres(c, op, *pc, b, x, tol, 30);
      } else {
        (void)detail::runBlockedGmres(c, a, *pc, b, x, nRhs, tol, 30);
      }
      g_countAllocs.store(false);
      return g_allocCalls.load();
    };
    for (const int nRhs : {1, 3}) {
      (void)allocations(2, nRhs);  // warm the matrix's halo scratch
      EXPECT_EQ(allocations(2, nRhs), allocations(25, nRhs))
          << nRhs << " lanes";
    }
  });
}

// GMRES(m) keeps per lane only the vectors it reads: m basis vectors, the
// operator's output w and the preconditioner's output wz.  A solve over
// several restart cycles, single and 3-lane blocked, allocates at most
// (m + 2) n-vectors per lane plus O(m^2) for the Hessenberg and its
// scratch; a cycle-residual copy or a stored v_m would be one n-vector
// over.  One rank, after a warm solve, so the operator's halo scratch is
// already sized.
TEST(PkspGmres, WorkspaceIsTheBasisPlusTwoVectors) {
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = 40;
  const auto sys = lisi::mesh::assembleGlobal(spec);
  World::run(1, [&](Comm& c) {
    DistCsrMatrix a = DistCsrMatrix::scatterFromRoot(c, sys.localA);
    const auto pc = detail::makeLocalIlu0(a);
    const detail::MatrixOperator op(&a);
    const std::size_t n = sys.localB.size();
    const int restart = 10;
    const auto m = static_cast<std::size_t>(restart);
    const auto bytes = [&](int nRhs) {
      const auto nv = static_cast<std::size_t>(nRhs);
      std::vector<double> b(n * nv);
      for (std::size_t i = 0; i < b.size(); ++i) {
        b[i] = sys.localB[i % n] * (1.0 + 0.1 * static_cast<double>(i / n));
      }
      std::vector<double> x(b.size(), 0.0);
      detail::Tolerances tol;
      tol.rtol = 1e-10;
      tol.maxits = 4 * restart;  // several cycles, none converged
      g_allocBytes.store(0);
      g_countAllocs.store(true);
      if (nRhs == 1) {
        (void)detail::runGmres(c, op, *pc, b, x, tol, restart);
      } else {
        (void)detail::runBlockedGmres(c, a, *pc, b, x, nRhs, tol, restart);
      }
      g_countAllocs.store(false);
      return g_allocBytes.load();
    };
    for (const int nRhs : {1, 3}) {
      (void)bytes(nRhs);  // warm the matrix's halo scratch
      const auto nv = static_cast<std::size_t>(nRhs);
      const std::size_t budget =
          nv * ((m + 2) * n * sizeof(double) + 64 * (m + 2) * (m + 2));
      EXPECT_LE(bytes(nRhs), budget) << nRhs << " lanes";
      // The slack stays below one more n-vector per lane.
      EXPECT_LT(budget, nv * (m + 3) * n * sizeof(double));
    }
  });
}

// Golden pins: the solution bits and iteration counts of three GMRES solves
// at p = 2, recorded before the kernel dropped its cycle-residual vector and
// the unread basis vector v_m.  Any change to an Arnoldi step's arithmetic
// or its order moves a hash.
//   - GMRES(5) + ILU(0) on the paper's operator, over more than 3 cycles;
//   - a lucky breakdown: the cyclic shift S on e_0 cancels to exactly zero
//     at step 8, inside a GMRES(30) cycle;
//   - a blocked GMRES(8) solve on S (16 unknowns) whose lanes freeze at
//     different steps: period 8 at j = m - 1, period 4 at j = 3, e_0 at the
//     iteration cap, and a random lane.
TEST(PkspGmres, GoldenIteratesBitwiseUnchanged) {
  struct Pin {
    std::uint64_t hash;
    int iterations;
  };
  const auto check = [](const Comm& c, std::span<const double> x,
                        const detail::SolveReport& rep, const Pin& pin,
                        const char* what) {
    const std::vector<double> all = c.allgatherv(x);
    EXPECT_EQ(hashBits(all), pin.hash)
        << what << std::hex << " hash 0x" << hashBits(all);
    EXPECT_EQ(rep.iterations, pin.iterations) << what;
    EXPECT_GT(rep.reason, 0) << what;
  };
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = 12;
  const auto pde = lisi::mesh::assembleGlobal(spec);
  World::run(2, [&](Comm& c) {
    DistCsrMatrix a = DistCsrMatrix::scatterFromRoot(c, pde.localA);
    const auto s = static_cast<std::size_t>(a.startRow());
    const auto m = static_cast<std::size_t>(a.localRows());
    const std::vector<double> b(pde.localB.begin() + long(s),
                                pde.localB.begin() + long(s + m));
    std::vector<double> x(m, 0.0);
    const auto ilu = detail::makeLocalIlu0(a);
    detail::Tolerances tol;
    tol.rtol = 1e-10;
    tol.atol = 1e-14;
    tol.maxits = 500;
    const detail::SolveReport rep =
        detail::runGmres(c, detail::MatrixOperator(&a), *ilu, b, x, tol, 5);
    EXPECT_GT(rep.iterations, 3 * 5);
    check(c, x, rep, {0xd244a2b6812f9b2eULL, 37}, "restarted");
  });
  World::run(2, [&](Comm& c) {
    DistCsrMatrix a = DistCsrMatrix::scatterFromRoot(c, cyclicShift(8));
    const auto m = static_cast<std::size_t>(a.localRows());
    std::vector<double> b(m, 0.0), x(m, 0.0);
    if (a.startRow() == 0) b[0] = 1.0;
    detail::Tolerances tol;
    tol.rtol = 1e-10;
    tol.maxits = 100;
    const detail::SolveReport rep = detail::runGmres(
        c, detail::MatrixOperator(&a), detail::IdentityPc(), b, x, tol, 30);
    EXPECT_EQ(rep.iterations, 8);
    // Exact arithmetic throughout: x = S^{-1} e_0 = e_7.
    const std::vector<double> all = c.allgatherv(std::span<const double>(x));
    for (std::size_t i = 0; i < all.size(); ++i) {
      EXPECT_EQ(all[i], i == 7 ? 1.0 : 0.0) << "entry " << i;
    }
    check(c, x, rep, {0xb90ef03a46722098ULL, 8}, "lucky breakdown");
  });
  World::run(2, [&](Comm& c) {
    const int n = 16;
    const int nRhs = 4;
    DistCsrMatrix a = DistCsrMatrix::scatterFromRoot(c, cyclicShift(n));
    const auto s = static_cast<std::size_t>(a.startRow());
    const auto m = static_cast<std::size_t>(a.localRows());
    std::vector<double> bGlobal(std::size_t(n) * nRhs, 0.0);
    for (int i = 0; i < n; i += 8) bGlobal[std::size_t(i)] = 1.0;
    for (int i = 0; i < n; i += 4) bGlobal[std::size_t(n + i)] = 1.0;
    bGlobal[std::size_t(2 * n)] = 1.0;
    Rng rng(23);
    for (int i = 0; i < n; ++i) {
      bGlobal[std::size_t(3 * n + i)] = rng.uniform(-1, 1);
    }
    std::vector<double> b(m * nRhs), x(m * nRhs, 0.0);
    for (std::size_t k = 0; k < nRhs; ++k) {
      std::copy_n(bGlobal.begin() + long(k * n + s), m,
                  b.begin() + long(k * m));
    }
    detail::Tolerances tol;
    tol.rtol = 1e-10;
    tol.maxits = 20;
    const std::vector<detail::SolveReport> reps = detail::runBlockedGmres(
        c, a, detail::IdentityPc(), b, x, nRhs, tol, 8);
    EXPECT_EQ(reps[0].iterations, 8);
    EXPECT_EQ(reps[1].iterations, 4);
    EXPECT_EQ(reps[2].reason, PKSP_DIVERGED_ITS);
    const Pin pins[] = {{0x1ac8ca8909283925ULL, 8},
                        {0x35beec0ae9236425ULL, 4},
                        {0x8421ae126c7ced25ULL, 20},
                        {0x266b3056fd5af612ULL, 20}};
    for (std::size_t k = 0; k < nRhs; ++k) {
      const std::vector<double> all =
          c.allgatherv(std::span<const double>(x).subspan(k * m, m));
      EXPECT_EQ(hashBits(all), pins[k].hash)
          << "lane " << k << std::hex << " hash 0x" << hashBits(all);
      EXPECT_EQ(reps[k].iterations, pins[k].iterations) << "lane " << k;
    }
  });
}

// The CG kernel fuses <z,z> and <r,z> into one two-element allreduce.  The
// allreduce schedule is elementwise, so the fused lanes must be bitwise
// identical to separate dots: iterates, iteration count, and solution may
// not change at any rank count.  This reference runs the identical
// recurrence with the *unfused* collectives.
TEST(PkspCg, FusedDotMatchesUnfusedReferenceBitwise) {
  const int n = 64;
  const CsrMatrix g = lisi::sparse::laplacian1d(n);
  std::vector<double> bGlobal(static_cast<std::size_t>(n));
  Rng rng(42);
  for (auto& v : bGlobal) v = rng.uniform(-1, 1);
  const double rtol = 1e-10;
  const double atol = 1e-14;
  const int maxits = 2000;

  for (const int p : {1, 2, 3, 4}) {
    World::run(p, [&](Comm& c) {
      DistCsrMatrix a = DistCsrMatrix::scatterFromRoot(c, g);
      const int s = a.startRow();
      const auto m = static_cast<std::size_t>(a.localRows());
      const std::vector<double> b(bGlobal.begin() + s,
                                  bGlobal.begin() + s + a.localRows());

      // Unfused reference CG (no preconditioner: z == r).
      std::vector<double> xRef(m, 0.0), r(b), z(b), pd(m), ap(m);
      const double z0 = lisi::sparse::distNorm2(c, std::span<const double>(z));
      const double target = rtol * z0;
      std::copy(z.begin(), z.end(), pd.begin());
      double rz = lisi::sparse::distDot(c, std::span<const double>(r),
                                        std::span<const double>(z));
      int itRef = 0;
      for (int it = 1; it <= maxits; ++it) {
        a.spmv(std::span<const double>(pd), std::span<double>(ap));
        const double pap = lisi::sparse::distDot(
            c, std::span<const double>(pd), std::span<const double>(ap));
        const double alpha = rz / pap;
        for (std::size_t i = 0; i < m; ++i) {
          xRef[i] += alpha * pd[i];
          r[i] -= alpha * ap[i];
        }
        std::copy(r.begin(), r.end(), z.begin());
        const double znorm =
            lisi::sparse::distNorm2(c, std::span<const double>(z));
        itRef = it;
        if (znorm <= atol || znorm <= target) break;
        const double rzNew = lisi::sparse::distDot(
            c, std::span<const double>(r), std::span<const double>(z));
        const double beta = rzNew / rz;
        rz = rzNew;
        for (std::size_t i = 0; i < m; ++i) pd[i] = z[i] + beta * pd[i];
      }

      // Production path (fused dots).
      KSP ksp = nullptr;
      ASSERT_EQ(KSPCreate(c, &ksp), PKSP_SUCCESS);
      ASSERT_EQ(KSPSetOperator(ksp, &a), PKSP_SUCCESS);
      ASSERT_EQ(KSPSetType(ksp, PKSP_CG), PKSP_SUCCESS);
      ASSERT_EQ(KSPSetPCType(ksp, PKSP_PC_NONE), PKSP_SUCCESS);
      ASSERT_EQ(KSPSetTolerances(ksp, rtol, atol, maxits), PKSP_SUCCESS);
      std::vector<double> x(m, 0.0);
      EXPECT_EQ(KSPSolve(ksp, std::span<const double>(b), std::span<double>(x)),
                PKSP_SUCCESS);
      int its = 0;
      KSPGetIterationNumber(ksp, &its);
      KSPDestroy(&ksp);

      EXPECT_EQ(its, itRef) << "p=" << p;
      for (std::size_t i = 0; i < m; ++i) {
        EXPECT_EQ(x[i], xRef[i]) << "p=" << p << " entry " << s + i;
      }
    });
  }
}

// ---- blocked multi-RHS: per-lane bitwise identity ---------------------

/// Solve nRhs systems twice — once lane-by-lane through KSPSolve, once
/// through the blocked KSPSolveMulti — and require bitwise-equal lanes.
/// The blocked kernels share only communication (one block matvec per
/// iteration, fused dot batches), never values, so each lane must
/// reproduce its standalone solve exactly.
void checkBlockedMatchesSequential(PkspType type, PkspPcType pc, int ranks) {
  const CsrMatrix g = lisi::sparse::laplacian2d(10, 10);
  const int n = g.rows;
  const int nRhs = 3;
  std::vector<double> bGlobal(static_cast<std::size_t>(n * nRhs));
  Rng rng(7);
  for (auto& v : bGlobal) v = rng.uniform(-1, 1);

  World::run(ranks, [&](Comm& c) {
    DistCsrMatrix a = DistCsrMatrix::scatterFromRoot(c, g);
    const int s = a.startRow();
    const auto m = static_cast<std::size_t>(a.localRows());
    std::vector<double> b(m * nRhs);
    for (int k = 0; k < nRhs; ++k) {
      std::copy(bGlobal.begin() + k * n + s, bGlobal.begin() + k * n + s +
                                                 a.localRows(),
                b.begin() + static_cast<std::ptrdiff_t>(k * m));
    }

    auto makeKsp = [&](KSP* ksp) {
      ASSERT_EQ(KSPCreate(c, ksp), PKSP_SUCCESS);
      ASSERT_EQ(KSPSetOperator(*ksp, &a), PKSP_SUCCESS);
      ASSERT_EQ(KSPSetType(*ksp, type), PKSP_SUCCESS);
      ASSERT_EQ(KSPSetPCType(*ksp, pc), PKSP_SUCCESS);
      ASSERT_EQ(KSPSetTolerances(*ksp, 1e-10, 1e-14, 500), PKSP_SUCCESS);
    };

    // Sequential reference: one standalone KSPSolve per lane.
    std::vector<double> xSeq(m * nRhs, 0.0);
    std::vector<int> itsSeq(nRhs, 0);
    for (int k = 0; k < nRhs; ++k) {
      KSP ksp = nullptr;
      makeKsp(&ksp);
      std::span<double> lane(xSeq.data() + static_cast<std::size_t>(k) * m, m);
      std::span<const double> rhs(b.data() + static_cast<std::size_t>(k) * m,
                                  m);
      ASSERT_EQ(KSPSolve(ksp, rhs, lane), PKSP_SUCCESS);
      KSPGetIterationNumber(ksp, &itsSeq[static_cast<std::size_t>(k)]);
      KSPDestroy(&ksp);
    }

    // Blocked path.
    std::vector<double> xBlk(m * nRhs, 0.0);
    KSP ksp = nullptr;
    makeKsp(&ksp);
    ASSERT_EQ(KSPSolveMulti(ksp, std::span<const double>(b),
                            std::span<double>(xBlk), nRhs),
              PKSP_SUCCESS);
    int itsBlk = 0;
    KSPGetIterationNumber(ksp, &itsBlk);
    KSPDestroy(&ksp);

    EXPECT_EQ(itsBlk, *std::max_element(itsSeq.begin(), itsSeq.end()));
    for (std::size_t i = 0; i < xBlk.size(); ++i) {
      ASSERT_EQ(xBlk[i], xSeq[i])
          << "ranks=" << ranks << " entry " << i << " (lane " << i / m << ")";
    }
  });
}

TEST(PkspMulti, BlockedCgMatchesSequentialBitwise) {
  for (const int p : {1, 2, 3}) {
    checkBlockedMatchesSequential(PKSP_CG, PKSP_PC_JACOBI, p);
  }
}

TEST(PkspMulti, BlockedGmresMatchesSequentialBitwise) {
  for (const int p : {1, 2, 3}) {
    checkBlockedMatchesSequential(PKSP_GMRES, PKSP_PC_ILU0, p);
  }
}

// Restart, early freeze and reorthogonalization under the blocked kernel:
// GMRES(5) on the paper's convection-diffusion operator with four lanes of
// different character.  Lane 1's right-hand side is A(e_first + e_last)
// plus a 1e-5 relative perturbation: ILU(0)'s dropped fill never touches
// the two corner unknowns, so M^{-1}A maps e_first + e_last to itself and
// the first Arnoldi step cancels down to the perturbation, which Kelley's
// test catches.  Lane 2 is a zero RHS and converges before iterating.
// Every lane must equal its single-RHS solve bitwise, with the same
// iterations, reason and reorthogonalization count.
TEST(PkspMulti, BlockedGmresRestartFreezeReorthMatchesSequential) {
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = 12;
  const CsrMatrix g = lisi::mesh::assembleGlobal(spec).localA;
  const auto n = static_cast<std::size_t>(g.rows);
  const int nRhs = 4;
  std::vector<double> bGlobal(n * nRhs, 0.0);
  Rng rng(17);
  for (std::size_t i = 0; i < n; ++i) bGlobal[i] = rng.uniform(-1, 1);
  std::vector<double> corners(n, 0.0);
  corners.front() = 1.0;
  corners.back() = 1.0;
  lisi::sparse::spmv(g, std::span<const double>(corners),
                     std::span<double>(bGlobal).subspan(n, n));
  for (std::size_t i = n; i < 2 * n; ++i) {
    bGlobal[i] = 1e3 * bGlobal[i] + 1e-2 * rng.uniform(-1, 1);
  }
  for (std::size_t i = 3 * n; i < 4 * n; ++i) {
    bGlobal[i] = 1e-4 * rng.uniform(-1, 1);
  }

  for (const int p : {1, 2, 3}) {
    World::run(p, [&](Comm& c) {
      DistCsrMatrix a = DistCsrMatrix::scatterFromRoot(c, g);
      const auto s = static_cast<std::size_t>(a.startRow());
      const auto m = static_cast<std::size_t>(a.localRows());
      std::vector<double> b(m * nRhs);
      for (std::size_t k = 0; k < nRhs; ++k) {
        std::copy_n(bGlobal.begin() + long(k * n + s), m,
                    b.begin() + long(k * m));
      }
      const auto pc = detail::makeLocalIlu0(a);
      const detail::MatrixOperator op(&a);
      detail::Tolerances tol;
      tol.rtol = 1e-10;
      tol.atol = 1e-14;
      tol.maxits = 500;
      const int restart = 5;

      std::vector<double> xSeq(m * nRhs, 0.0);
      std::vector<detail::SolveReport> seq;
      for (std::size_t k = 0; k < nRhs; ++k) {
        seq.push_back(detail::runGmres(
            c, op, *pc, std::span<const double>(b).subspan(k * m, m),
            std::span<double>(xSeq).subspan(k * m, m), tol, restart));
      }
      std::vector<double> xBlk(m * nRhs, 0.0);
      const std::vector<detail::SolveReport> blk =
          detail::runBlockedGmres(c, a, *pc, b, xBlk, nRhs, tol, restart);

      ASSERT_EQ(blk.size(), seq.size());
      for (std::size_t k = 0; k < nRhs; ++k) {
        EXPECT_GT(seq[k].reason, 0) << "p=" << p << " lane " << k;
        EXPECT_EQ(blk[k].reason, seq[k].reason) << "p=" << p << " lane " << k;
        EXPECT_EQ(blk[k].iterations, seq[k].iterations)
            << "p=" << p << " lane " << k;
        EXPECT_EQ(blk[k].reorthogonalizations, seq[k].reorthogonalizations)
            << "p=" << p << " lane " << k;
      }
      // The case covers what it claims: restarts, a lane frozen before
      // iterating, and a reorthogonalizing lane beside one that is not.
      EXPECT_GT(seq[0].iterations, 2 * restart) << "p=" << p;
      EXPECT_EQ(seq[0].reorthogonalizations, 0) << "p=" << p;
      EXPECT_GT(seq[1].reorthogonalizations, 0) << "p=" << p;
      EXPECT_GT(seq[1].iterations, restart) << "p=" << p;
      EXPECT_EQ(seq[2].iterations, 0) << "p=" << p;
      for (std::size_t i = 0; i < xBlk.size(); ++i) {
        ASSERT_EQ(xBlk[i], xSeq[i])
            << "p=" << p << " entry " << i << " (lane " << i / m << ")";
      }
    });
  }
}

TEST(PkspMulti, FallbackForUnsupportedTypeStillSolves) {
  // BiCGSTAB has no blocked kernel: KSPSolveMulti must quietly run the
  // per-lane fallback and still report success.
  const CsrMatrix g = lisi::sparse::laplacian2d(8, 8);
  const int nRhs = 2;
  World::run(2, [&](Comm& c) {
    DistCsrMatrix a = DistCsrMatrix::scatterFromRoot(c, g);
    const auto m = static_cast<std::size_t>(a.localRows());
    std::vector<double> b(m * nRhs, 1.0), x(m * nRhs, 0.0);
    KSP ksp = nullptr;
    ASSERT_EQ(KSPCreate(c, &ksp), PKSP_SUCCESS);
    ASSERT_EQ(KSPSetOperator(ksp, &a), PKSP_SUCCESS);
    ASSERT_EQ(KSPSetType(ksp, PKSP_BICGSTAB), PKSP_SUCCESS);
    ASSERT_EQ(KSPSetTolerances(ksp, 1e-10, 1e-14, 500), PKSP_SUCCESS);
    EXPECT_EQ(KSPSolveMulti(ksp, std::span<const double>(b),
                            std::span<double>(x), nRhs),
              PKSP_SUCCESS);
    PkspConvergedReason reason;
    KSPGetConvergedReason(ksp, &reason);
    EXPECT_GT(reason, 0);
    KSPDestroy(&ksp);
  });
}

// ---- block-local preconditioners read the operator through its view -----

/// Reference SOR sweeps from z = 0 on an extracted block.
std::vector<double> referenceSor(const CsrMatrix& b, double omega, int sweeps,
                                 std::span<const double> r) {
  const auto n = static_cast<std::size_t>(b.rows);
  std::vector<double> z(n, 0.0);
  for (int s = 0; s < sweeps; ++s) {
    for (std::size_t i = 0; i < n; ++i) {
      double sigma = 0.0;
      double d = 0.0;
      for (int k = b.rowPtr[i]; k < b.rowPtr[i + 1]; ++k) {
        const auto kk = static_cast<std::size_t>(k);
        const auto j = static_cast<std::size_t>(b.colIdx[kk]);
        const double a = b.values[kk];
        if (j == i) {
          d = a;
        } else {
          sigma += a * z[j];
        }
      }
      z[i] = (1.0 - omega) * z[i] + omega * ((r[i] - sigma) / d);
    }
  }
  return z;
}

TEST(PkspPcView, IluAndSorMatchReferenceOnExtractedBlockAcrossRefresh) {
  // ILU(0) and SOR read the operator's pattern (and SOR its values) through
  // the owned-block view; both must stay bitwise the algorithm run on an
  // extracted copy of the diagonal block, before and after an in-place
  // same-pattern refresh, at every rank count.
  const CsrMatrix g0 = perturbedPaperOperator(12, 41);
  CsrMatrix g1 = g0;
  Rng rng(42);
  for (double& v : g1.values) v *= rng.uniform(0.8, 1.2);
  std::vector<double> rg(static_cast<std::size_t>(g0.rows));
  for (double& v : rg) v = rng.uniform(-1.0, 1.0);
  for (const int p : {1, 2, 4}) {
    World::run(p, [&](Comm& c) {
      DistCsrMatrix a = DistCsrMatrix::scatterFromRoot(c, g0);
      const int s = a.startRow();
      const int m = a.localRows();
      const std::span<const double> r(rg.data() + s,
                                      static_cast<std::size_t>(m));
      const auto ilu = detail::makeLocalIlu0(a);
      const auto sor = detail::makeLocalSor(a, 1.3, 2);
      const auto check = [&](const CsrMatrix& g, const char* stage) {
        const CsrMatrix blk = diagonalBlock(g, s, m);
        std::vector<double> z(static_cast<std::size_t>(m));
        ilu->apply(r, z);
        EXPECT_EQ(z, referenceIlu0(blk, r)) << stage << " ilu p=" << p;
        sor->apply(r, z);
        EXPECT_EQ(z, referenceSor(blk, 1.3, 2, r)) << stage << " sor p=" << p;
        // Interleaved lanes take each lane's own chain.
        std::vector<double> rl, zl(3 * static_cast<std::size_t>(m));
        for (int l = 0; l < 3; ++l) rl.insert(rl.end(), r.begin(), r.end());
        const std::size_t lanes[] = {0, 1, 2};
        ilu->applyLanes(rl, zl, lanes, static_cast<std::size_t>(m));
        ilu->apply(r, z);
        for (std::size_t l = 0; l < 3; ++l) {
          EXPECT_TRUE(std::equal(z.begin(), z.end(),
                                 zl.begin() + static_cast<long>(l) * m))
              << stage << " lane " << l;
        }
      };
      check(g0, "built");
      a.updateValues(rowsOf(g1, s, m));
      ASSERT_TRUE(ilu->refresh(a));
      ASSERT_TRUE(sor->refresh(a));
      check(g1, "refreshed");
    });
  }
}

TEST(PkspPcView, WarmSameStructureRefreshAllocatesNothing) {
  // A same-pattern refresh copies values (ILU(0)) or nothing (SOR) into
  // storage sized at build: no allocation, also with the float32 mirrors.
  const CsrMatrix g0 = perturbedPaperOperator(16, 43);
  CsrMatrix g1 = g0;
  for (double& v : g1.values) v *= 1.1;
  std::atomic<bool> measured{false};
  World::run(2, [&](Comm& c) {
    DistCsrMatrix a = DistCsrMatrix::scatterFromRoot(c, g0);
    const DistCsrMatrix a1 = DistCsrMatrix::scatterFromRoot(c, g1);
    std::vector<std::unique_ptr<detail::Preconditioner>> pcs;
    pcs.push_back(detail::makeLocalIlu0(a));
    pcs.push_back(detail::makeLocalSor(a, 1.2, 1));
    pcs.push_back(detail::makeLocalIlu0(a));
    pcs.push_back(detail::makeLocalSor(a, 1.2, 1));
    pcs[2]->setLowPrecision(true);
    pcs[3]->setLowPrecision(true);
    for (auto& pc : pcs) ASSERT_TRUE(pc->refresh(a));  // warm
    const CsrMatrix next = rowsOf(g1, a.startRow(), a.localRows());
    // Rank 0 (whose block has ghost entries) refreshes under the counter
    // while rank 1 waits without communicating: the transport allocates.
    c.barrier();
    if (c.rank() == 0) {
      g_allocCalls.store(0);
      g_countAllocs.store(true);
      a.updateValues(next);
      for (auto& pc : pcs) EXPECT_TRUE(pc->refresh(a));
      for (auto& pc : pcs) EXPECT_TRUE(pc->refresh(a1));  // another operator
      g_countAllocs.store(false);
      EXPECT_EQ(g_allocCalls.load(), 0u);
      measured.store(true);
    } else {
      while (!measured.load()) std::this_thread::yield();
    }
    c.barrier();
  });
}

}  // namespace
}  // namespace pksp
