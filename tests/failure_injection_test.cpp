// Failure-injection tests: every layer must fail loudly and consistently
// across ranks — no hangs, no silent wrong answers, no rank divergence.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <string>

#include "comm/comm.hpp"
#include "comm/comm_handle.hpp"
#include "lisi/sparse_solver.hpp"
#include "mesh/pde5pt.hpp"
#include "pksp/pksp.hpp"
#include "sparse/convert.hpp"
#include "sparse/dist_csr.hpp"
#include "sparse/generate.hpp"

namespace lisi {
namespace {

using comm::Comm;
using comm::World;

// ---- comm layer --------------------------------------------------------

TEST(FailureComm, AbortWakesRanksBlockedInRecv) {
  std::atomic<int> woken{0};
  EXPECT_THROW(
      World::run(4,
                 [&](Comm& c) {
                   if (c.rank() == 0) {
                     throw Error("injected failure on rank 0");
                   }
                   try {
                     (void)c.recvBytes(0, 99);  // never satisfied
                   } catch (const Error&) {
                     woken.fetch_add(1);
                     throw;
                   }
                 }),
      Error);
  EXPECT_EQ(woken.load(), 3);  // every blocked rank must have been released
}

TEST(FailureComm, AbortWakesRanksBlockedInCollective) {
  EXPECT_THROW(World::run(3,
                          [](Comm& c) {
                            if (c.rank() == 2) throw Error("rank 2 dies");
                            (void)c.allreduceValue(1.0, comm::ReduceOp::kSum);
                          }),
               Error);
}

TEST(FailureComm, ExplicitAbortPropagates) {
  try {
    World::run(2, [](Comm& c) {
      if (c.rank() == 1) {
        c.abort("operator requested shutdown");
      }
      c.barrier();
    });
    // Rank 0 throws "aborted"; rank 1 may finish cleanly.  Either a throw
    // or a clean return of World::run counts as handled, but if rank 0's
    // exception surfaces it must carry the reason.
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("operator requested shutdown"),
              std::string::npos);
  }
}

TEST(FailureComm, BadRankArgumentsThrowLocally) {
  World::run(2, [](Comm& c) {
    EXPECT_THROW(c.sendValue(1, 5, 0), Error);   // dest out of range
    EXPECT_THROW(c.sendValue(1, -1, 0), Error);  // negative dest
    EXPECT_THROW(c.sendValue(1, 0, -3), Error);  // negative tag
    EXPECT_THROW((void)c.recvBytes(7, 0), Error);  // src out of range
    // Keep the ranks synchronized so no one exits while the other throws.
    c.barrier();
  });
}

// ---- solver packages ----------------------------------------------------

TEST(FailurePksp, JacobiOnZeroDiagonalReportsNumeric) {
  World::run(1, [](Comm& c) {
    // [0 1; 1 0]: perfectly solvable, but Jacobi cannot be built.
    sparse::CsrMatrix g;
    g.rows = 2;
    g.cols = 2;
    g.rowPtr = {0, 1, 2};
    g.colIdx = {1, 0};
    g.values = {1.0, 1.0};
    sparse::DistCsrMatrix a = sparse::DistCsrMatrix::scatterFromRoot(c, g);
    pksp::KSP ksp = nullptr;
    pksp::KSPCreate(c, &ksp);
    pksp::KSPSetOperator(ksp, &a);
    pksp::KSPSetPCType(ksp, pksp::PKSP_PC_JACOBI);
    std::vector<double> b{1.0, 2.0}, x(2);
    EXPECT_EQ(pksp::KSPSolve(ksp, std::span<const double>(b),
                             std::span<double>(x)),
              pksp::PKSP_ERR_NUMERIC);
    pksp::KSPDestroy(&ksp);
  });
}

TEST(FailurePksp, CgOnIndefiniteSystemDoesNotHang) {
  World::run(1, [](Comm& c) {
    // CG requires SPD; on an indefinite matrix it must terminate with a
    // breakdown/divergence code within maxits, never loop forever.
    sparse::CsrMatrix g;
    g.rows = 2;
    g.cols = 2;
    g.rowPtr = {0, 1, 2};
    g.colIdx = {0, 1};
    g.values = {1.0, -1.0};  // diag(1, -1): indefinite
    sparse::DistCsrMatrix a = sparse::DistCsrMatrix::scatterFromRoot(c, g);
    pksp::KSP ksp = nullptr;
    pksp::KSPCreate(c, &ksp);
    pksp::KSPSetOperator(ksp, &a);
    pksp::KSPSetType(ksp, pksp::PKSP_CG);
    pksp::KSPSetTolerances(ksp, 1e-20, 1e-30, 50);
    std::vector<double> b{1.0, 1.0}, x(2);
    (void)pksp::KSPSolve(ksp, std::span<const double>(b),
                         std::span<double>(x));
    pksp::PkspConvergedReason reason = pksp::PKSP_ITERATING;
    pksp::KSPGetConvergedReason(ksp, &reason);
    // diag(1,-1) with b=(1,1) actually converges in 2 CG steps; the point
    // is termination with a definite reason, one way or the other.
    EXPECT_NE(reason, pksp::PKSP_ITERATING);
    pksp::KSPDestroy(&ksp);
  });
}

TEST(FailurePksp, MaxItsConsistentAcrossRanks) {
  // All ranks must agree on the (non-)convergence outcome.
  World::run(4, [](Comm& c) {
    mesh::Pde5ptSpec spec;
    spec.gridN = 16;
    const auto local = mesh::assembleLocal(spec, c.rank(), c.size());
    sparse::DistCsrMatrix a(c, local.globalN, local.globalN, local.startRow,
                            local.localA);
    pksp::KSP ksp = nullptr;
    pksp::KSPCreate(c, &ksp);
    pksp::KSPSetOperator(ksp, &a);
    pksp::KSPSetTolerances(ksp, 1e-14, 1e-30, 2);
    std::vector<double> x(static_cast<std::size_t>(a.localRows()));
    const int rc = pksp::KSPSolve(ksp, std::span<const double>(local.localB),
                                  std::span<double>(x));
    const int minRc = c.allreduceValue(rc, comm::ReduceOp::kMin);
    const int maxRc = c.allreduceValue(rc, comm::ReduceOp::kMax);
    EXPECT_EQ(minRc, maxRc);  // identical verdict everywhere
    EXPECT_EQ(rc, pksp::PKSP_ERR_NUMERIC);
    pksp::KSPDestroy(&ksp);
  });
}

// ---- LISI port ----------------------------------------------------------

std::shared_ptr<SparseSolver> makePort(cca::Framework& fw) {
  registerSolverComponents();
  fw.instantiate("s", kSluComponentClass);
  return fw.getProvidesPortAs<SparseSolver>("s", kSparseSolverPortName);
}

TEST(FailureLisi, SingularSystemReportedOnEveryRank) {
  World::run(2, [](Comm& c) {
    cca::Framework fw;
    auto s = makePort(fw);
    const long h = comm::registerHandle(c);
    // Global 4x4 with an exactly zero column => singular.
    const int n = 4;
    const int m = 2;
    const int start = 2 * c.rank();
    ASSERT_EQ(s->initialize(h), 0);
    s->setStartRow(start);
    s->setLocalRows(m);
    s->setGlobalCols(n);
    // Row i: 1 at (i, 0) and (i, i) except column 3 never appears.
    std::vector<double> vals;
    std::vector<int> rows, cols;
    for (int i = start; i < start + m; ++i) {
      rows.push_back(i); cols.push_back(0); vals.push_back(1.0);
      if (i != 0 && i != 3) {
        rows.push_back(i); cols.push_back(i); vals.push_back(2.0);
      }
    }
    ASSERT_EQ(s->setupMatrix(
                  RArray<const double>(vals.data(), static_cast<int>(vals.size())),
                  RArray<const int>(rows.data(), static_cast<int>(rows.size())),
                  RArray<const int>(cols.data(), static_cast<int>(cols.size())),
                  static_cast<int>(vals.size())),
              0);
    std::vector<double> b(static_cast<std::size_t>(m), 1.0);
    ASSERT_EQ(s->setupRHS(RArray<const double>(b.data(), m), m, 1), 0);
    std::vector<double> x(static_cast<std::size_t>(m));
    std::vector<double> st(kStatusLength);
    const int rc = s->solve(RArray<double>(x.data(), m),
                            RArray<double>(st.data(), kStatusLength), m,
                            kStatusLength);
    EXPECT_EQ(rc, static_cast<int>(ErrorCode::kNumericFailure));
    // Every rank sees the same verdict (the factorization failure on rank 0
    // is broadcast, not silently localized).
    const int maxRc = c.allreduceValue(rc, comm::ReduceOp::kMax);
    const int minRc = c.allreduceValue(rc, comm::ReduceOp::kMin);
    EXPECT_EQ(maxRc, minRc);
    comm::releaseHandle(h);
  });
}

TEST(FailureLisi, SolveWithoutRhsIsBadState) {
  World::run(1, [](Comm& c) {
    cca::Framework fw;
    auto s = makePort(fw);
    const long h = comm::registerHandle(c);
    s->initialize(h);
    s->setStartRow(0);
    s->setLocalRows(2);
    s->setGlobalCols(2);
    const double v[2] = {1, 1};
    const int idx[2] = {0, 1};
    s->setupMatrix(RArray<const double>(v, 2), RArray<const int>(idx, 2),
                   RArray<const int>(idx, 2), 2);
    double x[2], st[kStatusLength];
    EXPECT_EQ(s->solve(RArray<double>(x, 2),
                       RArray<double>(st, kStatusLength), 2, kStatusLength),
              static_cast<int>(ErrorCode::kBadState));
    comm::releaseHandle(h);
  });
}

TEST(FailureLisi, OutOfRangeRowRejected) {
  World::run(1, [](Comm& c) {
    cca::Framework fw;
    auto s = makePort(fw);
    const long h = comm::registerHandle(c);
    s->initialize(h);
    s->setStartRow(0);
    s->setLocalRows(2);
    s->setGlobalCols(4);
    // Row index 3 does not belong to this rank (owns rows 0..1).
    const double v[1] = {1.0};
    const int row[1] = {3};
    const int col[1] = {0};
    EXPECT_EQ(s->setupMatrix(RArray<const double>(v, 1),
                             RArray<const int>(row, 1),
                             RArray<const int>(col, 1), 1),
              static_cast<int>(ErrorCode::kInvalidArgument));
    comm::releaseHandle(h);
  });
}

TEST(FailureLisi, RhsSizeMismatchRejected) {
  World::run(1, [](Comm& c) {
    cca::Framework fw;
    auto s = makePort(fw);
    const long h = comm::registerHandle(c);
    s->initialize(h);
    s->setStartRow(0);
    s->setLocalRows(3);
    s->setGlobalCols(3);
    double b[2] = {1, 2};
    EXPECT_EQ(s->setupRHS(RArray<const double>(b, 2), 2, 1),
              static_cast<int>(ErrorCode::kInvalidArgument));  // 2 != 3
    EXPECT_EQ(s->setupRHS(RArray<const double>(b, 2), 3, 1),
              static_cast<int>(ErrorCode::kInvalidArgument));  // array short
    EXPECT_EQ(s->setupRHS(RArray<const double>(b, 2), 3, 0),
              static_cast<int>(ErrorCode::kInvalidArgument));  // nRhs < 1
    comm::releaseHandle(h);
  });
}

TEST(FailureLisi, CsrPointerInconsistencyRejected) {
  World::run(1, [](Comm& c) {
    cca::Framework fw;
    auto s = makePort(fw);
    const long h = comm::registerHandle(c);
    s->initialize(h);
    s->setStartRow(0);
    s->setLocalRows(2);
    s->setGlobalCols(2);
    const double v[2] = {1, 1};
    const int badPtr[3] = {0, 1, 5};  // rowPtr end != nnz
    const int cols[2] = {0, 1};
    EXPECT_EQ(s->setupMatrix(RArray<const double>(v, 2),
                             RArray<const int>(badPtr, 3),
                             RArray<const int>(cols, 2),
                             SparseStruct::kCsr, 3, 2),
              static_cast<int>(ErrorCode::kInvalidArgument));
    comm::releaseHandle(h);
  });
}

TEST(FailureLisi, ColumnOutOfRangeRejected) {
  World::run(1, [](Comm& c) {
    cca::Framework fw;
    auto s = makePort(fw);
    const long h = comm::registerHandle(c);
    s->initialize(h);
    s->setStartRow(0);
    s->setLocalRows(2);
    s->setGlobalCols(2);
    const double v[2] = {1, 1};
    const int rows[2] = {0, 1};
    const int cols[2] = {0, 9};  // column 9 of a 2-column system
    EXPECT_EQ(s->setupMatrix(RArray<const double>(v, 2),
                             RArray<const int>(rows, 2),
                             RArray<const int>(cols, 2), 2),
              static_cast<int>(ErrorCode::kInvalidArgument));
    comm::releaseHandle(h);
  });
}

TEST(FailureLisi, NonFiniteMatrixOnOneRankRejectedEverywhere) {
  // NaN (then Inf) in one rank's values only.  The set-up's agreement
  // collective carries a non-finite lane, so every rank returns
  // kInvalidArgument, none hangs, and the component stays usable: a clean
  // setupMatrix + solve afterwards succeeds.  Both on a fresh component and
  // on one that holds a good operator of the same pattern.
  const int gridN = 15;  // odd so hymg can coarsen
  const struct {
    const char* cls;
    std::map<std::string, std::string> params;
  } backends[] = {
      {kPkspComponentClass, {{"solver", "gmres"}, {"preconditioner", "ilu"}}},
      {kAztecComponentClass, {{"solver", "gmres"}, {"preconditioner", "ilu"}}},
      {kSluComponentClass, {}},
      {kHymgComponentClass,
       {{"mg_grid_n", std::to_string(gridN)}, {"mg_bx", "3"}}},
  };
  registerSolverComponents();
  for (const auto& backend : backends) {
    for (const int p : {2, 4}) {
      SCOPED_TRACE(std::string(backend.cls) + " p=" + std::to_string(p));
      World::run(p, [&](Comm& c) {
        mesh::Pde5ptSpec spec;
        spec.gridN = gridN;
        const auto sys = mesh::assembleLocal(spec, c.rank(), c.size());
        const int m = sys.localA.rows;
        const int nnz = sys.localA.nnz();
        cca::Framework fw;
        fw.instantiate("s", backend.cls);
        auto s = fw.getProvidesPortAs<SparseSolver>("s", kSparseSolverPortName);
        const long h = comm::registerHandle(c);
        ASSERT_EQ(s->initialize(h), 0);
        ASSERT_EQ(s->setStartRow(sys.startRow), 0);
        ASSERT_EQ(s->setLocalRows(m), 0);
        ASSERT_EQ(s->setGlobalCols(sys.globalN), 0);
        for (const auto& [k, v] : backend.params) ASSERT_EQ(s->set(k, v), 0);
        ASSERT_EQ(s->setupRHS(RArray<const double>(sys.localB.data(), m), m, 1),
                  0);
        const auto feedAndSolve = [&](const std::vector<double>& values) {
          EXPECT_EQ(s->setupMatrix(RArray<const double>(values.data(), nnz),
                                   RArray<const int>(sys.localA.rowPtr.data(),
                                                     m + 1),
                                   RArray<const int>(sys.localA.colIdx.data(),
                                                     nnz),
                                   SparseStruct::kCsr, m + 1, nnz),
                    0);
          std::vector<double> x(static_cast<std::size_t>(m));
          std::vector<double> st(kStatusLength);
          return s->solve(RArray<double>(x.data(), m),
                          RArray<double>(st.data(), kStatusLength), m,
                          kStatusLength);
        };
        const auto expectEverywhere = [&](int rc, ErrorCode want) {
          EXPECT_EQ(rc, static_cast<int>(want));
          EXPECT_EQ(c.allreduceValue(rc, comm::ReduceOp::kMin),
                    c.allreduceValue(rc, comm::ReduceOp::kMax));
        };
        const double bad[2] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()};
        for (int round = 0; round < 2; ++round) {
          // Round 0 hits a fresh component, round 1 one holding the good
          // operator; the poisoned rank differs between the rounds.
          std::vector<double> values = sys.localA.values;
          if (c.rank() == (round == 0 ? c.size() - 1 : 0)) {
            values[values.size() / 2] = bad[round];
          }
          expectEverywhere(feedAndSolve(values), ErrorCode::kInvalidArgument);
          expectEverywhere(feedAndSolve(sys.localA.values), ErrorCode::kOk);
        }
        s.reset();
        fw.destroy("s");
        comm::releaseHandle(h);
      });
    }
  }
}

}  // namespace
}  // namespace lisi
