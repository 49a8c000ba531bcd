// Implicit time stepping through the LISI port: the canonical client for
// the operator-change contract.
//
// Each step of an implicit scheme re-assembles the system matrix with new
// values (the time-step scaling, a lagged coefficient, ...) on the SAME
// sparsity pattern.  The port detects this — each rank compares its block
// with the held operator entry by entry, and one allreduce agrees — and
// downgrades the re-setup to a value-only update: the halo plan, the
// symbolic factorization (slu) and the preconditioner skeleton (pksp) all
// survive from step 0.
//
// The per-step timings printed below come straight out of the solve status
// array (kStatusSetupSeconds / kStatusSolveSeconds): step 0 pays the full
// build, steps >= 1 are cheap.
#include <cstdio>
#include <vector>

#include "cca/cca.hpp"
#include "comm/comm.hpp"
#include "comm/comm_handle.hpp"
#include "lisi/sparse_solver.hpp"
#include "mesh/pde5pt.hpp"
#include "support/timer.hpp"

namespace {

using namespace lisi;

constexpr int kGridN = 64;
constexpr int kSteps = 5;

struct StepTiming {
  double setupSec = 0.0;
  double solveSec = 0.0;
  int iters = 0;
};

/// One implicit step: feed the step's matrix values (same pattern every
/// step), then setupRHS + solve, returning the port's per-phase timings.
StepTiming doStep(SparseSolver& s, const sparse::CsrMatrix& a,
                  const std::vector<double>& b) {
  const int m = a.rows;
  int rc = s.setupMatrix(RArray<const double>(a.values.data(), a.nnz()),
                         RArray<const int>(a.rowPtr.data(), m + 1),
                         RArray<const int>(a.colIdx.data(), a.nnz()),
                         SparseStruct::kCsr, m + 1, a.nnz());
  LISI_CHECK(rc == 0, "setupMatrix failed");
  rc = s.setupRHS(RArray<const double>(b.data(), static_cast<int>(b.size())),
                  m, 1);
  LISI_CHECK(rc == 0, "setupRHS failed");
  std::vector<double> x(b.size(), 0.0);
  std::vector<double> st(kStatusLength, 0.0);
  rc = s.solve(RArray<double>(x.data(), static_cast<int>(x.size())),
               RArray<double>(st.data(), kStatusLength), m, kStatusLength);
  LISI_CHECK(rc == 0, "solve failed");
  StepTiming out;
  out.setupSec = st[kStatusSetupSeconds];
  out.solveSec = st[kStatusSolveSeconds];
  out.iters = static_cast<int>(st[kStatusIterations]);
  return out;
}

/// Run kSteps implicit steps against one backend and print the per-step
/// phase times.  The matrix values drift by 2% per step (a shrinking
/// pseudo-time-step), the pattern never changes.
void runBackend(cca::Framework& fw, comm::Comm& comm, const char* cls,
                const char* name, const mesh::Pde5ptLocalSystem& sys,
                bool iterative) {
  fw.instantiate(name, cls);
  auto s = fw.getProvidesPortAs<SparseSolver>(name, kSparseSolverPortName);
  long handle = comm::registerHandle(comm);
  int rc = s->initialize(handle);
  if (rc == 0) rc = s->setStartRow(sys.startRow);
  if (rc == 0) rc = s->setLocalRows(sys.localA.rows);
  if (rc == 0) rc = s->setGlobalCols(sys.globalN);
  LISI_CHECK(rc == 0, "solver setup failed");
  if (iterative) {
    s->set("solver", "gmres");
    s->set("preconditioner", "ilu");
    s->setBool("reuse_preconditioner", true);
    s->setDouble("tol", 1e-8);
  } else {
    s->set("ordering", "rcm");
  }

  if (comm.rank() == 0) std::printf("[%s]\n", name);
  for (int step = 0; step < kSteps; ++step) {
    sparse::CsrMatrix a = sys.localA;
    for (auto& v : a.values) v *= 1.0 + 0.02 * step;  // same pattern
    const StepTiming t = doStep(*s, a, sys.localB);
    if (comm.rank() == 0) {
      std::printf("  step %d: setup %.6fs (%s)  solve %.4fs",
                  step, t.setupSec,
                  step == 0 ? "full build       " : "value-only update",
                  t.solveSec);
      if (t.iters > 0) std::printf("  (%d iterations)", t.iters);
      std::printf("\n");
    }
  }
  comm::releaseHandle(handle);
}

}  // namespace

int main() {
  registerSolverComponents();
  const int ranks = 2;

  comm::World::run(ranks, [&](comm::Comm& comm) {
    mesh::Pde5ptSpec spec;
    spec.gridN = kGridN;
    const mesh::Pde5ptLocalSystem sys =
        mesh::assembleLocal(spec, comm.rank(), comm.size());
    cca::Framework fw;

    if (comm.rank() == 0) {
      std::printf("implicit time stepping, %d steps on a %dx%d grid "
                  "(%d ranks)\n"
                  "the matrix changes values every step but keeps its "
                  "pattern;\nthe port downgrades steps >= 1 to value-only "
                  "updates.\n\n",
                  kSteps, kGridN, kGridN, ranks);
    }

    runBackend(fw, comm, kSluComponentClass, "slu", sys, false);
    runBackend(fw, comm, kPkspComponentClass, "pksp", sys, true);
  });
  return 0;
}
