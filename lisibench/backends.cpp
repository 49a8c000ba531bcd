#include "backends.hpp"

#include <optional>
#include <string>

#include "aztec/aztecoo.hpp"
#include "comm/comm_handle.hpp"
#include "harness.hpp"
#include "hymg/hymg.hpp"
#include "mesh/pde5pt.hpp"
#include "pksp/pksp.hpp"
#include "slu/slu.hpp"
#include "sparse/convert.hpp"
#include "sparse/dist_csr.hpp"

namespace lisibench {
namespace {

using lisi::comm::Comm;
using lisi::comm::ReduceOp;
using lisi::sparse::DistCsrMatrix;

constexpr double kTol = 1e-6;
constexpr int kMaxIts = 10000;
constexpr int kRestart = 30;
constexpr int kMaxCycles = 200;
constexpr double kConvectionX = 3.0;  // the paper's -3 u_x term

const BackendInfo kInfo[kNumBackends] = {
    {"pksp", lisi::kPkspComponentClass, "pksp.port", "pksp.native", true},
    {"aztec", lisi::kAztecComponentClass, "aztec.port", "aztec.native", true},
    {"slu", lisi::kSluComponentClass, "slu.port", "slu.native", false},
    {"hymg", lisi::kHymgComponentClass, "hymg.port", "hymg.native", true},
};

bool agreeOk(const Comm& comm, bool ok) {
  return comm.allreduceValue(ok ? 1 : 0, ReduceOp::kMin) == 1;
}

/// initialize + distribution + backend parameters (the "lisi.config" span).
int configurePort(lisi::SparseSolver& s, long handle, Backend backend,
                  const LocalSystem& sys, bool warmStart) {
  const trace::Span span("lisi.config");
  int rc = s.initialize(handle);
  if (rc == 0) rc = s.setStartRow(sys.startRow);
  if (rc == 0) rc = s.setLocalRows(sys.a.rows);
  if (rc == 0) rc = s.setLocalNNZ(sys.a.nnz());
  if (rc == 0) rc = s.setGlobalCols(sys.globalN);
  switch (backend) {
    case Backend::kPksp:
    case Backend::kAztec:
      if (rc == 0) rc = s.set("solver", "gmres");
      if (rc == 0) rc = s.set("preconditioner", "ilu");
      if (rc == 0) rc = s.setDouble("tol", kTol);
      if (rc == 0) rc = s.setInt("maxits", kMaxIts);
      if (rc == 0) rc = s.setInt("restart", kRestart);
      break;
    case Backend::kSlu:
      if (rc == 0) rc = s.set("ordering", "rcm");
      break;
    case Backend::kHymg:
      if (rc == 0) rc = s.setInt("mg_grid_n", sys.gridN);
      if (rc == 0) rc = s.setDouble("mg_bx", kConvectionX);
      if (rc == 0) rc = s.setDouble("tol", kTol);
      if (rc == 0) rc = s.setInt("maxits", kMaxCycles);
      break;
  }
  if (rc == 0 && warmStart && backendInfo(backend).iterative) {
    rc = s.setBool("use_initial_guess", true);
  }
  return rc;
}

/// setupMatrix + setupRHS + solve through the port.
int portSequence(lisi::SparseSolver& s, const LocalSystem& sys,
                 std::vector<double>& x, int& iterations, bool& converged) {
  const int m = sys.a.rows;
  int rc = 0;
  {
    const trace::Span span("lisi.setup_matrix");
    rc = s.setupMatrix(
        lisi::RArray<const double>(sys.a.values.data(), sys.a.nnz()),
        lisi::RArray<const int>(sys.a.rowPtr.data(), m + 1),
        lisi::RArray<const int>(sys.a.colIdx.data(), sys.a.nnz()),
        lisi::SparseStruct::kCsr, m + 1, sys.a.nnz());
  }
  if (rc == 0) {
    const trace::Span span("lisi.setup_rhs");
    rc = s.setupRHS(lisi::RArray<const double>(sys.b.data(), m), m, 1);
  }
  double status[lisi::kStatusLength] = {};
  if (rc == 0) {
    const trace::Span span("lisi.solve_call");
    rc = s.solve(lisi::RArray<double>(x.data(), m),
                 lisi::RArray<double>(status, lisi::kStatusLength), m,
                 lisi::kStatusLength);
  }
  iterations = static_cast<int>(status[lisi::kStatusIterations]);
  converged = status[lisi::kStatusConverged] != 0.0;
  return rc;
}

slu::Options sluOptions() {
  slu::Options opts;
  opts.ordering = slu::Ordering::kRcm;
  return opts;
}

hymg::StencilFn paperStencil() {
  return hymg::convectionDiffusionStencil(kConvectionX, 0.0);
}

void configureKsp(pksp::KSP ksp) {
  pksp::KSPSetType(ksp, pksp::PKSP_GMRES);
  pksp::KSPSetPCType(ksp, pksp::PKSP_PC_ILU0);
  pksp::KSPSetTolerances(ksp, kTol, 1e-50, kMaxIts);
  pksp::KSPSetRestart(ksp, kRestart);
}

bool kspConverged(pksp::KSP ksp, int rc, int& iterations) {
  pksp::KSPGetIterationNumber(ksp, &iterations);
  pksp::PkspConvergedReason reason = pksp::PKSP_ITERATING;
  pksp::KSPGetConvergedReason(ksp, &reason);
  return rc == pksp::PKSP_SUCCESS && reason > 0;
}

void configureAztec(aztec::AztecOO& solver) {
  solver.setOption(aztec::AZ_solver, aztec::AZ_gmres)
      .setOption(aztec::AZ_precond, aztec::AZ_dom_decomp)
      .setOption(aztec::AZ_kspace, kRestart);
}

/// Root-side SLU solve of a gathered system; false on a factor failure.
bool sluRootSolve(std::optional<slu::Factorization>& factor,
                  const lisi::sparse::CsrMatrix& global,
                  const std::vector<double>& bGlobal,
                  std::vector<double>& xGlobal) {
  try {
    {
      const trace::Span span("slu.factor");
      const lisi::sparse::CscMatrix csc = lisi::sparse::csrToCsc(global);
      bool refactored = false;
      if (factor) {
        try {
          factor->refactorize(csc);
          refactored = true;
        } catch (const lisi::Error&) {
          refactored = false;
        }
      }
      if (!refactored) {
        factor = slu::Factorization::factorize(csc, sluOptions());
      }
    }
    xGlobal.resize(bGlobal.size());
    factor->solve(bGlobal, xGlobal);
  } catch (const lisi::Error&) {
    return false;
  }
  return true;
}

/// Gather to rank 0, factor (or refactor) and solve there, scatter back.
bool sluDistributedSolve(const Comm& comm, const DistCsrMatrix& a,
                         std::optional<slu::Factorization>& factor,
                         std::span<const double> b, std::vector<double>& x) {
  lisi::sparse::CsrMatrix global;
  std::vector<double> bGlobal;
  {
    const trace::Span span("slu.gather");
    global = a.gatherToRoot(0);
    bGlobal = a.gatherVectorToRoot(b, 0);
  }
  std::vector<double> xGlobal;
  bool ok = true;
  if (comm.rank() == 0) ok = sluRootSolve(factor, global, bGlobal, xGlobal);
  ok = comm.bcastValue(ok ? 1 : 0, 0) != 0;
  x = a.scatterVectorFromRoot(
      comm.rank() == 0 ? std::span<const double>(xGlobal)
                       : std::span<const double>(),
      0);
  return ok;
}

}  // namespace

const BackendInfo& backendInfo(Backend b) {
  return kInfo[static_cast<int>(b)];
}

LocalSystem assemblePaper(const Comm& comm, int gridN) {
  const trace::Span span("mesh.assemble");
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = gridN;
  lisi::mesh::Pde5ptLocalSystem s =
      lisi::mesh::assembleLocal(spec, comm.rank(), comm.size());
  LocalSystem out;
  out.gridN = gridN;
  out.globalN = s.globalN;
  out.startRow = s.startRow;
  out.a = std::move(s.localA);
  out.b = std::move(s.localB);
  return out;
}

ArmResult portSolveFresh(const Comm& comm, cca::Framework& fw, Backend backend,
                         const LocalSystem& sys) {
  ArmResult r;
  r.x.assign(static_cast<std::size_t>(sys.a.rows), 0.0);
  bool ok = false;
  r.seconds = timedMax(comm, backendInfo(backend).portSpan, [&] {
    const std::string instance = "sample";
    {
      const trace::Span span("cca.instantiate");
      fw.instantiate(instance, backendInfo(backend).component);
    }
    std::shared_ptr<lisi::SparseSolver> port;
    {
      const trace::Span span("cca.get_port");
      port = fw.getProvidesPortAs<lisi::SparseSolver>(
          instance, lisi::kSparseSolverPortName);
    }
    const long handle = lisi::comm::registerHandle(comm);
    int rc = configurePort(*port, handle, backend, sys, false);
    bool converged = false;
    if (rc == 0) rc = portSequence(*port, sys, r.x, r.iterations, converged);
    port.reset();
    fw.destroy(instance);
    lisi::comm::releaseHandle(handle);
    ok = rc == 0 && converged;
  });
  r.ok = agreeOk(comm, ok);
  return r;
}

ArmResult nativeSolveFresh(const Comm& comm, Backend backend,
                           const LocalSystem& sys) {
  ArmResult r;
  r.x.assign(static_cast<std::size_t>(sys.a.rows), 0.0);
  bool ok = false;
  const auto b = std::span<const double>(sys.b);
  r.seconds = timedMax(comm, backendInfo(backend).nativeSpan, [&] {
    switch (backend) {
      case Backend::kPksp: {
        std::optional<DistCsrMatrix> a;
        pksp::KSP ksp = nullptr;
        {
          const trace::Span span("pksp.operator");
          a.emplace(comm, sys.globalN, sys.globalN, sys.startRow, sys.a);
          pksp::KSPCreate(comm, &ksp);
          pksp::KSPSetOperator(ksp, &*a);
          configureKsp(ksp);
        }
        int rc = 0;
        {
          const trace::Span span("pksp.ksp_solve");
          rc = pksp::KSPSolve(ksp, b, std::span<double>(r.x));
        }
        ok = kspConverged(ksp, rc, r.iterations);
        pksp::KSPDestroy(&ksp);
        break;
      }
      case Backend::kAztec: {
        std::optional<aztec::Map> map;
        std::optional<aztec::CrsMatrix> a;
        std::optional<aztec::Vector> x;
        std::optional<aztec::Vector> bv;
        {
          const trace::Span span("aztec.operator");
          map.emplace(sys.globalN, sys.a.rows, comm);
          a.emplace(*map, sys.a);
          x.emplace(*map);
          bv.emplace(*map, b);
        }
        aztec::AztecOO solver(*a, *x, *bv);
        configureAztec(solver);
        int rc = 0;
        {
          const trace::Span span("aztec.iterate");
          rc = solver.iterate(kMaxIts, kTol);
        }
        r.iterations = solver.numIters();
        const auto xs = x->localView();
        r.x.assign(xs.begin(), xs.end());
        ok = rc == 0;
        break;
      }
      case Backend::kSlu: {
        const DistCsrMatrix a(comm, sys.globalN, sys.globalN, sys.startRow,
                              sys.a);
        std::optional<slu::Factorization> factor;
        ok = sluDistributedSolve(comm, a, factor, b, r.x);
        break;
      }
      case Backend::kHymg: {
        std::optional<hymg::Solver> mg;
        {
          const trace::Span span("hymg.setup");
          mg.emplace(comm, sys.gridN, paperStencil(), hymg::Options{});
        }
        if (mg->fineLocalRows() != sys.a.rows) break;  // partition mismatch
        hymg::SolveInfo info;
        {
          const trace::Span span("hymg.solve");
          info = mg->solve(b, std::span<double>(r.x), kTol, kMaxCycles);
        }
        r.iterations = info.cycles;
        ok = info.converged;
        break;
      }
    }
  });
  r.ok = agreeOk(comm, ok);
  return r;
}

// ---- persistent port component ------------------------------------------

PortStepper::PortStepper(const Comm& comm, cca::Framework& fw,
                         Backend backend, const LocalSystem& sys)
    : comm_(comm),
      fw_(fw),
      backend_(backend),
      instance_(std::string("step_") + backendInfo(backend).name) {
  {
    const trace::Span span("cca.instantiate");
    fw_.instantiate(instance_, backendInfo(backend).component);
  }
  {
    const trace::Span span("cca.get_port");
    port_ = fw_.getProvidesPortAs<lisi::SparseSolver>(
        instance_, lisi::kSparseSolverPortName);
  }
  handle_ = lisi::comm::registerHandle(comm_);
  const int rc = configurePort(*port_, handle_, backend, sys, true);
  LISI_CHECK(agreeOk(comm_, rc == 0), "port configuration failed");
}

PortStepper::~PortStepper() {
  port_.reset();
  fw_.destroy(instance_);
  lisi::comm::releaseHandle(handle_);
}

ArmResult PortStepper::step(const LocalSystem& sys, std::vector<double>& x) {
  ArmResult r;
  bool ok = false;
  r.seconds = timedMax(comm_, backendInfo(backend_).portSpan, [&] {
    bool converged = false;
    const int rc = portSequence(*port_, sys, x, r.iterations, converged);
    ok = rc == 0 && converged;
  });
  r.ok = agreeOk(comm_, ok);
  r.x = x;
  return r;
}

// ---- persistent native objects ------------------------------------------

struct NativeStepper::State {
  Comm comm;
  Backend backend;
  // pksp and slu
  std::optional<DistCsrMatrix> a;
  pksp::KSP ksp = nullptr;
  std::optional<slu::Factorization> factor;  // rank 0 only
  // aztec
  std::optional<aztec::Map> map;
  std::optional<aztec::CrsMatrix> crs;
  // hymg
  std::optional<hymg::Solver> mg;

  ~State() {
    if (ksp != nullptr) pksp::KSPDestroy(&ksp);
  }
};

NativeStepper::NativeStepper(const Comm& comm, Backend backend,
                             const LocalSystem& sys)
    : state_(std::make_unique<State>()) {
  State& s = *state_;
  s.comm = comm;
  s.backend = backend;
  switch (backend) {
    case Backend::kPksp:
      s.a.emplace(comm, sys.globalN, sys.globalN, sys.startRow, sys.a);
      pksp::KSPCreate(comm, &s.ksp);
      pksp::KSPSetOperator(s.ksp, &*s.a);
      configureKsp(s.ksp);
      pksp::KSPSetInitialGuessNonzero(s.ksp, true);
      break;
    case Backend::kAztec:
      s.map.emplace(sys.globalN, sys.a.rows, comm);
      s.crs.emplace(*s.map, sys.a);
      break;
    case Backend::kSlu:
      s.a.emplace(comm, sys.globalN, sys.globalN, sys.startRow, sys.a);
      break;
    case Backend::kHymg: {
      const trace::Span span("hymg.setup");
      s.mg.emplace(comm, sys.gridN, paperStencil(), hymg::Options{});
      LISI_CHECK(agreeOk(comm, s.mg->fineLocalRows() == sys.a.rows),
                 "hymg partition differs from the assembled system");
      break;
    }
  }
}

NativeStepper::~NativeStepper() = default;

ArmResult NativeStepper::step(const LocalSystem& sys, std::vector<double>& x) {
  State& s = *state_;
  ArmResult r;
  bool ok = false;
  const auto b = std::span<const double>(sys.b);
  r.seconds = timedMax(s.comm, backendInfo(s.backend).nativeSpan, [&] {
    switch (s.backend) {
      case Backend::kPksp: {
        {
          const trace::Span span("pksp.operator");
          s.a->updateValues(sys.a);
          pksp::KSPSetOperator(s.ksp, &*s.a, pksp::PKSP_SAME_NONZERO_PATTERN);
        }
        int rc = 0;
        {
          const trace::Span span("pksp.ksp_solve");
          rc = pksp::KSPSolve(s.ksp, b, std::span<double>(x));
        }
        ok = kspConverged(s.ksp, rc, r.iterations);
        break;
      }
      case Backend::kAztec: {
        {
          const trace::Span span("aztec.operator");
          s.crs->replaceValues(sys.a);
        }
        aztec::Vector xv(*s.map, std::span<const double>(x));
        const aztec::Vector bv(*s.map, b);
        aztec::AztecOO solver(*s.crs, xv, bv);
        configureAztec(solver);
        int rc = 0;
        {
          const trace::Span span("aztec.iterate");
          rc = solver.iterate(kMaxIts, kTol);
        }
        r.iterations = solver.numIters();
        const auto xs = xv.localView();
        x.assign(xs.begin(), xs.end());
        ok = rc == 0;
        break;
      }
      case Backend::kSlu:
        s.a->updateValues(sys.a);
        ok = sluDistributedSolve(s.comm, *s.a, s.factor, b, x);
        break;
      case Backend::kHymg: {
        {
          const trace::Span span("hymg.setup");
          s.mg->refreshOperator(paperStencil());
        }
        hymg::SolveInfo info;
        {
          const trace::Span span("hymg.solve");
          info = s.mg->solve(b, std::span<double>(x), kTol, kMaxCycles);
        }
        r.iterations = info.cycles;
        ok = info.converged;
        break;
      }
    }
  });
  r.ok = agreeOk(s.comm, ok);
  r.x = x;
  return r;
}

}  // namespace lisibench
