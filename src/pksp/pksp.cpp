// PKSP public API: handle lifecycle, configuration, options-string parsing,
// and the solve dispatcher.
#include "pksp/pksp.hpp"

#include <atomic>
#include <cmath>
#include <sstream>

#include "pksp/pksp_internal.hpp"
#include "support/prec.hpp"
#include "support/string_util.hpp"

namespace pksp {

using detail::LinearOperator;
using detail::Preconditioner;
using detail::SolveReport;
using detail::Tolerances;

/// The state behind a KSP handle.
struct PkspSolver {
  lisi::comm::Comm comm;

  std::unique_ptr<LinearOperator> op;
  PkspType type = PKSP_GMRES;
  PkspPcType pcType = PKSP_PC_NONE;
  Tolerances tol;
  int restart = 30;
  double sorOmega = 1.0;
  int sorSweeps = 1;
  bool nonzeroGuess = false;
  bool reusePc = false;
  PkspPipelineMode pipeline = PKSP_PIPELINE_OFF;
  PkspPrecision precision = PKSP_PRECISION_DOUBLE;

  // Built lazily at solve time (the operator may change between solves).
  std::unique_ptr<Preconditioner> pc;
  bool pcStale = true;
  /// Set by KSPSetOperator(..., PKSP_SAME_NONZERO_PATTERN): the next solve
  /// value-refreshes the built preconditioner instead of rebuilding it.
  bool pcRefreshPending = false;
  int pcBuilds = 0;     ///< full preconditioner constructions on this handle
  int pcRefreshes = 0;  ///< in-place same-pattern refreshes on this handle

  SolveReport lastReport;
  double lastTrueResidual = 0.0;

  PkspMonitorFn monitor = nullptr;
  void* monitorCtx = nullptr;
  std::vector<double> residualHistory;
};

namespace {

// Process-wide twin of PkspSolver::pcRefreshes (relaxed: a monotonic
// counter read between worlds, after the rank threads joined).
std::atomic<long long> gPcRefreshes{0};

int guard(KSP ksp) { return ksp == nullptr ? PKSP_ERR_ARG : PKSP_SUCCESS; }

/// Build (or rebuild) the preconditioner for the current operator/config.
int buildPc(KSP ksp) {
  const lisi::sparse::DistCsrMatrix* a = ksp->op->matrix();
  try {
    switch (ksp->pcType) {
      case PKSP_PC_NONE:
        ksp->pc = std::make_unique<detail::IdentityPc>();
        break;
      case PKSP_PC_JACOBI:
        if (!a) return PKSP_ERR_UNSUPPORTED;  // shell operators: PC_NONE only
        ksp->pc = detail::makeJacobi(*a);
        break;
      case PKSP_PC_SOR:
        if (!a) return PKSP_ERR_UNSUPPORTED;
        ksp->pc = detail::makeLocalSor(*a, ksp->sorOmega, ksp->sorSweeps);
        break;
      case PKSP_PC_ILU0:
      case PKSP_PC_BJACOBI:
        if (!a) return PKSP_ERR_UNSUPPORTED;
        ksp->pc = detail::makeLocalIlu0(*a);
        break;
      default:
        return PKSP_ERR_ARG;
    }
  } catch (const lisi::Error&) {
    return PKSP_ERR_NUMERIC;
  }
  ksp->pc->setLowPrecision(ksp->precision == PKSP_PRECISION_MIXED);
  ksp->pcStale = false;
  ksp->pcRefreshPending = false;
  ++ksp->pcBuilds;
  lisi::obs::count("pksp.pc_builds");
  return PKSP_SUCCESS;
}

const char* typeName(PkspType t) {
  switch (t) {
    case PKSP_RICHARDSON: return "richardson";
    case PKSP_CG: return "cg";
    case PKSP_GMRES: return "gmres";
    case PKSP_BICGSTAB: return "bicgstab";
  }
  return "?";
}

/// Resolve the effective pipelining decision for this solve.  AUTO enables
/// the communication-hiding loops only when there is communication to hide.
bool usePipelined(const PkspSolver& ksp) {
  switch (ksp.pipeline) {
    case PKSP_PIPELINE_OFF: return false;
    case PKSP_PIPELINE_ON: return true;
    case PKSP_PIPELINE_AUTO: return ksp.comm.size() > 1;
  }
  return false;
}

/// Lazy preconditioner setup shared by KSPSolve and KSPSolveMulti: full
/// rebuild when stale, in-place value refresh on the SAME_NONZERO_PATTERN
/// path, falling back to a rebuild when the refresh is unsupported.
int setupPc(KSP ksp) {
  if (ksp->pcStale) return buildPc(ksp);
  if (ksp->pcRefreshPending) {
    ksp->pcRefreshPending = false;
    const lisi::sparse::DistCsrMatrix* a = ksp->op->matrix();
    bool refreshed = false;
    try {
      refreshed = (a != nullptr) && ksp->pc->refresh(*a);
    } catch (const lisi::Error&) {
      return PKSP_ERR_NUMERIC;
    }
    if (refreshed) {
      ++ksp->pcRefreshes;
      gPcRefreshes.fetch_add(1, std::memory_order_relaxed);
      lisi::obs::count("pksp.pc_refreshes");
      return PKSP_SUCCESS;
    }
    return buildPc(ksp);
  }
  return PKSP_SUCCESS;
}

const char* pcName(PkspPcType t) {
  switch (t) {
    case PKSP_PC_NONE: return "none";
    case PKSP_PC_JACOBI: return "jacobi";
    case PKSP_PC_SOR: return "sor";
    case PKSP_PC_ILU0: return "ilu0";
    case PKSP_PC_BJACOBI: return "bjacobi";
  }
  return "?";
}

}  // namespace

int KSPCreate(const lisi::comm::Comm& comm, KSP* outKsp) {
  if (outKsp == nullptr || !comm.valid()) return PKSP_ERR_ARG;
  *outKsp = new PkspSolver{};
  (*outKsp)->comm = comm;
  return PKSP_SUCCESS;
}

int KSPDestroy(KSP* ksp) {
  if (ksp == nullptr) return PKSP_ERR_ARG;
  delete *ksp;
  *ksp = nullptr;
  return PKSP_SUCCESS;
}

int KSPSetOperator(KSP ksp, const lisi::sparse::DistCsrMatrix* a) {
  return KSPSetOperator(ksp, a, PKSP_DIFFERENT_NONZERO_PATTERN);
}

int KSPSetOperator(KSP ksp, const lisi::sparse::DistCsrMatrix* a,
                   PkspMatStructure structure) {
  if (guard(ksp) != PKSP_SUCCESS || a == nullptr) return PKSP_ERR_ARG;
  if (a->globalRows() != a->globalCols()) return PKSP_ERR_ARG;
  ksp->op = std::make_unique<detail::MatrixOperator>(a);
  switch (structure) {
    case PKSP_SAME_PRECONDITIONER:
      // Caller vouches the operator content is unchanged: keep the built
      // preconditioner exactly as it is (build lazily if none exists yet).
      if (!ksp->pc) ksp->pcStale = true;
      break;
    case PKSP_SAME_NONZERO_PATTERN:
      // reusePc still wins: a frozen preconditioner is not even refreshed.
      if (ksp->reusePc && ksp->pc) break;
      if (ksp->pc && !ksp->pcStale) {
        ksp->pcRefreshPending = true;
      } else {
        ksp->pcStale = true;
      }
      break;
    case PKSP_DIFFERENT_NONZERO_PATTERN:
      // Even a reused preconditioner is rebuilt: it views the pattern of
      // the operator it was built from, which need not outlive this call.
      ksp->pcStale = true;
      break;
    default:
      return PKSP_ERR_ARG;
  }
  return PKSP_SUCCESS;
}

int KSPSetOperatorShell(KSP ksp, PkspShellMatVec matvec, void* ctx,
                        int localRows) {
  if (guard(ksp) != PKSP_SUCCESS || matvec == nullptr || localRows < 0) {
    return PKSP_ERR_ARG;
  }
  ksp->op = std::make_unique<detail::ShellOperator>(matvec, ctx, localRows);
  ksp->pcStale = true;
  return PKSP_SUCCESS;
}

int KSPSetType(KSP ksp, PkspType type) {
  if (guard(ksp) != PKSP_SUCCESS) return PKSP_ERR_ARG;
  switch (type) {
    case PKSP_RICHARDSON:
    case PKSP_CG:
    case PKSP_GMRES:
    case PKSP_BICGSTAB:
      ksp->type = type;
      return PKSP_SUCCESS;
  }
  return PKSP_ERR_ARG;
}

int KSPSetPCType(KSP ksp, PkspPcType type) {
  if (guard(ksp) != PKSP_SUCCESS) return PKSP_ERR_ARG;
  switch (type) {
    case PKSP_PC_NONE:
    case PKSP_PC_JACOBI:
    case PKSP_PC_SOR:
    case PKSP_PC_ILU0:
    case PKSP_PC_BJACOBI:
      // Re-selecting the current type keeps the built preconditioner: the
      // LISI port re-applies its whole parameter table before every solve.
      if (ksp->pcType != type) {
        ksp->pcType = type;
        ksp->pcStale = true;
      }
      return PKSP_SUCCESS;
  }
  return PKSP_ERR_ARG;
}

int KSPSetTolerances(KSP ksp, double rtol, double atol, int maxits) {
  if (guard(ksp) != PKSP_SUCCESS) return PKSP_ERR_ARG;
  if (rtol >= 0) ksp->tol.rtol = rtol;
  if (atol >= 0) ksp->tol.atol = atol;
  if (maxits >= 0) ksp->tol.maxits = maxits;
  return PKSP_SUCCESS;
}

int KSPSetRestart(KSP ksp, int restart) {
  if (guard(ksp) != PKSP_SUCCESS || restart < 1) return PKSP_ERR_ARG;
  ksp->restart = restart;
  return PKSP_SUCCESS;
}

int KSPSetSorOptions(KSP ksp, double omega, int sweeps) {
  if (guard(ksp) != PKSP_SUCCESS) return PKSP_ERR_ARG;
  if (omega <= 0.0 || omega >= 2.0 || sweeps < 1) return PKSP_ERR_ARG;
  if (ksp->sorOmega != omega || ksp->sorSweeps != sweeps) {
    ksp->sorOmega = omega;
    ksp->sorSweeps = sweeps;
    ksp->pcStale = true;
  }
  return PKSP_SUCCESS;
}

int KSPSetInitialGuessNonzero(KSP ksp, bool flag) {
  if (guard(ksp) != PKSP_SUCCESS) return PKSP_ERR_ARG;
  ksp->nonzeroGuess = flag;
  return PKSP_SUCCESS;
}

int KSPSetReusePreconditioner(KSP ksp, bool flag) {
  if (guard(ksp) != PKSP_SUCCESS) return PKSP_ERR_ARG;
  ksp->reusePc = flag;
  return PKSP_SUCCESS;
}

int KSPSetPipeline(KSP ksp, PkspPipelineMode mode) {
  if (guard(ksp) != PKSP_SUCCESS) return PKSP_ERR_ARG;
  switch (mode) {
    case PKSP_PIPELINE_OFF:
    case PKSP_PIPELINE_ON:
    case PKSP_PIPELINE_AUTO:
      ksp->pipeline = mode;
      return PKSP_SUCCESS;
  }
  return PKSP_ERR_ARG;
}

int KSPSetPrecision(KSP ksp, PkspPrecision precision) {
  if (guard(ksp) != PKSP_SUCCESS) return PKSP_ERR_ARG;
  switch (precision) {
    case PKSP_PRECISION_DOUBLE:
    case PKSP_PRECISION_MIXED:
      if (ksp->precision != precision) {
        ksp->precision = precision;
        ksp->pcStale = true;
      }
      return PKSP_SUCCESS;
  }
  return PKSP_ERR_ARG;
}

int KSPSetFromString(KSP ksp, const char* options) {
  if (guard(ksp) != PKSP_SUCCESS || options == nullptr) return PKSP_ERR_ARG;
  std::istringstream tokens{std::string(options)};
  std::string key;
  while (tokens >> key) {
    auto value = [&tokens]() -> std::string {
      std::string v;
      tokens >> v;
      return v;
    };
    if (key == "-ksp_type") {
      const std::string v = lisi::toLower(value());
      if (v == "richardson") KSPSetType(ksp, PKSP_RICHARDSON);
      else if (v == "cg") KSPSetType(ksp, PKSP_CG);
      else if (v == "gmres") KSPSetType(ksp, PKSP_GMRES);
      else if (v == "bicgstab" || v == "bcgs") KSPSetType(ksp, PKSP_BICGSTAB);
      else return PKSP_ERR_UNSUPPORTED;
    } else if (key == "-pc_type") {
      const std::string v = lisi::toLower(value());
      if (v == "none") KSPSetPCType(ksp, PKSP_PC_NONE);
      else if (v == "jacobi") KSPSetPCType(ksp, PKSP_PC_JACOBI);
      else if (v == "sor") KSPSetPCType(ksp, PKSP_PC_SOR);
      else if (v == "ilu" || v == "ilu0") KSPSetPCType(ksp, PKSP_PC_ILU0);
      else if (v == "bjacobi") KSPSetPCType(ksp, PKSP_PC_BJACOBI);
      else return PKSP_ERR_UNSUPPORTED;
    } else if (key == "-ksp_rtol") {
      const auto v = lisi::parseDouble(value());
      if (!v) return PKSP_ERR_ARG;
      KSPSetTolerances(ksp, *v, -1, -1);
    } else if (key == "-ksp_atol") {
      const auto v = lisi::parseDouble(value());
      if (!v) return PKSP_ERR_ARG;
      KSPSetTolerances(ksp, -1, *v, -1);
    } else if (key == "-ksp_max_it") {
      const auto v = lisi::parseInt(value());
      if (!v) return PKSP_ERR_ARG;
      KSPSetTolerances(ksp, -1, -1, static_cast<int>(*v));
    } else if (key == "-ksp_gmres_restart") {
      const auto v = lisi::parseInt(value());
      if (!v || *v < 1) return PKSP_ERR_ARG;
      KSPSetRestart(ksp, static_cast<int>(*v));
    } else if (key == "-pc_sor_omega") {
      const auto v = lisi::parseDouble(value());
      if (!v) return PKSP_ERR_ARG;
      if (KSPSetSorOptions(ksp, *v, ksp->sorSweeps) != PKSP_SUCCESS) {
        return PKSP_ERR_ARG;
      }
    } else if (key == "-ksp_initial_guess_nonzero") {
      const auto v = lisi::parseBool(value());
      if (!v) return PKSP_ERR_ARG;
      KSPSetInitialGuessNonzero(ksp, *v);
    } else if (key == "-ksp_precision") {
      const std::string v = lisi::toLower(value());
      if (v == "double" || v == "fp64" || v == "float64") {
        KSPSetPrecision(ksp, PKSP_PRECISION_DOUBLE);
      } else if (v == "mixed" || v == "fp32" || v == "float32") {
        KSPSetPrecision(ksp, PKSP_PRECISION_MIXED);
      } else {
        return PKSP_ERR_UNSUPPORTED;
      }
    } else if (key == "-ksp_pipeline") {
      const std::string v = lisi::toLower(value());
      if (v == "auto") {
        KSPSetPipeline(ksp, PKSP_PIPELINE_AUTO);
      } else if (const auto flag = lisi::parseBool(v)) {
        KSPSetPipeline(ksp, *flag ? PKSP_PIPELINE_ON : PKSP_PIPELINE_OFF);
      } else {
        return PKSP_ERR_ARG;
      }
    } else {
      return PKSP_ERR_UNSUPPORTED;
    }
  }
  return PKSP_SUCCESS;
}

int KSPSolve(KSP ksp, std::span<const double> bLocal,
             std::span<double> xLocal) {
  if (guard(ksp) != PKSP_SUCCESS) return PKSP_ERR_ARG;
  if (!ksp->op) return PKSP_ERR_ORDER;
  const auto n = static_cast<std::size_t>(ksp->op->localRows());
  if (bLocal.size() != n || xLocal.size() != n) return PKSP_ERR_ARG;

  {
    lisi::obs::Span pcSpan("pksp.pc_setup");
    const int rc = setupPc(ksp);
    if (rc != PKSP_SUCCESS) return rc;
  }
  if (!ksp->nonzeroGuess) {
    std::fill(xLocal.begin(), xLocal.end(), 0.0);
  }

  // Arm the per-iteration observer: records the residual history and relays
  // to the user monitor if one is set.
  ksp->residualHistory.clear();
  // Reset the report before running: if the method throws below, the caller
  // must see this solve as not-converged, not the previous solve's stats.
  ksp->lastReport = SolveReport{};
  ksp->lastTrueResidual = 0.0;
  Tolerances tol = ksp->tol;
  tol.monitor = [ksp](int iteration, double rnorm) {
    if (static_cast<std::size_t>(iteration) >= ksp->residualHistory.size()) {
      ksp->residualHistory.resize(static_cast<std::size_t>(iteration) + 1);
    }
    ksp->residualHistory[static_cast<std::size_t>(iteration)] = rnorm;
    if (ksp->monitor) ksp->monitor(ksp->monitorCtx, iteration, rnorm);
  };

  const bool pipelined = usePipelined(*ksp);
  try {
    lisi::obs::Span iterSpan("pksp.iterate");
    // Mixed precision: the float32 preconditioner apply is not exactly
    // linear (rounding), which perturbs the Krylov recurrences — the
    // method's tracked norm can declare convergence while the true residual
    // stalls near the float32 perturbation floor.  The float64 convergence
    // decision therefore lives HERE: compute the float64 target
    // max(rtol*||z_0||, atol) up front, and after the method reports
    // convergence verify the recomputed preconditioned residual against it,
    // re-entering the method with the current iterate as the guess (defect
    // correction — each round renormalizes, so the float32 floor is
    // relative to the shrinking defect) until the criterion truly holds.
    const bool mixedRefine = ksp->precision == PKSP_PRECISION_MIXED;
    constexpr int kMaxRefineRounds = 4;
    double target = 0.0;
    if (mixedRefine) {
      std::vector<double> r0(n);
      std::vector<double> z0(n);
      ksp->op->apply(xLocal, std::span<double>(r0));
      for (std::size_t i = 0; i < n; ++i) r0[i] = bLocal[i] - r0[i];
      ksp->pc->apply(std::span<const double>(r0), std::span<double>(z0));
      target = std::max(
          tol.rtol * lisi::sparse::distNorm2(ksp->comm,
                                             std::span<const double>(z0)),
          tol.atol);
    }
    Tolerances roundTol = tol;
    int totalIters = 0;
    for (int round = 0;; ++round) {
      switch (ksp->type) {
        case PKSP_CG:
          ksp->lastReport =
              pipelined ? detail::runPipelinedCg(ksp->comm, *ksp->op, *ksp->pc,
                                                 bLocal, xLocal, roundTol)
                        : detail::runCg(ksp->comm, *ksp->op, *ksp->pc, bLocal,
                                        xLocal, roundTol);
          break;
        case PKSP_GMRES:
          ksp->lastReport =
              detail::runGmres(ksp->comm, *ksp->op, *ksp->pc, bLocal, xLocal,
                               roundTol, ksp->restart);
          break;
        case PKSP_BICGSTAB:
          ksp->lastReport =
              pipelined ? detail::runPipelinedBiCgStab(ksp->comm, *ksp->op,
                                                       *ksp->pc, bLocal,
                                                       xLocal, roundTol)
                        : detail::runBiCgStab(ksp->comm, *ksp->op, *ksp->pc,
                                              bLocal, xLocal, roundTol);
          break;
        case PKSP_RICHARDSON:
          ksp->lastReport = detail::runRichardson(ksp->comm, *ksp->op,
                                                  *ksp->pc, bLocal, xLocal,
                                                  roundTol);
          break;
        default:
          return PKSP_ERR_ARG;
      }
      totalIters += ksp->lastReport.iterations;
      // Recompute both diagnostic residuals against the iterate actually
      // returned in x.  The norm tracked inside the Krylov loops is carried
      // by recurrences (and, in the pipelined variants, evaluated one
      // reduction early), so at convergence it can be slightly stale
      // relative to the final iterate; recomputing keeps KSPGetResidualNorm
      // and the recorded report consistent with x.  Both lanes share one
      // fused reduction, and the unpreconditioned lane is bitwise identical
      // to the distNorm2 it replaces (reductions are elementwise).
      std::vector<double> r(n);
      std::vector<double> z(n);
      ksp->op->apply(xLocal, std::span<double>(r));
      for (std::size_t i = 0; i < n; ++i) r[i] = bLocal[i] - r[i];
      ksp->pc->apply(std::span<const double>(r), std::span<double>(z));
      const auto [rr, zz] = lisi::sparse::distDot2(
          ksp->comm, std::span<const double>(r), std::span<const double>(r),
          std::span<const double>(z), std::span<const double>(z));
      ksp->lastTrueResidual = std::sqrt(rr);
      ksp->lastReport.residualNorm = std::sqrt(zz);
      if (!mixedRefine || ksp->lastReport.reason <= 0) break;
      const double znorm = std::sqrt(zz);
      if (znorm <= target || round >= kMaxRefineRounds ||
          totalIters >= tol.maxits) {
        break;
      }
      // Only the remaining reduction is asked of the next round (its own
      // relative criterion restarts at the current defect).
      roundTol.rtol = std::min(0.5, 0.5 * target / znorm);
      roundTol.maxits = tol.maxits - totalIters;
      lisi::prec::noteRefineSweeps(1);
      lisi::obs::count("prec.refine_sweeps");
    }
    ksp->lastReport.iterations = totalIters;
  } catch (const lisi::Error&) {
    return PKSP_ERR_NUMERIC;
  }
  return ksp->lastReport.reason > 0 ? PKSP_SUCCESS : PKSP_ERR_NUMERIC;
}

int KSPSolveMulti(KSP ksp, std::span<const double> bLocal,
                  std::span<double> xLocal, int nRhs) {
  if (guard(ksp) != PKSP_SUCCESS || nRhs < 1) return PKSP_ERR_ARG;
  if (!ksp->op) return PKSP_ERR_ORDER;
  const auto n = static_cast<std::size_t>(ksp->op->localRows());
  const auto nv = static_cast<std::size_t>(nRhs);
  if (bLocal.size() != n * nv || xLocal.size() != n * nv) return PKSP_ERR_ARG;
  if (nRhs == 1) return KSPSolve(ksp, bLocal, xLocal);

  const lisi::sparse::DistCsrMatrix* a = ksp->op->matrix();
  const bool blocked = a != nullptr &&
                       (ksp->type == PKSP_CG || ksp->type == PKSP_GMRES) &&
                       ksp->precision == PKSP_PRECISION_DOUBLE;
  if (!blocked) {
    // No blocked kernel for this configuration: per-RHS loop with the same
    // results a caller-side loop would produce, aggregated diagnostics.
    SolveReport agg;
    double trueRes = 0.0;
    int rc = PKSP_SUCCESS;
    for (std::size_t k = 0; k < nv; ++k) {
      const int rck =
          KSPSolve(ksp, bLocal.subspan(k * n, n), xLocal.subspan(k * n, n));
      if (rc == PKSP_SUCCESS && rck != PKSP_SUCCESS) rc = rck;
      agg.iterations = std::max(agg.iterations, ksp->lastReport.iterations);
      agg.residualNorm =
          std::max(agg.residualNorm, ksp->lastReport.residualNorm);
      agg.reason = k == 0 ? ksp->lastReport.reason
                          : std::min(agg.reason, ksp->lastReport.reason);
      trueRes = std::max(trueRes, ksp->lastTrueResidual);
    }
    ksp->lastReport = agg;
    ksp->lastTrueResidual = trueRes;
    return rc;
  }

  {
    lisi::obs::Span pcSpan("pksp.pc_setup");
    const int rc = setupPc(ksp);
    if (rc != PKSP_SUCCESS) return rc;
  }
  if (!ksp->nonzeroGuess) {
    std::fill(xLocal.begin(), xLocal.end(), 0.0);
  }
  ksp->residualHistory.clear();
  ksp->lastReport = SolveReport{};
  ksp->lastTrueResidual = 0.0;
  Tolerances tol = ksp->tol;
  tol.monitor = [ksp](int iteration, double rnorm) {
    if (static_cast<std::size_t>(iteration) >= ksp->residualHistory.size()) {
      ksp->residualHistory.resize(static_cast<std::size_t>(iteration) + 1);
    }
    ksp->residualHistory[static_cast<std::size_t>(iteration)] = rnorm;
    if (ksp->monitor) ksp->monitor(ksp->monitorCtx, iteration, rnorm);
  };

  try {
    lisi::obs::Span iterSpan("pksp.iterate_multi",
                             static_cast<std::uint64_t>(nRhs));
    lisi::obs::count("pksp.blocked_solves");
    std::vector<SolveReport> reps =
        ksp->type == PKSP_CG
            ? detail::runBlockedCg(ksp->comm, *a, *ksp->pc, bLocal, xLocal,
                                   nRhs, tol)
            : detail::runBlockedGmres(ksp->comm, *a, *ksp->pc, bLocal, xLocal,
                                      nRhs, tol, ksp->restart);
    // Recompute both diagnostic residuals of every lane against the
    // returned iterates (same policy as KSPSolve), with one block matvec
    // and one fused reduction for the whole batch.
    std::vector<double> r(n * nv);
    std::vector<double> z(n * nv);
    a->spmvMulti(xLocal, std::span<double>(r), nRhs);
    for (std::size_t i = 0; i < n * nv; ++i) r[i] = bLocal[i] - r[i];
    std::vector<std::size_t> lanes(nv);
    for (std::size_t k = 0; k < nv; ++k) lanes[k] = k;
    ksp->pc->applyLanes(r, z, lanes, n);
    std::vector<lisi::sparse::DotArgs> dots;
    dots.reserve(2 * nv);
    for (std::size_t k = 0; k < nv; ++k) {
      const std::span<const double> rk =
          std::span<const double>(r).subspan(k * n, n);
      const std::span<const double> zk =
          std::span<const double>(z).subspan(k * n, n);
      dots.push_back({rk, rk});
      dots.push_back({zk, zk});
    }
    std::vector<double> norms(dots.size());
    lisi::sparse::distDots(ksp->comm, dots, norms);
    SolveReport agg;
    for (std::size_t k = 0; k < nv; ++k) {
      reps[k].residualNorm = std::sqrt(norms[2 * k + 1]);
      agg.iterations = std::max(agg.iterations, reps[k].iterations);
      agg.residualNorm = std::max(agg.residualNorm, reps[k].residualNorm);
      agg.reason =
          k == 0 ? reps[k].reason : std::min(agg.reason, reps[k].reason);
      ksp->lastTrueResidual =
          std::max(ksp->lastTrueResidual, std::sqrt(norms[2 * k]));
    }
    ksp->lastReport = agg;
  } catch (const lisi::Error&) {
    return PKSP_ERR_NUMERIC;
  }
  return ksp->lastReport.reason > 0 ? PKSP_SUCCESS : PKSP_ERR_NUMERIC;
}

int KSPGetIterationNumber(KSP ksp, int* iters) {
  if (guard(ksp) != PKSP_SUCCESS || iters == nullptr) return PKSP_ERR_ARG;
  *iters = ksp->lastReport.iterations;
  return PKSP_SUCCESS;
}

int KSPGetResidualNorm(KSP ksp, double* norm) {
  if (guard(ksp) != PKSP_SUCCESS || norm == nullptr) return PKSP_ERR_ARG;
  *norm = ksp->lastTrueResidual;
  return PKSP_SUCCESS;
}

int KSPGetConvergedReason(KSP ksp, PkspConvergedReason* reason) {
  if (guard(ksp) != PKSP_SUCCESS || reason == nullptr) return PKSP_ERR_ARG;
  *reason = ksp->lastReport.reason;
  return PKSP_SUCCESS;
}

int KSPSetMonitor(KSP ksp, PkspMonitorFn monitor, void* ctx) {
  if (guard(ksp) != PKSP_SUCCESS) return PKSP_ERR_ARG;
  ksp->monitor = monitor;
  ksp->monitorCtx = ctx;
  return PKSP_SUCCESS;
}

int KSPGetResidualHistory(KSP ksp, const double** history, int* count) {
  if (guard(ksp) != PKSP_SUCCESS || history == nullptr || count == nullptr) {
    return PKSP_ERR_ARG;
  }
  *history = ksp->residualHistory.data();
  *count = static_cast<int>(ksp->residualHistory.size());
  return PKSP_SUCCESS;
}

long long pcRefreshesTotal() {
  return gPcRefreshes.load(std::memory_order_relaxed);
}

int KSPGetPCSetupCounts(KSP ksp, int* builds, int* refreshes) {
  if (guard(ksp) != PKSP_SUCCESS) return PKSP_ERR_ARG;
  if (builds != nullptr) *builds = ksp->pcBuilds;
  if (refreshes != nullptr) *refreshes = ksp->pcRefreshes;
  return PKSP_SUCCESS;
}

int KSPGetDescription(KSP ksp, std::string* description) {
  if (guard(ksp) != PKSP_SUCCESS || description == nullptr) return PKSP_ERR_ARG;
  std::ostringstream os;
  os << typeName(ksp->type);
  if (ksp->type == PKSP_GMRES) os << '(' << ksp->restart << ')';
  if (ksp->pipeline != PKSP_PIPELINE_OFF &&
      (ksp->type == PKSP_CG || ksp->type == PKSP_BICGSTAB)) {
    os << "[pipelined" << (ksp->pipeline == PKSP_PIPELINE_AUTO ? ":auto" : "")
       << ']';
  }
  os << '+' << pcName(ksp->pcType);
  if (ksp->precision == PKSP_PRECISION_MIXED) os << "[fp32]";
  os << " rtol=" << ksp->tol.rtol
     << " atol=" << ksp->tol.atol << " maxits=" << ksp->tol.maxits;
  *description = os.str();
  return PKSP_SUCCESS;
}

}  // namespace pksp
