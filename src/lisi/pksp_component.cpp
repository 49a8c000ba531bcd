// LISI solver component backed by PKSP (the PETSc-KSP-analogue package).
// This is the adapter the paper's "TOPS/PETSc solver component" corresponds
// to: it translates the generic LISI parameter keys into PKSP's C API calls
// and supports the matrix-free path through PKSP's shell operator.
#include "lisi/solver_base.hpp"
#include "pksp/pksp.hpp"

namespace lisi {
namespace {

class PkspSolverPort final : public detail::SolverComponentBase {
 public:
  ~PkspSolverPort() override { pksp::KSPDestroy(&ksp_); }

 protected:
  const char* backendName() const override { return "pksp"; }
  bool supportsMatrixFree() const override { return true; }

  bool acceptsParam(const std::string& key) const override {
    return SolverComponentBase::acceptsParam(key) || key == "restart" ||
           key == "sor_omega" || key == "sor_sweeps";
  }

  int backendSolve(const detail::SolveContext& ctx, std::span<const double> b,
                   std::span<double> x, detail::BackendStats& stats) override {
    const int rc = configure(ctx);
    if (rc != static_cast<int>(ErrorCode::kOk)) return rc;
    return finish(pksp::KSPSolve(ksp_, b, x), stats);
  }

  int backendSolveMulti(const detail::SolveContext& ctx,
                        std::span<const double> b, std::span<double> x,
                        int nRhs, detail::BackendStats& stats) override {
    // The whole batch goes through KSPSolveMulti: lockstep kernels (one
    // halo exchange + fused reductions per iteration across all lanes)
    // where CG/GMRES has them, its per-lane loop otherwise; one lane is
    // KSPSolve.  Each lane is bitwise its single-RHS solve.
    const int rc = configure(ctx);
    if (rc != static_cast<int>(ErrorCode::kOk)) return rc;
    return finish(pksp::KSPSolveMulti(ksp_, b, x, nRhs), stats);
  }

 private:
  /// Push the parameter table and operator into the PKSP handle.
  int configure(const detail::SolveContext& ctx) {
    using namespace pksp;
    if (ksp_ == nullptr) {
      if (KSPCreate(*ctx.comm, &ksp_) != PKSP_SUCCESS) {
        return static_cast<int>(ErrorCode::kInternal);
      }
    }
    // Method / preconditioner selection from the generic parameter table.
    const std::string method = paramString("solver", "gmres");
    PkspType type = PKSP_GMRES;
    if (method == "cg") type = PKSP_CG;
    else if (method == "gmres") type = PKSP_GMRES;
    else if (method == "bicgstab") type = PKSP_BICGSTAB;
    else if (method == "richardson") type = PKSP_RICHARDSON;
    else return static_cast<int>(ErrorCode::kInvalidArgument);

    const std::string pc = paramString("preconditioner", "none");
    PkspPcType pcType = PKSP_PC_NONE;
    if (pc == "none") pcType = PKSP_PC_NONE;
    else if (pc == "jacobi") pcType = PKSP_PC_JACOBI;
    else if (pc == "sor") pcType = PKSP_PC_SOR;
    else if (pc == "ilu" || pc == "ilu0") pcType = PKSP_PC_ILU0;
    else if (pc == "bjacobi") pcType = PKSP_PC_BJACOBI;
    else return static_cast<int>(ErrorCode::kInvalidArgument);

    KSPSetType(ksp_, type);
    KSPSetPCType(ksp_, pcType);
    KSPSetTolerances(ksp_, paramDouble("tol", 1e-6), paramDouble("atol", 1e-50),
                     paramInt("maxits", 10000));
    KSPSetRestart(ksp_, paramInt("restart", 30));
    if (KSPSetSorOptions(ksp_, paramDouble("sor_omega", 1.0),
                         paramInt("sor_sweeps", 1)) != PKSP_SUCCESS) {
      return static_cast<int>(ErrorCode::kInvalidArgument);
    }
    KSPSetInitialGuessNonzero(ksp_, paramBool("use_initial_guess", false));
    KSPSetReusePreconditioner(ksp_, paramBool("reuse_preconditioner", false));

    // Mixed precision (solver_base resolved the "precision" parameter /
    // LISI_PRECISION): float32 SOR/ILU(0) preconditioner application under
    // the float64 Krylov iteration.
    KSPSetPrecision(ksp_, ctx.precision == prec::Mode::kMixed
                              ? PKSP_PRECISION_MIXED
                              : PKSP_PRECISION_DOUBLE);

    if (ctx.matrixFree != nullptr) {
      KSPSetOperatorShell(ksp_, &shellApply, ctx.matrixFree, ctx.localRows);
    } else {
      // Map the framework's operator-change contract onto PKSP's
      // KSPSetOperators-style structure flag so the preconditioner is
      // kept (same operator), value-refreshed (same pattern), or rebuilt.
      PkspMatStructure ms = PKSP_DIFFERENT_NONZERO_PATTERN;
      if (ctx.change == detail::OperatorChange::kSameOperator) {
        ms = PKSP_SAME_PRECONDITIONER;
      } else if (ctx.change == detail::OperatorChange::kSameStructure) {
        ms = PKSP_SAME_NONZERO_PATTERN;
      }
      KSPSetOperator(ksp_, ctx.matrix.get(), ms);
    }
    return static_cast<int>(ErrorCode::kOk);
  }

  /// Translate a KSPSolve/KSPSolveMulti return code and fill the stats.
  int finish(int rc, detail::BackendStats& stats) {
    using namespace pksp;
    PkspConvergedReason reason = PKSP_ITERATING;
    KSPGetConvergedReason(ksp_, &reason);
    KSPGetIterationNumber(ksp_, &stats.iterations);
    KSPGetResidualNorm(ksp_, &stats.residualNorm);
    stats.converged = reason > 0;
    if (rc == PKSP_ERR_UNSUPPORTED) {
      return static_cast<int>(ErrorCode::kUnsupported);
    }
    if (rc == PKSP_ERR_ARG || rc == PKSP_ERR_ORDER) {
      return static_cast<int>(ErrorCode::kInvalidArgument);
    }
    // Numeric failures are reported through stats.converged so the base can
    // still fill the status array.
    return static_cast<int>(ErrorCode::kOk);
  }

  static void shellApply(void* userCtx, const double* x, double* y, int n) {
    auto* mf = static_cast<MatrixFree*>(userCtx);
    const int rc =
        mf->matMult(OperatorId::kMatrix, RArray<const double>(x, n),
                    RArray<double>(y, n), n);
    LISI_CHECK(rc == 0, "MatrixFree::matMult failed");
  }

  pksp::KSP ksp_ = nullptr;
};

class PkspSolverComponent final : public cca::Component {
 public:
  void setServices(cca::Services& services) override {
    auto port = std::make_shared<PkspSolverPort>();
    port->attachServices(&services);
    services.addProvidesPort(port, kSparseSolverPortName,
                             kSparseSolverPortType);
    services.registerUsesPort(kMatrixFreePortName, kMatrixFreePortType);
  }
};

}  // namespace

namespace detail_registration {
void registerPksp() {
  cca::Framework::registerClass(kPkspComponentClass, [] {
    return std::make_shared<PkspSolverComponent>();
  });
}
}  // namespace detail_registration

}  // namespace lisi
