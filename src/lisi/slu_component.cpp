// LISI solver component backed by SLU (the SuperLU-analogue direct solver).
//
// SLU is sequential, so the adapter gathers the block-row distributed
// system onto rank 0, factors and solves there, and scatters the solution
// back — the interface contract (block rows in, block rows out) is
// identical to the iterative components', which is exactly the paper's
// point: the application cannot tell a direct component from an iterative
// one.  The factorization is cached and reused while the operator is
// unchanged (§5.2 use case b); a same-pattern value update reuses the
// symbolic analysis and replays only the numeric factorization.
#include "lisi/solver_base.hpp"
#include "obs/obs.hpp"
#include "slu/slu.hpp"
#include "sparse/convert.hpp"

namespace lisi {
namespace {

class SluSolverPort final : public detail::SolverComponentBase {
 protected:
  const char* backendName() const override { return "slu"; }

  bool acceptsParam(const std::string& key) const override {
    return SolverComponentBase::acceptsParam(key) || key == "ordering" ||
           key == "pivot_threshold" || key == "equilibrate";
  }

  int backendSolve(const detail::SolveContext& ctx, std::span<const double> b,
                   std::span<double> x, detail::BackendStats& stats) override {
    const sparse::DistCsrMatrix& a = *ctx.matrix;
    const bool isRoot = ctx.comm->rank() == 0;

    // Mixed precision: factor into float32 storage and wrap the float32
    // triangular solves in float64 iterative refinement against the kept
    // CSC operator.
    const bool mixed = ctx.precision == prec::Mode::kMixed;

    // The options this solve asks for.  Parameters agree across ranks (the
    // LISI contract), so every rank takes the same branches below.
    slu::Options opts;
    const std::string ord = paramString("ordering", "rcm");
    const bool knownOrdering =
        ord == "natural" || ord == "rcm" || ord == "mindeg";
    if (ord == "natural") opts.ordering = slu::Ordering::kNatural;
    else if (ord == "mindeg") opts.ordering = slu::Ordering::kMinDeg;
    opts.diagPivotThresh = paramDouble("pivot_threshold", 1.0);
    opts.equilibrate = paramBool("equilibrate", false);
    opts.lowPrecision = mixed;
    // A factorization built under other options (ordering, pivot threshold,
    // equilibration, storage precision) is not the one asked for: it is
    // rebuilt in full even when the operator is unchanged.
    const bool sameOptions =
        knownOrdering && haveFactor_ && opts == factorOptions_;

    if (ctx.change != detail::OperatorChange::kSameOperator || !sameOptions) {
      // The gathered CSR is only the conversion's input: it is freed before
      // the factorization grows its fill.
      sparse::CscMatrix csc;
      {
        const sparse::CsrMatrix global = a.gatherToRoot(0);
        if (isRoot) csc = sparse::csrToCsc(global);
      }
      int failed = 0;
      if (isRoot && !knownOrdering) {
        failed = static_cast<int>(ErrorCode::kInvalidArgument);
      } else if (isRoot) {
        try {
          // Same nonzero pattern and options: skip the symbolic phase and
          // replay the numeric factorization in the frozen ordering
          // (SamePattern_SameRowPerm).  Any defect — pattern drift, a pivot
          // that became zero — falls back to a full factorize.
          bool refactored = false;
          if (sameOptions &&
              ctx.change == detail::OperatorChange::kSameStructure) {
            try {
              factor_->refactorize(csc);
              refactored = true;
            } catch (const Error&) {
              refactored = false;
            }
          }
          if (!refactored) {
            factor_ = slu::Factorization::factorize(csc, opts);
          }
          // Iterative refinement needs the operator at every solve.
          if (mixed) {
            csc_ = std::move(csc);
          } else {
            csc_ = sparse::CscMatrix{};
          }
        } catch (const Error&) {
          failed = static_cast<int>(ErrorCode::kNumericFailure);
        }
      }
      failed = ctx.comm->bcastValue(failed, 0);
      haveFactor_ = failed == 0;
      if (failed != 0) return failed;
      factorOptions_ = opts;
    }

    // Gather b, solve on root, scatter x.
    const std::vector<double> bGlobal = a.gatherVectorToRoot(b, 0);
    std::vector<double> xGlobal;
    if (isRoot) {
      xGlobal.resize(bGlobal.size());
      if (mixed) {
        // Float32 triangular solves corrected by float64 refinement sweeps
        // (each sweep: one SpMV residual + one low-precision solve).
        const int sweeps = factor_->solveRefined(csc_, bGlobal, xGlobal, 10);
        obs::count("prec.refine_sweeps", sweeps);
      } else {
        factor_->solve(bGlobal, xGlobal);
      }
    }
    const std::vector<double> xLocal = a.scatterVectorFromRoot(
        isRoot ? std::span<const double>(xGlobal) : std::span<const double>(),
        0);
    std::copy(xLocal.begin(), xLocal.end(), x.begin());

    // True residual through the distributed operator.
    std::vector<double> r(b.size());
    a.spmv(x, std::span<double>(r));
    for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
    stats.iterations = 0;  // direct solve
    stats.residualNorm = sparse::distNorm2(*ctx.comm, r);
    stats.converged = true;
    return static_cast<int>(ErrorCode::kOk);
  }

 private:
  std::optional<slu::Factorization> factor_;  ///< rank 0 only
  sparse::CscMatrix csc_;  ///< rank 0, mixed mode only (refinement operator)
  bool haveFactor_ = false;
  slu::Options factorOptions_;  ///< the options factor_ was built with
};

class SluSolverComponent final : public cca::Component {
 public:
  void setServices(cca::Services& services) override {
    auto port = std::make_shared<SluSolverPort>();
    port->attachServices(&services);
    services.addProvidesPort(port, kSparseSolverPortName,
                             kSparseSolverPortType);
    // SLU cannot run matrix-free, but the uses port is still declared so
    // frameworks can wire applications uniformly; solve() reports
    // kUnsupported if matrix_free is set.
    services.registerUsesPort(kMatrixFreePortName, kMatrixFreePortType);
  }
};

}  // namespace

namespace detail_registration {
void registerSlu() {
  cca::Framework::registerClass(kSluComponentClass, [] {
    return std::make_shared<SluSolverComponent>();
  });
}
}  // namespace detail_registration

}  // namespace lisi
