// LISI solver component backed by HyMG (the hypre-analogue structured
// multigrid package).
//
// Like hypre's structured-grid solvers, HyMG needs the grid description,
// which cannot be recovered from an assembled matrix alone.  The adapter
// therefore requires the generic parameters
//   mg_grid_n  (int, interior points per side; mg_grid_n^2 == global rows)
//   mg_bx, mg_by (doubles, convection coefficients of -lap(u)+bx*u_x+by*u_y;
//                 default 0: pure Laplacian)
// and checks that the supplied matrix matches the rediscretized fine-level
// operator (so a mismatched matrix is an error, not silent wrong answers).
#include <algorithm>
#include <array>
#include <limits>

#include "hymg/hymg.hpp"
#include "lisi/solver_base.hpp"
#include "sparse/ops.hpp"

namespace lisi {
namespace {

class HymgSolverPort final : public detail::SolverComponentBase {
 protected:
  const char* backendName() const override { return "hymg"; }

  bool acceptsParam(const std::string& key) const override {
    return SolverComponentBase::acceptsParam(key) || key == "mg_grid_n" ||
           key == "mg_bx" || key == "mg_by" || key == "mg_pre_smooth" ||
           key == "mg_post_smooth" || key == "mg_gamma" ||
           key == "mg_smoother" || key == "mg_jacobi_weight" ||
           key == "mg_coarse_op";
  }

  int backendSolve(const detail::SolveContext& ctx, std::span<const double> b,
                   std::span<double> x, detail::BackendStats& stats) override {
    const int gridN = paramInt("mg_grid_n", -1);
    if (gridN < 1 || gridN * gridN != ctx.globalRows) {
      return static_cast<int>(ErrorCode::kInvalidArgument);
    }
    if (ctx.change == detail::OperatorChange::kSameStructure && mg_) {
      // Same sparsity, possibly new coefficients (e.g. time-dependent
      // convection): keep the grid hierarchy and transfer operators and
      // refresh only operator values, smoother data, and the coarse factor.
      mg_->refreshOperator(hymg::convectionDiffusionStencil(
          paramDouble("mg_bx", 0.0), paramDouble("mg_by", 0.0)));
      const int rc = validateFineLevel(ctx);
      if (rc != 0) return rc;
    } else if (ctx.change != detail::OperatorChange::kSameOperator || !mg_) {
      hymg::Options opts;
      opts.preSmooth = paramInt("mg_pre_smooth", 2);
      opts.postSmooth = paramInt("mg_post_smooth", 2);
      opts.gamma = paramInt("mg_gamma", 1);
      opts.jacobiWeight = paramDouble("mg_jacobi_weight", 0.8);
      const std::string smoother = paramString("mg_smoother", "gs");
      if (smoother == "jacobi") opts.smoother = hymg::Smoother::kJacobi;
      else if (smoother == "gs") opts.smoother = hymg::Smoother::kHybridGs;
      else return static_cast<int>(ErrorCode::kInvalidArgument);
      const std::string coarseOp = paramString("mg_coarse_op", "rediscretize");
      if (coarseOp == "galerkin") {
        opts.coarseOperator = hymg::CoarseOperator::kGalerkin;
      } else if (coarseOp != "rediscretize") {
        return static_cast<int>(ErrorCode::kInvalidArgument);
      }
      mg_.emplace(*ctx.comm, gridN,
                  hymg::convectionDiffusionStencil(paramDouble("mg_bx", 0.0),
                                                   paramDouble("mg_by", 0.0)),
                  opts);
      const int rc = validateFineLevel(ctx);
      if (rc != 0) return rc;
    }
    // Mixed precision: float32 hierarchy/smoother/coarse-LU cycle inside a
    // float64 defect-correction outer loop (cheap no-op when unchanged;
    // collective agreement guaranteed by ctx.precision).
    mg_->setLowPrecision(ctx.precision == prec::Mode::kMixed);
    const hymg::SolveInfo info =
        mg_->solve(b, x, paramDouble("tol", 1e-6), paramInt("maxits", 100));
    stats.iterations = info.cycles;
    stats.converged = info.converged;
    // True residual against the application's matrix.  When the fine level
    // IS that matrix (identical blocks on every rank), HyMG's own final
    // residual is bitwise this one: same blocks, same SpMV, same norm.
    if (fineIsOperator_ && (info.cycles > 0 || info.converged)) {
      stats.residualNorm = info.residualNorm;
    } else {
      std::vector<double> r(b.size());
      ctx.matrix->spmv(x, std::span<double>(r));
      for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
      stats.residualNorm = sparse::distNorm2(*ctx.comm, r);
    }
    return static_cast<int>(ErrorCode::kOk);
  }

 private:
  /// Guard against a mismatched operator: the rediscretized fine level must
  /// agree with the matrix the application supplied.  One two-lane
  /// allreduce agrees on the largest difference and on whether every
  /// rank's blocks are identical.  Collective.
  int validateFineLevel(const detail::SolveContext& ctx) {
    const sparse::DistCsrMatrix& app = *ctx.matrix;
    const sparse::DistCsrMatrix& fine = mg_->fineMatrix();
    const sparse::OwnedBlockView av = app.ownedBlockView();
    const bool identical =
        app.sameStructure(fine) &&
        std::equal(av.values, av.values + av.nnz(),
                   fine.ownedBlockView().values);
    std::array<double, 2> local{0.0, identical ? 0.0 : 1.0};
    if (!identical) {
      // Cold path: compare in global columns (the numberings may differ).
      local[0] = app.localRows() == fine.localRows()
                     ? sparse::maxAbsDiff(app.globalBlock(), fine.globalBlock())
                     : std::numeric_limits<double>::infinity();
    }
    std::array<double, 2> global{};
    ctx.comm->allreduce(std::span<const double>(local),
                        std::span<double>(global), comm::ReduceOp::kMax);
    fineIsOperator_ = global[1] == 0.0;
    if (global[0] > 0.0 &&
        global[0] > 1e-8 * (sparse::infNorm(app.globalBlock()) + 1.0)) {
      mg_.reset();
      return static_cast<int>(ErrorCode::kInvalidArgument);
    }
    return 0;
  }

  std::optional<hymg::Solver> mg_;
  bool fineIsOperator_ = false;  ///< fine level == the application's matrix
};

class HymgSolverComponent final : public cca::Component {
 public:
  void setServices(cca::Services& services) override {
    auto port = std::make_shared<HymgSolverPort>();
    port->attachServices(&services);
    services.addProvidesPort(port, kSparseSolverPortName,
                             kSparseSolverPortType);
    services.registerUsesPort(kMatrixFreePortName, kMatrixFreePortType);
  }
};

}  // namespace

namespace detail_registration {
void registerHymg() {
  cca::Framework::registerClass(kHymgComponentClass, [] {
    return std::make_shared<HymgSolverComponent>();
  });
}
}  // namespace detail_registration

}  // namespace lisi
