// LISI solver component backed by HyMG (the hypre-analogue structured
// multigrid package).
//
// Like hypre's structured-grid solvers, HyMG needs the grid description,
// which cannot be recovered from an assembled matrix alone.  The adapter
// therefore requires the generic parameters
//   mg_grid_n  (int, interior points per side; mg_grid_n^2 == global rows)
//   mg_bx, mg_by (doubles, convection coefficients of -lap(u)+bx*u_x+by*u_y;
//                 default 0: pure Laplacian)
// and checks the supplied matrix row by row against that stencil (so a
// mismatched matrix is an error, not silent wrong answers).  HyMG then runs
// on the port's operator itself as its fine level: no second fine level,
// no second halo plan.
#include "hymg/hymg.hpp"
#include "lisi/solver_base.hpp"
#include "sparse/ops.hpp"
#include "sparse/partition.hpp"

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

  /// The supplied block must be this rank's share of the advertised grid
  /// operator: HyMG's block-row partition, and every entry within
  /// 1e-8 * (||block||_inf + 1) of the stencil's.  The verdict rides on the
  /// port's agreement collective.
  bool acceptsOperator(const sparse::CsrMatrix& local,
                       int startRow) const override {
    const int gridN = paramInt("mg_grid_n", -1);
    if (gridN < 1) return true;  // backendSolve rejects it on every rank
    const sparse::BlockRowPartition part(gridN * gridN, comm().size());
    if (startRow != part.startRow(comm().rank()) ||
        local.rows != part.localRows(comm().rank())) {
      return false;
    }
    const double h = 1.0 / (gridN + 1);
    return hymg::matchesStencil(local, startRow, gridN, stencil()(h), 1e-8);
  }

  int backendSolve(const detail::SolveContext& ctx, std::span<const double> b,
                   std::span<double> x, detail::BackendStats& stats) override {
    const int gridN = paramInt("mg_grid_n", -1);
    if (gridN < 1 || gridN * gridN != ctx.globalRows) {
      return static_cast<int>(ErrorCode::kInvalidArgument);
    }
    if (ctx.change == detail::OperatorChange::kSameStructure && mg_) {
      // Same sparsity, new coefficients (e.g. time-dependent convection):
      // the port has refreshed the fine values in place; keep the grid
      // hierarchy and transfer operators and refresh the smoother data,
      // the coarse levels and the coarse factor.
      mg_->refreshOperator(stencil());
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
      mg_.reset();  // let go of the previous operator first
      mg_.emplace(ctx.matrix, gridN, stencil(), opts);
    }
    // Mixed precision: float32 hierarchy/smoother/coarse-LU cycle inside a
    // float64 defect-correction outer loop (cheap no-op when unchanged;
    // collective agreement guaranteed by ctx.precision).
    mg_->setLowPrecision(ctx.precision == prec::Mode::kMixed);
    const hymg::SolveInfo info =
        mg_->solve(b, x, paramDouble("tol", 1e-6), paramInt("maxits", 100));
    stats.iterations = info.cycles;
    stats.converged = info.converged;
    // The fine level is the application's matrix, so HyMG's final residual
    // is the true one.  Without a cycle (maxits < 1) HyMG computed none.
    if (info.cycles > 0 || info.converged) {
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
  [[nodiscard]] hymg::StencilFn stencil() const {
    return hymg::convectionDiffusionStencil(paramDouble("mg_bx", 0.0),
                                            paramDouble("mg_by", 0.0));
  }

  std::optional<hymg::Solver> mg_;
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
