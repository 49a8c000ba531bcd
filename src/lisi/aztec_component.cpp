// LISI solver component backed by Aztec (the Trilinos/AztecOO analogue):
// the generic parameter keys are translated into AZ_* option/parameter
// array entries; matrix-free mode wraps the application's MatrixFree port
// in a RowMatrix subclass, the §5.5 Epetra_RowMatrix pattern.
#include "aztec/aztecoo.hpp"
#include "lisi/solver_base.hpp"

namespace lisi {
namespace {

/// RowMatrix over the application's MatrixFree port.
class MatrixFreeRowMatrix final : public aztec::RowMatrix {
 public:
  MatrixFreeRowMatrix(const aztec::Map& map, MatrixFree* mf)
      : map_(&map), mf_(mf) {}
  [[nodiscard]] const aztec::Map& rowMap() const override { return *map_; }
  void apply(const aztec::Vector& x, aztec::Vector& y) const override {
    const int n = x.myLength();
    const int rc = mf_->matMult(
        OperatorId::kMatrix, RArray<const double>(x.localView().data(), n),
        RArray<double>(y.localView().data(), n), n);
    LISI_CHECK(rc == 0, "MatrixFree::matMult failed");
  }

 private:
  const aztec::Map* map_;
  MatrixFree* mf_;
};

class AztecSolverPort final : public detail::SolverComponentBase {
 protected:
  const char* backendName() const override { return "aztec"; }
  bool supportsMatrixFree() const override { return true; }

  bool acceptsParam(const std::string& key) const override {
    return SolverComponentBase::acceptsParam(key) || key == "restart" ||
           key == "poly_ord";
  }

  int backendSolve(const detail::SolveContext& ctx, std::span<const double> b,
                   std::span<double> x, detail::BackendStats& stats) override {
    using namespace aztec;
    const int prep = prepare(ctx);
    if (prep != static_cast<int>(ErrorCode::kOk)) return prep;

    Vector xv(*map_, x);
    const Vector bv(*map_, b);
    AztecOO solver(*rowMatrix_, xv, bv);
    const int opts = applyOptions(ctx, solver);
    if (opts != static_cast<int>(ErrorCode::kOk)) return opts;
    (void)solver.iterate(paramInt("maxits", 10000), paramDouble("tol", 1e-6));
    std::copy(xv.localView().begin(), xv.localView().end(), x.begin());
    stats.iterations = solver.numIters();
    stats.residualNorm = solver.trueResidual();
    stats.converged = solver.terminationReason() == AZ_normal;
    return static_cast<int>(ErrorCode::kOk);
  }

  int backendSolveMulti(const detail::SolveContext& ctx,
                        std::span<const double> b, std::span<double> x,
                        int nRhs, detail::BackendStats& stats) override {
    using namespace aztec;
    // Several lanes go through one MultiVector-bound AztecOO: the
    // preconditioner builds once for all lanes and the convergence scales
    // fuse into a single allreduce.  Each lane is bitwise its single-RHS
    // solve; one lane takes the single-vector iterate.
    if (nRhs == 1) return backendSolve(ctx, b, x, stats);
    const int prep = prepare(ctx);
    if (prep != static_cast<int>(ErrorCode::kOk)) return prep;

    MultiVector xv(*map_, x, nRhs);
    const MultiVector bv(*map_, b, nRhs);
    AztecOO solver(*rowMatrix_, xv, bv);
    const int opts = applyOptions(ctx, solver);
    if (opts != static_cast<int>(ErrorCode::kOk)) return opts;
    (void)solver.iterateMulti(paramInt("maxits", 10000),
                              paramDouble("tol", 1e-6));
    xv.extract(x);
    stats.iterations = solver.numIters();
    stats.residualNorm = solver.trueResidual();
    stats.converged = solver.terminationReason() == AZ_normal;
    return static_cast<int>(ErrorCode::kOk);
  }

 private:
  /// Build or refresh the Map/RowMatrix pair for this solve.
  int prepare(const detail::SolveContext& ctx) {
    using namespace aztec;
    // Aztec accepts the common "precision" parameter (LISI contract: a
    // backend without a low-precision path must still take the knob) but
    // runs entirely in float64 — ctx.precision is intentionally unused.
    // Operator change contract: the CrsMatrix views the port's operator
    // (no copy, no second halo plan), which the port refreshes in place on
    // kSameStructure, so the Map and the view last until the port hands
    // over a new operator object.  Matrix-free solves (always
    // kNewStructure) rebuild both.
    if (ctx.matrixFree != nullptr || !rowMatrix_ ||
        rowMatrix_->assembled() != ctx.matrix.get()) {
      map_ = std::make_unique<Map>(ctx.globalRows, ctx.localRows, *ctx.comm);
      if (ctx.matrixFree != nullptr) {
        rowMatrix_ =
            std::make_unique<MatrixFreeRowMatrix>(*map_, ctx.matrixFree);
      } else {
        rowMatrix_ = std::make_unique<CrsMatrix>(*map_, ctx.matrix);
      }
    }
    return static_cast<int>(ErrorCode::kOk);
  }

  /// Translate the generic parameter table into AZ_* options.
  int applyOptions(const detail::SolveContext& ctx, aztec::AztecOO& solver) {
    using namespace aztec;
    const std::string method = paramString("solver", "gmres");
    int azSolver = AZ_gmres;
    if (method == "cg") azSolver = AZ_cg;
    else if (method == "gmres") azSolver = AZ_gmres;
    else if (method == "bicgstab") azSolver = AZ_bicgstab;
    else return static_cast<int>(ErrorCode::kInvalidArgument);

    const std::string pc = paramString("preconditioner", "none");
    int azPrecond = AZ_none;
    if (pc == "none") azPrecond = AZ_none;
    else if (pc == "jacobi") azPrecond = AZ_Jacobi;
    else if (pc == "neumann") azPrecond = AZ_Neumann;
    else if (pc == "symgs" || pc == "sgs") azPrecond = AZ_sym_GS;
    else if (pc == "ilu" || pc == "ilu0" || pc == "bjacobi") {
      azPrecond = AZ_dom_decomp;
    } else {
      return static_cast<int>(ErrorCode::kInvalidArgument);
    }
    if (ctx.matrixFree != nullptr &&
        (azPrecond == AZ_dom_decomp || azPrecond == AZ_sym_GS)) {
      return static_cast<int>(ErrorCode::kUnsupported);
    }

    solver.setOption(AZ_solver, azSolver)
        .setOption(AZ_precond, azPrecond)
        .setOption(AZ_kspace, paramInt("restart", 30))
        .setOption(AZ_poly_ord, paramInt("poly_ord", 3))
        .setOption(AZ_conv, AZ_rhs);
    return static_cast<int>(ErrorCode::kOk);
  }

  std::unique_ptr<aztec::Map> map_;
  std::unique_ptr<aztec::RowMatrix> rowMatrix_;
};

class AztecSolverComponent final : public cca::Component {
 public:
  void setServices(cca::Services& services) override {
    auto port = std::make_shared<AztecSolverPort>();
    port->attachServices(&services);
    services.addProvidesPort(port, kSparseSolverPortName,
                             kSparseSolverPortType);
    services.registerUsesPort(kMatrixFreePortName, kMatrixFreePortType);
  }
};

}  // namespace

namespace detail_registration {
void registerAztec() {
  cca::Framework::registerClass(kAztecComponentClass, [] {
    return std::make_shared<AztecSolverComponent>();
  });
}
}  // namespace detail_registration

}  // namespace lisi
