// Internal machinery of the PKSP package: the operator and preconditioner
// abstractions behind the opaque handle.  Not installed; include only from
// pksp sources and white-box tests.
#pragma once

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pksp/pksp.hpp"

namespace pksp::detail {

/// Abstract distributed linear operator y = A*x over block-row pieces.
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;
  virtual void apply(std::span<const double> x, std::span<double> y) const = 0;
  [[nodiscard]] virtual int localRows() const = 0;
  /// Assembled matrix if the operator has one (preconditioners need it);
  /// nullptr for shell operators.
  [[nodiscard]] virtual const lisi::sparse::DistCsrMatrix* matrix() const {
    return nullptr;
  }
};

/// Operator backed by an assembled DistCsrMatrix.
class MatrixOperator final : public LinearOperator {
 public:
  explicit MatrixOperator(const lisi::sparse::DistCsrMatrix* a) : a_(a) {}
  void apply(std::span<const double> x, std::span<double> y) const override {
    a_->spmv(x, y);
  }
  [[nodiscard]] int localRows() const override { return a_->localRows(); }
  [[nodiscard]] const lisi::sparse::DistCsrMatrix* matrix() const override {
    return a_;
  }

 private:
  const lisi::sparse::DistCsrMatrix* a_;
};

/// Matrix-free operator calling back into user code.
class ShellOperator final : public LinearOperator {
 public:
  ShellOperator(PkspShellMatVec fn, void* ctx, int localRows)
      : fn_(fn), ctx_(ctx), localRows_(localRows) {}
  void apply(std::span<const double> x, std::span<double> y) const override {
    fn_(ctx_, x.data(), y.data(), localRows_);
  }
  [[nodiscard]] int localRows() const override { return localRows_; }

 private:
  PkspShellMatVec fn_;
  void* ctx_;
  int localRows_;
};

/// Abstract preconditioner: z = M^{-1} r, process-local application.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  virtual void apply(std::span<const double> r, std::span<double> z) const = 0;

  /// z_v = M^{-1} r_v for each listed lane v of the vector-major blocks r
  /// and z (lane v occupies [v*n, (v+1)*n)).  Each lane must come out
  /// bitwise identical to apply() on it; the default does exactly that,
  /// lane by lane.  Overrides interleave the lanes to share one pass over
  /// the preconditioner's data.
  virtual void applyLanes(std::span<const double> r, std::span<double> z,
                          std::span<const std::size_t> lanes,
                          std::size_t n) const {
    for (const std::size_t v : lanes) {
      apply(r.subspan(v * n, n), z.subspan(v * n, n));
    }
  }

  /// Same-pattern value refresh: re-derive the numeric content from `a`
  /// over the existing storage layout (no structural rebuild).  Returns
  /// false when the refresh is unsupported or `a` no longer matches the
  /// stored pattern — the caller then falls back to a full rebuild.  Throws
  /// lisi::Error on numeric defects (zero diagonal/pivot), like the
  /// factories.
  [[nodiscard]] virtual bool refresh(const lisi::sparse::DistCsrMatrix& a) {
    (void)a;
    return false;
  }

  /// Switch the apply path to float32 storage/arithmetic (PKSP_PRECISION_
  /// MIXED).  Default: no-op — preconditioners without a float32 path
  /// (identity, Jacobi) simply keep applying in float64.
  virtual void setLowPrecision(bool enable) { (void)enable; }
};

/// Identity (PC_NONE).
class IdentityPc final : public Preconditioner {
 public:
  void apply(std::span<const double> r, std::span<double> z) const override {
    std::copy(r.begin(), r.end(), z.begin());
  }
  [[nodiscard]] bool refresh(const lisi::sparse::DistCsrMatrix&) override {
    return true;  // nothing value-dependent to refresh
  }
};

/// Factory for the matrix-based preconditioners; throws lisi::Error when a
/// zero pivot or similar defect makes the preconditioner unusable.
std::unique_ptr<Preconditioner> makeJacobi(
    const lisi::sparse::DistCsrMatrix& a);
std::unique_ptr<Preconditioner> makeLocalSor(
    const lisi::sparse::DistCsrMatrix& a, double omega, int sweeps);
std::unique_ptr<Preconditioner> makeLocalIlu0(
    const lisi::sparse::DistCsrMatrix& a);

/// Result of one Krylov run.
struct SolveReport {
  int iterations = 0;
  double residualNorm = 0.0;  ///< preconditioned norm tracked by the method
  PkspConvergedReason reason = PKSP_ITERATING;
  int reorthogonalizations = 0;  ///< GMRES steps that ran a second CGS pass
};

/// Common tolerance bundle plus the optional per-iteration monitor
/// (invoked with (iteration, tracked residual norm); iteration 0 reports
/// the initial residual).
struct Tolerances {
  double rtol = 1e-6;
  double atol = 1e-50;
  int maxits = 10000;
  std::function<void(int, double)> monitor;
};

inline bool isBad(double v) { return std::isnan(v) || std::isinf(v); }

/// Convergence bookkeeping shared by every Krylov kernel:
/// ||z_k|| <= max(rtol * ||z_0||, atol).
struct Monitor {
  double target = 0.0;
  double atol = 0.0;

  /// Initialize from the initial preconditioned residual norm.
  void start(double z0, const Tolerances& tol) {
    target = tol.rtol * z0;
    atol = tol.atol;
  }
  [[nodiscard]] PkspConvergedReason test(double znorm) const {
    if (isBad(znorm)) return PKSP_DIVERGED_NAN;
    if (znorm <= atol) return PKSP_CONVERGED_ATOL;
    if (znorm <= target) return PKSP_CONVERGED_RTOL;
    return PKSP_ITERATING;
  }
};

/// r = b - A x.
inline void applyResidual(const LinearOperator& a, std::span<const double> b,
                          std::span<const double> x, std::vector<double>& r) {
  a.apply(x, std::span<double>(r));
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
}

// Krylov kernels (x holds the initial guess on entry, solution on exit).
SolveReport runCg(const lisi::comm::Comm& comm, const LinearOperator& a,
                  const Preconditioner& m, std::span<const double> b,
                  std::span<double> x, const Tolerances& tol);
SolveReport runGmres(const lisi::comm::Comm& comm, const LinearOperator& a,
                     const Preconditioner& m, std::span<const double> b,
                     std::span<double> x, const Tolerances& tol, int restart);
SolveReport runBiCgStab(const lisi::comm::Comm& comm, const LinearOperator& a,
                        const Preconditioner& m, std::span<const double> b,
                        std::span<double> x, const Tolerances& tol);
SolveReport runRichardson(const lisi::comm::Comm& comm,
                          const LinearOperator& a, const Preconditioner& m,
                          std::span<const double> b, std::span<double> x,
                          const Tolerances& tol);

// Communication-hiding variants (pksp_pipelined.cpp): one (CG) or two
// (BiCGStab) fused split-phase reductions per iteration, each overlapped
// with the SpMV/preconditioner work of the same iteration.  Same
// convergence criterion and monitor cadence as the classic loops.
SolveReport runPipelinedCg(const lisi::comm::Comm& comm,
                           const LinearOperator& a, const Preconditioner& m,
                           std::span<const double> b, std::span<double> x,
                           const Tolerances& tol);
SolveReport runPipelinedBiCgStab(const lisi::comm::Comm& comm,
                                 const LinearOperator& a,
                                 const Preconditioner& m,
                                 std::span<const double> b,
                                 std::span<double> x, const Tolerances& tol);

// Blocked multi-RHS kernels (pksp_blocked.cpp): solve A X = B for nRhs
// right-hand sides in lockstep over an assembled operator.  b/x are
// vector-major (lane v occupies [v*n, (v+1)*n)).  One spmvMulti halo
// exchange per iteration feeds every lane and the per-lane dot products
// fuse into one allreduce batch per algorithmic reduction point, so the
// collective count per iteration is that of ONE solve, not nRhs.  Each
// lane's arithmetic is bitwise identical to the corresponding single-RHS
// runCg/runGmres solve; finished lanes freeze without disturbing the rest.
// tol.monitor is invoked with the max tracked norm across active lanes.
std::vector<SolveReport> runBlockedCg(const lisi::comm::Comm& comm,
                                      const lisi::sparse::DistCsrMatrix& a,
                                      const Preconditioner& m,
                                      std::span<const double> b,
                                      std::span<double> x, int nRhs,
                                      const Tolerances& tol);
std::vector<SolveReport> runBlockedGmres(const lisi::comm::Comm& comm,
                                         const lisi::sparse::DistCsrMatrix& a,
                                         const Preconditioner& m,
                                         std::span<const double> b,
                                         std::span<double> x, int nRhs,
                                         const Tolerances& tol, int restart);

}  // namespace pksp::detail
