// AztecOO-style iteration driver.
//
// Configuration mirrors Aztec's classic interface: an integer options array
// indexed by AZ_* option ids and a double parameters array indexed by AZ_*
// parameter ids; results come back through a status array.  This is the
// "heavily parameterized, package-specific" configuration surface (§2.1 of
// the paper) that LISI's generic set(key, value) methods hide.
//
// Methods: CG, GMRES(kspace), BiCGSTAB — GMRES/BiCGSTAB use *right*
// preconditioning (so the tracked residual is the true residual), CG uses
// the standard preconditioned-CG recurrence.  Preconditioners: none,
// k-step Jacobi, Neumann-series polynomial (both matrix-free capable given
// extractDiagonal), and domain-decomposition ILU(0) on the local block.
#pragma once

#include <array>
#include <memory>

#include "aztec/multi_vector.hpp"
#include "aztec/row_matrix.hpp"

namespace aztec {

// ---- option indices (options array) ------------------------------------
inline constexpr int AZ_solver = 0;
inline constexpr int AZ_precond = 1;
inline constexpr int AZ_max_iter = 2;
inline constexpr int AZ_kspace = 3;    ///< GMRES restart length
inline constexpr int AZ_conv = 4;      ///< convergence-test selector
inline constexpr int AZ_poly_ord = 5;  ///< Jacobi steps / Neumann order
inline constexpr int AZ_OPTIONS_SIZE = 6;

// ---- AZ_solver values ---------------------------------------------------
inline constexpr int AZ_cg = 0;
inline constexpr int AZ_gmres = 1;
inline constexpr int AZ_bicgstab = 2;

// ---- AZ_precond values --------------------------------------------------
inline constexpr int AZ_none = 0;
inline constexpr int AZ_Jacobi = 1;      ///< k-step Jacobi
inline constexpr int AZ_Neumann = 2;     ///< Neumann-series polynomial
inline constexpr int AZ_dom_decomp = 3;  ///< local ILU(0) (one subdomain/rank)
inline constexpr int AZ_sym_GS = 4;      ///< symmetric Gauss-Seidel on the
                                         ///< local block (SPD-friendly)

// ---- AZ_conv values -----------------------------------------------------
inline constexpr int AZ_rhs = 0;  ///< ||r|| <= tol * ||b||
inline constexpr int AZ_r0 = 1;   ///< ||r|| <= tol * ||r0||

// ---- parameter indices (params array) -----------------------------------
inline constexpr int AZ_tol = 0;
inline constexpr int AZ_PARAMS_SIZE = 1;

// ---- status indices (status array) --------------------------------------
inline constexpr int AZ_its = 0;       ///< iterations performed
inline constexpr int AZ_why = 1;       ///< termination cause (below)
inline constexpr int AZ_r = 2;         ///< final true residual norm
inline constexpr int AZ_scaled_r = 3;  ///< final residual / scale
inline constexpr int AZ_STATUS_SIZE = 4;

// ---- AZ_why values --------------------------------------------------------
inline constexpr int AZ_normal = 0;     ///< converged
inline constexpr int AZ_maxits = 1;     ///< hit AZ_max_iter
inline constexpr int AZ_breakdown = 2;  ///< numerical breakdown / NaN

/// The iteration driver.  Holds non-owning references to the operator and
/// the solution/right-hand-side vectors (AztecOO style).
class AztecOO {
 public:
  /// Bind the problem A x = b.  All three must outlive the solver.
  AztecOO(const RowMatrix& a, Vector& x, const Vector& b);

  /// Bind the block problem A X = B over numVectors lanes (multi-RHS).
  /// Solve with iterateMulti; the single-vector iterate overloads reject a
  /// block-bound solver.
  AztecOO(const RowMatrix& a, MultiVector& x, const MultiVector& b);

  /// Set one option (bounds-checked); returns *this for chaining.
  AztecOO& setOption(int index, int value);
  /// Set one double parameter.
  AztecOO& setParam(int index, double value);

  [[nodiscard]] int option(int index) const;
  [[nodiscard]] double param(int index) const;

  /// Run at most `maxIter` iterations to tolerance `tol` (these override
  /// AZ_max_iter / AZ_tol).  Returns 0 on convergence, 1 otherwise.
  /// Collective.
  int iterate(int maxIter, double tol);

  /// Run with the stored AZ_max_iter / AZ_tol.
  int iterate();

  /// Solve every lane of a block-bound problem (multi-RHS).  The
  /// preconditioner is built ONCE and reused across all lanes, and the
  /// per-lane convergence scales come from one fused allreduce
  /// (MultiVector::norms2) instead of numVectors separate ones.  Each
  /// lane's iteration is identical to a standalone iterate() on it.  The
  /// status array aggregates over the block: AZ_its/AZ_r/AZ_scaled_r are
  /// the lane maxima and AZ_why the worst lane outcome.  Returns 0 only if
  /// every lane converged.  Collective.
  int iterateMulti(int maxIter, double tol);

  /// z = M^{-1} r: one application of the preconditioner AZ_precond
  /// selects, built from the operator's current values, as iterate applies
  /// it (Aztec's AZ_precondition).  Collective.
  void precondition(const Vector& r, Vector& z) const;

  [[nodiscard]] int numIters() const {
    return static_cast<int>(status_[AZ_its]);
  }
  [[nodiscard]] double trueResidual() const { return status_[AZ_r]; }
  [[nodiscard]] double scaledResidual() const { return status_[AZ_scaled_r]; }
  [[nodiscard]] int terminationReason() const {
    return static_cast<int>(status_[AZ_why]);
  }
  [[nodiscard]] const std::array<double, AZ_STATUS_SIZE>& status() const {
    return status_;
  }

 private:
  const RowMatrix* a_;
  Vector* x_ = nullptr;
  const Vector* b_ = nullptr;
  MultiVector* mx_ = nullptr;        ///< block bindings (multi-RHS ctor)
  const MultiVector* mb_ = nullptr;
  std::array<int, AZ_OPTIONS_SIZE> options_;
  std::array<double, AZ_PARAMS_SIZE> params_;
  std::array<double, AZ_STATUS_SIZE> status_{};
};

}  // namespace aztec
