// SLU — a sequential sparse direct LU solver in the style of SuperLU.
//
// API style follows SuperLU's phase separation: an options struct, a
// factorize step (the dgstrf analogue, here left-looking LU with threshold
// partial pivoting and an optional fill-reducing column ordering), a
// triangular solve step (dgstrs), and a simple driver (dgssv).  The factor
// object is reusable across right-hand sides — §5.2 use case (b) of the
// paper: "Precompute reused objects such as LU factorization...".
//
// Kernels: the factors are stored as runs of consecutive rows (first row,
// value offset per run), so every factorization update and every
// triangular-solve step is a dense axpy over a run; under a banded ordering
// such as RCM each L column is one run, and up to four such columns are
// applied in one pass.  Every element takes its updates in ascending pivot
// order in both factorize() and refactorize(), so the two produce bitwise
// identical factors for the same values (see slu.cpp).
//
// Native input format is CSC (column-compressed), as in SuperLU; LISI's
// SluSolverComponent converts whatever the application supplies.
//
// Parallel use: the package itself is sequential (like sequential SuperLU).
// The LISI adapter gathers the distributed system to rank 0, factors and
// solves there, and scatters the solution — a documented simplification of
// SuperLU_DIST that preserves the interface contract (block rows in, block
// rows out).
#pragma once

#include <memory>
#include <span>

#include "sparse/formats.hpp"

namespace slu {

/// Fill-reducing column orderings (SuperLU's permc_spec analogue).
enum class Ordering {
  kNatural,  ///< no reordering
  kRcm,      ///< reverse Cuthill-McKee on the symmetrized pattern
  kMinDeg,   ///< greedy minimum-degree on the symmetrized pattern
};

/// Factorization options (superlu_options_t analogue).
struct Options {
  Ordering ordering = Ordering::kRcm;
  /// Threshold partial pivoting: the diagonal candidate is kept when
  /// |a_diag| >= diagPivotThresh * max|column|.  1.0 = classic partial
  /// pivoting, 0.0 = always prefer the diagonal (no pivoting).  Among
  /// off-diagonal candidates of equal magnitude the row that comes first in
  /// the column ordering wins.
  double diagPivotThresh = 1.0;
  /// Scale rows to unit infinity norm before factoring.
  bool equilibrate = false;
  /// Mixed-precision factors: the numeric factorization still pivots and
  /// eliminates in float64 (pivot choices must not depend on the storage
  /// precision), but the triangular factors are mirrored into float32 and
  /// every solve applies them from the float storage — half the value
  /// bandwidth per triangular solve.  The resulting solutions carry
  /// float32-level error; wrap them in solveRefined (float64 residuals
  /// against the original matrix) to recover float64 accuracy.
  bool lowPrecision = false;

  bool operator==(const Options&) const = default;
};

/// Factorization statistics (SuperLUStat_t analogue).
struct Stats {
  int n = 0;
  long long nnzA = 0;
  long long nnzL = 0;  ///< including unit diagonal
  long long nnzU = 0;  ///< including diagonal
  double fillRatio = 0.0;
  int offDiagonalPivots = 0;  ///< rows where pivoting left the diagonal
  /// Pivot growth max|U| / max|A| (after any equilibration); values far
  /// above 1 signal an unstable factorization (SuperLU reports the same
  /// diagnostic from dgssvx).
  double pivotGrowth = 0.0;
};

/// An LU factorization P * D * A * Q = L * U (D = optional row scaling).
/// Create with factorize(); solve() may be called any number of times.
class Factorization {
 public:
  ~Factorization();
  Factorization(Factorization&&) noexcept;
  Factorization& operator=(Factorization&&) noexcept;
  Factorization(const Factorization&) = delete;
  Factorization& operator=(const Factorization&) = delete;

  /// Factor a square CSC matrix.  Throws lisi::Error on structural or
  /// numerical singularity.  This is the full path: symbolic analysis
  /// (ordering + elimination structure) fused with the numeric
  /// factorization.
  static Factorization factorize(const lisi::sparse::CscMatrix& a,
                                 const Options& options = {});

  /// Numeric-only refactorization over the SAME sparsity pattern —
  /// SuperLU's SamePattern_SameRowPerm: the column ordering, the row
  /// permutation, and the elimination structure of the existing factors are
  /// all reused, and only the numeric left-looking updates are replayed, in
  /// factorize()'s order (values overwritten in place, no symbolic work, no
  /// heap allocation: the dense work column is sized by factorize()).  On
  /// the values factorize() saw, the factors come out bitwise unchanged.
  /// `a` must carry exactly the pattern this
  /// object was factorized from; a mismatch throws.  Because the pivot
  /// sequence is frozen, a pivot that becomes exactly zero throws
  /// lisi::Error — callers fall back to a full factorize().  Positions that
  /// were exactly zero in the originally factorized matrix are treated as
  /// structurally absent (the stored-factor-pattern contract, as in
  /// SuperLU).
  void refactorize(const lisi::sparse::CscMatrix& a);

  /// Solve A x = b for one right-hand side.
  void solve(std::span<const double> b, std::span<double> x) const;

  /// Solve A' x = b (transpose solve, SuperLU's TRANS option).
  void solveTranspose(std::span<const double> b, std::span<double> x) const;

  /// Solve for several right-hand sides stored contiguously
  /// (column-major: rhs k occupies [k*n, (k+1)*n)).
  void solveMany(std::span<const double> b, std::span<double> x,
                 int numRhs) const;

  /// Solve with iterative refinement (SuperLU's dgssvx refinement): up to
  /// `maxSteps` refinement sweeps using the original matrix `a`; returns
  /// the number of steps taken.  Improves accuracy on ill-conditioned
  /// systems at the cost of one SpMV + one triangular solve per step.
  int solveRefined(const lisi::sparse::CscMatrix& a, std::span<const double> b,
                   std::span<double> x, int maxSteps = 3) const;

  [[nodiscard]] const Stats& stats() const;
  [[nodiscard]] int order() const;

 private:
  Factorization();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// One-shot driver (dgssv analogue): factor + solve.
void solve(const lisi::sparse::CscMatrix& a, std::span<const double> b,
           std::span<double> x, const Options& options = {},
           Stats* statsOut = nullptr);

/// Compute a fill-reducing permutation of the columns of `a` (exposed for
/// tests and for reuse across same-pattern factorizations).
std::vector<int> computeOrdering(const lisi::sparse::CscMatrix& a,
                                 Ordering ordering);

// ---- Reuse observability (process-wide, across MiniMPI rank-threads) ----

/// Number of full factorizations (symbolic analysis + numerics) since
/// process start.  Tests assert a zero delta across a same-pattern re-setup
/// to prove the symbolic object was reused.
[[nodiscard]] long long symbolicFactorizations();

/// Number of numeric-only refactorize() calls since process start.
[[nodiscard]] long long numericRefactorizations();

}  // namespace slu
