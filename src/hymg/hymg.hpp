// HyMG — a distributed geometric multigrid package in the spirit of
// hypre's structured-grid solvers (SMG/PFMG).
//
// The paper (§2.2) names multilevel methods as "the only widely available
// and applicable solvers that have proved scalable in practice" and demands
// that a common solver interface support them, including re-entrant
// recursive level solves (§5.2 use case e).  HyMG provides that capability
// for 5-point operators on the unit square: a rediscretized grid hierarchy
// (each level assembles the same stencil at its own mesh width), bilinear
// prolongation, full-weighting restriction, weighted-Jacobi or hybrid
// (process-local) Gauss-Seidel smoothing, V- and W-cycles, and an exact
// dense solve on the coarsest grid.
//
// All levels are block-row distributed over the communicator; transfer
// operators are rectangular DistCsrMatrix instances, so every grid
// transfer is genuine message-passing communication.
//
// Grid-size requirement: vertex-centered coarsening needs an odd number of
// interior points per side at every level, so gridN should be 2^k - 1
// (coarsening stops early otherwise).
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "comm/comm.hpp"
#include "sparse/dist_csr.hpp"

namespace hymg {

/// 5-point stencil at mesh width h: y_ij = c*x_ij + w*x_(i-1)j + e*x_(i+1)j
///                                       + s*x_i(j-1) + n*x_i(j+1).
struct Stencil5 {
  double c = 0, w = 0, e = 0, s = 0, n = 0;
};

/// Stencil generator: the same continuous operator discretized at width h.
using StencilFn = std::function<Stencil5(double h)>;

/// Stencil of -laplace(u) (SPD model problem).
Stencil5 laplaceStencil(double h);

/// Stencil of -laplace(u) + bx*u_x + by*u_y (centered differences).
/// The paper's operator u_xx + u_yy - 3 u_x, negated to an M-matrix,
/// corresponds to bx = 3, by = 0.
StencilFn convectionDiffusionStencil(double bx, double by);

/// Whether rows [startRow, startRow + block.rows) of an operator (a
/// canonical block in global columns) are those rows of the gridN-by-gridN
/// operator of stencil `st`, up to `relTol`: every |a_ij - s_ij| over the
/// union of both patterns is at most relTol * (||block||_inf + 1).  False
/// when a row lies outside the grid.  One pass, row by row, with no second
/// operator built.  Purely local.
[[nodiscard]] bool matchesStencil(const lisi::sparse::CsrMatrix& block,
                                  int startRow, int gridN, const Stencil5& st,
                                  double relTol);

/// Smoother selection.
enum class Smoother {
  kJacobi,    ///< weighted Jacobi (fully parallel)
  kHybridGs,  ///< Gauss-Seidel within each rank's block, Jacobi across
};

/// How coarse-level operators are formed.
enum class CoarseOperator {
  kRediscretize,  ///< assemble the stencil at each level's mesh width
  kGalerkin,      ///< A_{l+1} = R * A_l * P (distributed triple product);
                  ///< variationally consistent, denser (9-point) stencils
};

/// Cycle shape: gamma = 1 is a V-cycle, gamma = 2 a W-cycle.
struct Options {
  int preSmooth = 2;
  int postSmooth = 2;
  double jacobiWeight = 0.8;
  Smoother smoother = Smoother::kHybridGs;
  CoarseOperator coarseOperator = CoarseOperator::kRediscretize;
  int gamma = 1;
  int coarsestN = 3;   ///< stop coarsening at (or below) this grid side
  int maxLevels = 25;
};

/// Result of an iterative MG solve.
struct SolveInfo {
  int cycles = 0;
  double relResidual = 0.0;   ///< final ||b-Ax|| / ||b||
  /// ||b-Ax|| against fineMatrix() after the last cycle (0 when b == 0;
  /// not computed when maxCycles < 1)
  double residualNorm = 0.0;
  bool converged = false;
};

/// A multigrid hierarchy over an N-by-N interior grid, usable as a
/// standalone solver (solve) or as a preconditioner (applyCycle).
class Solver {
 public:
  /// Build the hierarchy.  Collective over `comm`.
  Solver(lisi::comm::Comm comm, int gridN, StencilFn stencil,
         Options options = {});

  /// Build the hierarchy on a caller's fine-level operator instead of
  /// rediscretizing one: `fine` is the stencil's gridN-by-gridN operator
  /// (any stored pattern with each row's diagonal), block-row partitioned
  /// like BlockRowPartition(gridN * gridN, p) over its communicator.  The
  /// solver shares it and never writes it: when its owner refreshes its
  /// values in place, refreshOperator() brings the smoother data and the
  /// coarse levels along.  `stencil` discretizes the coarse levels.
  /// Collective over fine's communicator.
  Solver(std::shared_ptr<const lisi::sparse::DistCsrMatrix> fine, int gridN,
         StencilFn stencil, Options options = {});
  ~Solver();
  Solver(Solver&&) noexcept;
  Solver& operator=(Solver&&) noexcept;
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  [[nodiscard]] int numLevels() const;
  [[nodiscard]] int gridN(int level) const;
  /// The level-0 (finest) operator.
  [[nodiscard]] const lisi::sparse::DistCsrMatrix& fineMatrix() const;
  /// This rank's share of the finest grid.
  [[nodiscard]] int fineLocalRows() const;

  /// Run the multigrid cycle in float32 (defect correction).  The operator
  /// hierarchy, smoother diagonals, hybrid-GS blocks, transfer operators,
  /// and the coarsest-grid dense LU are all mirrored into float32, and
  /// applyCycle/solve apply them in float32 arithmetic; solve() wraps the
  /// float32 cycle in a float64 defect-correction loop (residuals and the
  /// convergence test stay float64 against the float64 fine operator), so
  /// it reaches the same tolerances as the all-float64 cycle at half the
  /// value bandwidth per cycle.  Collective agreement required: all ranks
  /// must select the same precision.  Mirrors follow refreshOperator
  /// automatically.
  void setLowPrecision(bool enable);

  /// Value-only refresh of the operator across the fixed hierarchy.
  /// The grid hierarchy, transfer operators, halo plans, and solve scratch
  /// are all kept; only operator values are recomputed: each level's
  /// stencil coefficients (or Galerkin coarse values), the smoother
  /// diagonals, the hybrid-GS local blocks, and the coarsest-grid dense
  /// factorization.  Use when the continuous operator's coefficients
  /// changed but the discretization (grid sizes, stencil footprint) did
  /// not.  A caller's fine operator keeps the values its owner gave it;
  /// everything derived from it is refreshed.  Collective.
  void refreshOperator(StencilFn stencil);

  /// One multigrid cycle with zero initial guess: x = MG(b).  This is the
  /// preconditioner form (linear in b).  Collective.
  void applyCycle(std::span<const double> b, std::span<double> x) const;

  /// `sweeps` fine-level smoother sweeps on x, exactly as the float64
  /// cycle runs them; x carries the guess in and the result out.
  /// Collective.
  void smooth(std::span<const double> b, std::span<double> x,
              int sweeps) const;

  /// Iterate cycles until ||b - A x|| <= rtol * ||b|| or maxCycles.
  /// x carries the initial guess in and the solution out.  Collective.
  SolveInfo solve(std::span<const double> b, std::span<double> x, double rtol,
                  int maxCycles) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hymg
