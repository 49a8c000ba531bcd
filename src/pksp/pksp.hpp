// PKSP — "Portable Krylov Solver Package".
//
// A from-scratch stand-in for PETSc's KSP linear solver with the same *API
// style*: opaque handles, Create/Set.../Solve/Destroy call order, integer
// error codes, and an options-string parser (the analogue of PETSc's
// command-line options database).  LISI's PkspSolverComponent adapts this
// API, exactly as the paper's PETSc solver component adapts KSP.
//
// Numerically the package provides distributed-memory Krylov methods
// (CG, GMRES(m), BiCGSTAB, Richardson) with process-local preconditioners
// (Jacobi, local SOR, block-Jacobi ILU(0)) over block-row partitioned
// operators, plus a "shell" operator for matrix-free use (the analogue of
// PETSc's MatShell / MatShellSetOperation mentioned in §5.5 of the paper).
//
// Thread-safety: distinct KSP handles are independent; a single handle must
// not be used concurrently (matches PETSc).
#pragma once

#include <span>

#include "comm/comm.hpp"
#include "sparse/dist_csr.hpp"

namespace pksp {

/// Opaque solver handle (PETSc-style).
struct PkspSolver;
using KSP = PkspSolver*;

/// Error codes returned by every PKSP function (0 = success).
enum PkspErrorCode : int {
  PKSP_SUCCESS = 0,
  PKSP_ERR_ARG = 1,       ///< bad argument (null handle, size mismatch, ...)
  PKSP_ERR_ORDER = 2,     ///< functions called out of order
  PKSP_ERR_UNSUPPORTED = 3,
  PKSP_ERR_NUMERIC = 4,   ///< breakdown / singular preconditioner
};

/// Krylov method selection.
enum PkspType : int {
  PKSP_RICHARDSON = 0,
  PKSP_CG = 1,
  PKSP_GMRES = 2,
  PKSP_BICGSTAB = 3,
};

/// Preconditioner application precision.  MIXED stores the preconditioner
/// operators (SOR block values, ILU(0) factors) in float32 and applies them
/// in float32 arithmetic, halving the value bytes each apply streams; the
/// Krylov iteration itself — SpMV, orthogonalization, reductions,
/// convergence tests — stays float64, so the preconditioner's rounding only
/// perturbs the (already approximate) M^{-1} and the methods converge to
/// the same tolerance.  Jacobi and identity are O(n) and stay float64.
enum PkspPrecision : int {
  PKSP_PRECISION_DOUBLE = 0,
  PKSP_PRECISION_MIXED = 1,
};

/// Preconditioner selection.
enum PkspPcType : int {
  PKSP_PC_NONE = 0,
  PKSP_PC_JACOBI = 1,
  PKSP_PC_SOR = 2,     ///< process-local SOR sweeps
  PKSP_PC_ILU0 = 3,    ///< ILU(0) of the local diagonal block
  PKSP_PC_BJACOBI = 4, ///< block Jacobi with ILU(0) on each block (alias
                       ///< of PKSP_PC_ILU0 at one block per process)
};

/// Convergence outcomes (positive = converged, negative = diverged),
/// mirroring PETSc's KSPConvergedReason style.
enum PkspConvergedReason : int {
  PKSP_CONVERGED_RTOL = 2,
  PKSP_CONVERGED_ATOL = 3,
  PKSP_CONVERGED_ITS = 4,       ///< Richardson hit maxits while converging
  PKSP_DIVERGED_ITS = -3,
  PKSP_DIVERGED_BREAKDOWN = -5,
  PKSP_DIVERGED_NAN = -9,
  PKSP_ITERATING = 0,
};

/// Matrix-free operator callback: y = A*x on this rank's block of rows.
/// `ctx` is the user context registered with KSPSetOperatorShell.
using PkspShellMatVec = void (*)(void* ctx, const double* x, double* y,
                                 int localRows);

// ---- lifecycle -------------------------------------------------------

/// Create a solver attached to `comm`.  Collective.
int KSPCreate(const lisi::comm::Comm& comm, KSP* outKsp);

/// Destroy the solver and null the handle.  Safe on already-null handles.
int KSPDestroy(KSP* ksp);

/// How a newly registered operator relates to the previous one — the
/// three-state reuse contract of classic PETSc's KSPSetOperators
/// (SAME_NONZERO_PATTERN / SAME_PRECONDITIONER / DIFFERENT_NONZERO_PATTERN).
enum PkspMatStructure : int {
  /// Operator object unchanged since the last registration: the built
  /// preconditioner stays valid and is kept untouched.
  PKSP_SAME_PRECONDITIONER = 0,
  /// Values changed over the identical sparsity pattern: the preconditioner
  /// storage (diagonals, SOR block, ILU(0) factors) is refreshed in place at
  /// the next solve instead of being rebuilt.
  PKSP_SAME_NONZERO_PATTERN = 1,
  /// Pattern changed: full preconditioner rebuild (the default contract of
  /// the two-argument KSPSetOperator).
  PKSP_DIFFERENT_NONZERO_PATTERN = 2,
};

// ---- operator registration -------------------------------------------

/// Use an assembled distributed matrix (not owned).  A preconditioner built
/// from it reads its storage, so it must stay alive until the solver is
/// destroyed, a new pattern rebuilds the preconditioner, or a same-pattern
/// refresh moves it to another matrix.
int KSPSetOperator(KSP ksp, const lisi::sparse::DistCsrMatrix* a);

/// Like KSPSetOperator, with an explicit statement of how `a` relates to
/// the previously registered operator (see PkspMatStructure).  With
/// PKSP_SAME_NONZERO_PATTERN the preconditioner is value-refreshed over its
/// fixed storage layout; KSPSetReusePreconditioner(true) still wins and
/// freezes the preconditioner entirely.
int KSPSetOperator(KSP ksp, const lisi::sparse::DistCsrMatrix* a,
                   PkspMatStructure structure);

/// Use a matrix-free shell operator over `localRows` owned rows of a
/// square global operator.  Collective (validates the global tiling).
int KSPSetOperatorShell(KSP ksp, PkspShellMatVec matvec, void* ctx,
                        int localRows);

// ---- configuration ----------------------------------------------------

int KSPSetType(KSP ksp, PkspType type);
int KSPSetPCType(KSP ksp, PkspPcType type);

/// rtol: relative decrease of the preconditioned residual; atol: absolute
/// floor; maxits: iteration cap.  Negative values keep current settings.
int KSPSetTolerances(KSP ksp, double rtol, double atol, int maxits);

/// GMRES restart length (default 30).
int KSPSetRestart(KSP ksp, int restart);

/// SOR relaxation factor omega in (0, 2) (default 1.0) and sweep count.
int KSPSetSorOptions(KSP ksp, double omega, int sweeps);

/// Treat the incoming solution vector as the initial guess (default: zero).
int KSPSetInitialGuessNonzero(KSP ksp, bool flag);

/// Keep the current preconditioner when the operator's values change over
/// the same sparsity pattern (useful when the new matrix is close in value —
/// §5.2 use case (d) of the LISI paper).  A new pattern always rebuilds.
/// ILU(0) keeps its factors; SOR reads the operator's values in place, so
/// it follows them either way.  Default: refresh or rebuild on change.
int KSPSetReusePreconditioner(KSP ksp, bool flag);

/// Select the preconditioner application precision (default: double).
/// Marks the preconditioner stale: the next solve rebuilds it with the
/// requested storage.  See PkspPrecision.
int KSPSetPrecision(KSP ksp, PkspPrecision precision);

/// PETSc-options-style configuration string, e.g.
///   "-ksp_type gmres -pc_type ilu -ksp_rtol 1e-8 -ksp_max_it 500
///    -ksp_gmres_restart 40"
/// Unknown keys are reported with PKSP_ERR_UNSUPPORTED.
int KSPSetFromString(KSP ksp, const char* options);

// ---- solve and diagnostics --------------------------------------------

/// Solve A x = b on this rank's block (sizes = localRows).  Collective.
/// On entry x is the initial guess if KSPSetInitialGuessNonzero was set.
int KSPSolve(KSP ksp, std::span<const double> bLocal,
             std::span<double> xLocal);

/// Solve A X = B for `nRhs` right-hand sides sharing the registered
/// operator.  Collective; `nRhs` must agree on every rank.  bLocal/xLocal
/// are vector-major: RHS k occupies [k*localRows, (k+1)*localRows).
///
/// For CG and GMRES over an assembled operator in double precision the
/// lanes advance in lockstep through blocked kernels: one halo exchange
/// and one fused allreduce batch per reduction point serve all nRhs
/// systems, and each lane's iterates are bitwise identical to solving it
/// alone with KSPSolve.  Other configurations (BiCGSTAB, Richardson,
/// shell operators, mixed precision) fall back to an internal per-RHS
/// KSPSolve loop with identical results.
///
/// Diagnostics after the call aggregate over the block:
/// KSPGetIterationNumber reports the max lane iteration count,
/// KSPGetResidualNorm the max lane true residual, and
/// KSPGetConvergedReason the worst lane outcome (any divergence wins).
/// The residual history records the max tracked norm across active lanes
/// per lockstep iteration.  Returns PKSP_SUCCESS only if every lane
/// converged.
int KSPSolveMulti(KSP ksp, std::span<const double> bLocal,
                  std::span<double> xLocal, int nRhs);

int KSPGetIterationNumber(KSP ksp, int* iters);
int KSPGetResidualNorm(KSP ksp, double* norm);  ///< final (true) residual
int KSPGetConvergedReason(KSP ksp, PkspConvergedReason* reason);

/// Per-iteration monitor callback (PETSc's KSPMonitorSet analogue): invoked
/// with (ctx, iteration, tracked residual norm); iteration 0 carries the
/// initial residual.  Pass nullptr to remove.
using PkspMonitorFn = void (*)(void* ctx, int iteration, double rnorm);
int KSPSetMonitor(KSP ksp, PkspMonitorFn monitor, void* ctx);

/// Residual norms recorded during the last KSPSolve (entry i = the residual
/// reported at iteration i; always recorded, no opt-in needed).  The pointer
/// stays valid until the next solve or KSPDestroy.
int KSPGetResidualHistory(KSP ksp, const double** history, int* count);

/// Human-readable one-line solver description ("gmres(30)+ilu0 rtol=1e-6").
int KSPGetDescription(KSP ksp, std::string* description);

/// Preconditioner setup counters for this handle: `builds` = full
/// constructions, `refreshes` = in-place value refreshes taken on the
/// SAME_NONZERO_PATTERN path.  Either pointer may be null.
int KSPGetPCSetupCounts(KSP ksp, int* builds, int* refreshes);

/// In-place preconditioner value refreshes over all handles since process
/// start (MiniMPI ranks are threads, so this spans every rank).  Tests
/// assert a zero delta where a port must keep its preconditioner as is.
[[nodiscard]] long long pcRefreshesTotal();

}  // namespace pksp
