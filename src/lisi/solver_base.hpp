// Shared scaffolding for LISI solver components.
//
// Every backend adapter (PKSP, Aztec, SLU, HyMG) faces the same four jobs:
//   1. bookkeeping for the block-row distribution parameters (§6.3:
//      separate setStartRow/setLocalRows/setLocalNNZ/setGlobalCols methods
//      so setupMatrix/setupRHS/solve need not repeat them),
//   2. adapting the input format (CSR/COO/MSR/VBR/FEM, any index offset) to
//      a local CSR block — "the implementation works as an adapter to
//      convert the input data format to the libraries' internal data
//      structure" (§7.2),
//   3. a generic parameter table behind set/setInt/setBool/setDouble (§6.5),
//   4. status reporting and error-code translation (no exceptions cross the
//      port).
//
// SolverComponentBase implements all of that once; backends override the
// backendSolve/backendName hooks and read their parameters from the table.
#pragma once

#include <map>
#include <memory>
#include <optional>

#include "comm/comm.hpp"
#include "comm/comm_handle.hpp"
#include "lisi/sparse_solver.hpp"
#include "sparse/dist_csr.hpp"
#include "support/prec.hpp"
#include "tune/tune.hpp"

namespace lisi::detail {

/// How the operator handed to this backendSolve relates to the one handed
/// to the previous backendSolve on the same component.  The three-state
/// contract every mature library ships (PETSc SAME_NONZERO_PATTERN, SuperLU
/// SamePattern); solver_base detects the state automatically by comparing
/// the adapted local CSR block with the held operator entry by entry, so
/// applications just call setupMatrix again (DESIGN.md "Operator change
/// contract").
enum class OperatorChange {
  /// Identical operator object, untouched since the last backendSolve:
  /// factorizations, hierarchies, and preconditioners stay valid as-is.
  kSameOperator,
  /// Values changed on the identical sparsity pattern: symbolic objects
  /// (halo plan, elimination structure, grid hierarchy, PC storage layout)
  /// survive; only numeric content needs a refresh.
  kSameStructure,
  /// Pattern changed, first solve, or the operator kind flipped between
  /// assembled and matrix-free: full rebuild.
  kNewStructure,
};

/// Everything a backend needs for one solve call.
struct SolveContext {
  const comm::Comm* comm = nullptr;
  /// Assembled operator; null in matrix-free mode.  Shared with the port,
  /// which refreshes its values in place on a kSameStructure change: a
  /// backend may keep this handle as a view across solves, and it never
  /// dangles (DESIGN.md "Operator ownership").
  std::shared_ptr<const sparse::DistCsrMatrix> matrix;
  /// Application-provided operator; null unless matrix-free mode is on.
  MatrixFree* matrixFree = nullptr;
  int localRows = 0;
  int globalRows = 0;
  int startRow = 0;
  /// Operator relation to the previous backendSolve; identical on every
  /// rank (each rank's comparison is agreed by allreduce).
  OperatorChange change = OperatorChange::kNewStructure;
  /// Resolved precision mode for this solve (never kAuto: solver_base
  /// resolves "auto" against the global nnz before calling the backend).
  /// kMixed asks the backend to run its preconditioner/factor speed path in
  /// float32 under the float64 outer iteration; backends without a float32
  /// path (Aztec) accept the request and stay float64.  Identical on every
  /// rank: the mode comes from the parameter table / environment, which the
  /// LISI contract requires to agree across ranks, and the auto threshold
  /// is evaluated against the same allreduced nnz everywhere.
  prec::Mode precision = prec::Mode::kDouble;
};

/// Per-solve results a backend reports back.
struct BackendStats {
  int iterations = 0;
  double residualNorm = 0.0;
  bool converged = false;
};

/// Base class implementing the full SparseSolver contract.
class SolverComponentBase : public SparseSolver {
 public:
  // ---- SparseSolver ----------------------------------------------------
  int initialize(long comm) final;
  int setBlockSize(int bs) final;
  int setStartRow(int startRow) final;
  int setLocalRows(int rows) final;
  int setLocalNNZ(int nnz) final;
  int setGlobalCols(int cols) final;
  int setupMatrix(RArray<const double> values, RArray<const int> rows,
                  RArray<const int> columns, int nnz) final;
  int setupMatrix(RArray<const double> values, RArray<const int> rows,
                  RArray<const int> columns, SparseStruct dataStruct,
                  int rowsLength, int nnz) final;
  int setupMatrix(RArray<const double> values, RArray<const int> rows,
                  RArray<const int> columns, SparseStruct dataStruct,
                  int rowsLength, int nnz, int offset) final;
  int setupRHS(RArray<const double> rightHandSide, int numLocalRow,
               int nRhs) final;
  int solve(RArray<double> solution, RArray<double> status, int numLocalRow,
            int statusLength) final;
  int set(const std::string& key, const std::string& value) final;
  int setInt(const std::string& key, int value) final;
  int setBool(const std::string& key, bool value) final;
  int setDouble(const std::string& key, double value) final;
  std::string get_all() final;

  /// Wire the owning component's Services in (for the MatrixFree uses port).
  void attachServices(cca::Services* services) { services_ = services; }

 protected:
  SolverComponentBase();

  // ---- backend hooks ----------------------------------------------------

  /// Solve A x = b for one right-hand side.  `x` carries the initial guess
  /// in (zero unless "use_initial_guess") and the solution out.  Throw
  /// lisi::Error for numerical failures; return one of ErrorCode otherwise.
  virtual int backendSolve(const SolveContext& ctx,
                           std::span<const double> b, std::span<double> x,
                           BackendStats& stats) = 0;

  /// Solve A X = B for `nRhs` right-hand sides sharing the operator.
  /// b/x are vector-major (RHS k occupies [k*localRows, (k+1)*localRows));
  /// x carries the initial guesses in and the solutions out.  The default
  /// implementation runs the single-RHS backendSolve hook once per lane —
  /// bitwise identical to the caller looping over setupRHS/solve pairs —
  /// and reports the batch as its worst lane: the most iterations, the
  /// largest residual, converged only if every lane converged.  Backends
  /// with a batched path (PKSP's blocked Krylov kernels, Aztec's
  /// MultiVector) override this and always take it, aggregating the same
  /// way.
  virtual int backendSolveMulti(const SolveContext& ctx,
                                std::span<const double> b,
                                std::span<double> x, int nRhs,
                                BackendStats& stats);

  /// Short name used in get_all() and error messages ("pksp", "slu", ...).
  [[nodiscard]] virtual const char* backendName() const = 0;

  /// Whether this backend can run without an assembled matrix.
  [[nodiscard]] virtual bool supportsMatrixFree() const { return false; }

  /// Whether this backend can solve with this rank's block of a new
  /// operator: `local` is the adapted block (canonical, global columns) of
  /// rows [startRow, startRow + local.rows).  Purely local; called on every
  /// rank before the set-up's agreement collective, whose lanes carry the
  /// verdict, so one rank's rejection makes the solve return
  /// kInvalidArgument on every rank.  Default accepts.
  [[nodiscard]] virtual bool acceptsOperator(const sparse::CsrMatrix& local,
                                             int startRow) const {
    (void)local;
    (void)startRow;
    return true;
  }

  /// Reject unsupported parameter keys/values.  Called by the set methods
  /// after canonicalization; default accepts the common key set.
  [[nodiscard]] virtual bool acceptsParam(const std::string& key) const;

  // ---- parameter helpers for backends -----------------------------------

  [[nodiscard]] std::string paramString(const std::string& key,
                                        const std::string& fallback) const;
  [[nodiscard]] double paramDouble(const std::string& key,
                                   double fallback) const;
  [[nodiscard]] int paramInt(const std::string& key, int fallback) const;
  [[nodiscard]] bool paramBool(const std::string& key, bool fallback) const;

  [[nodiscard]] const comm::Comm& comm() const { return comm_; }

  /// The full parameter table (canonical lower-case keys).  For adapters
  /// that forward every option verbatim across a string-keyed boundary
  /// (src/plugin) instead of reading a fixed key set.
  [[nodiscard]] const std::map<std::string, std::string>& paramTable() const {
    return params_;
  }

 private:
  int setupMatrixImpl(RArray<const double> values, RArray<const int> rows,
                      RArray<const int> columns, SparseStruct dataStruct,
                      int rowsLength, int nnz, int offset);
  /// Agree on the freshly adapted block with one sum-allreduce and build,
  /// refresh or keep distA_ accordingly.  Collective; on a rejected
  /// operator returns kInvalidArgument on every rank with nothing changed.
  int agreeOnOperator();
  int storeParam(const std::string& key, const std::string& value);
  /// Common keys every backend understands.
  [[nodiscard]] static bool isCommonParam(const std::string& key);

  cca::Services* services_ = nullptr;
  comm::Comm comm_;
  bool initialized_ = false;

  int blockSize_ = 1;
  int startRow_ = -1;
  int localRows_ = -1;
  int localNnz_ = -1;
  int globalCols_ = -1;

  /// Adapted local rows, global columns (canonical).  Held only between
  /// setupMatrix and the next solve: a new structure moves it into distA_,
  /// a same-structure refresh copies its values over and releases it.
  sparse::CsrMatrix localA_;
  bool haveMatrix_ = false;
  bool matrixDirty_ = false;  ///< local block changed since distA_ was built
  std::shared_ptr<sparse::DistCsrMatrix> distA_;
  /// Structural epoch: bumped when the sparsity pattern changes (on any
  /// rank) and distA_ is rebuilt from scratch.
  std::uint64_t structEpoch_ = 0;
  /// Value epoch: bumped on every operator content change (rebuild or
  /// in-place refresh).  Distinct from structEpoch_ so a same-pattern
  /// setupMatrix reports kSameStructure, not kNewStructure.
  std::uint64_t valueEpoch_ = 0;
  std::uint64_t lastSolvedStructEpoch_ = 0;
  std::uint64_t lastSolvedValueEpoch_ = 0;
  /// Global nonzeros of distA_, agreed with it.
  long long globalNnz_ = 0;
  /// Which operator kind the last successful solve used; switching between
  /// assembled and matrix-free always reports kNewStructure.
  enum class OperatorKind { kNone, kAssembled, kMatrixFree };
  OperatorKind lastSolvedKind_ = OperatorKind::kNone;

  /// Autotuner bookkeeping (src/tune): which structure epoch was last tuned
  /// under which mode — when both are current the solve replays the tuned
  /// schedule with zero communication — and how many kNewStructure
  /// retunes this component has spent against its budget.
  std::uint64_t tunedStructEpoch_ = 0;  ///< 0: never tuned
  tune::Mode tunedMode_ = tune::Mode::kOff;
  int tuneRetunes_ = 0;

  std::vector<double> rhs_;
  int nRhs_ = 0;

  std::map<std::string, std::string> params_;
};

}  // namespace lisi::detail
