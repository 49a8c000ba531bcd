// Block-row distributed sparse matrix with halo exchange.
//
// Every parallel solver package in this repository stores its operator this
// way: rank r owns a contiguous range of global rows (§5.4 block row
// partitioning).  Callers hand the block over with *global* column
// indices; the operator keeps ONE index array, renumbered in place to
// local columns as PETSc's MPIAIJ does: an owned input-vector column maps
// to [0, localCols()), a ghost (an off-process column the rows touch) to
// localCols() + its slot in the sorted ghost list.  Stored order is the
// caller's canonical (global column) order, so each row's owned entries
// are one contiguous run and every product is bitwise the serial CSR one.
// The ghosts' x entries are fetched from their owners through a
// communication plan.  Its local half (ghost list, renumbering, row runs)
// is built at construction; its collective half (who sends which entries,
// the reserved tags) on the first product, so an operator that is only
// gathered or viewed never pays for it.
//
// Every product runs one path.  The plan splits the local rows once into
// runs of *interior* rows (touch no ghost column) and *boundary* rows.
// Interior runs are swept in natural order straight from the caller's x
// while the ghosts are in flight; at p=1 that is the whole sweep, one run.
// Boundary runs then take each entry either from x or from a ghost-sized
// receive buffer.  The plan owns all per-spmv scratch, so spmv() performs
// no heap allocation.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "comm/comm.hpp"
#include "sparse/formats.hpp"
#include "sparse/partition.hpp"

namespace lisi::sparse {

/// Read-only view of one rank's block in local column numbering: the
/// operator's own arrays, no copy.  Column c < ownedCols is owned input
/// vector entry c; c >= ownedCols is a ghost.  Row i's owned entries are
/// the contiguous range ownedRange(i), in ascending column order, so they
/// are exactly the diagonal block that block-local preconditioners (ILU(0),
/// SOR, Gauss-Seidel) factor or sweep.  The view reads storage the
/// DistCsrMatrix owns: it stays valid, and sees in-place value refreshes,
/// until that operator is destroyed.
struct OwnedBlockView {
  struct Range {
    int begin;
    int end;
  };

  int rows = 0;
  int ownedCols = 0;
  const int* rowPtr = nullptr;  ///< rows + 1 entries
  const int* colIdx = nullptr;  ///< local column numbers
  const double* values = nullptr;

  [[nodiscard]] int nnz() const { return rows == 0 ? 0 : rowPtr[rows]; }

  /// Row i's owned entries: ghosts below the owned columns lead the row and
  /// ghosts above trail it, so one scan from each end finds the run.
  [[nodiscard]] Range ownedRange(int i) const {
    int b = rowPtr[i];
    int e = rowPtr[i + 1];
    while (b < e && colIdx[b] >= ownedCols) ++b;
    while (e > b && colIdx[e - 1] >= ownedCols) --e;
    return {b, e};
  }

  /// ownedRange(i) for a row that holds an owned entry (every row with its
  /// diagonal does): that entry ends each scan, so the hot loops of the
  /// preconditioners skip the bound checks.
  [[nodiscard]] int ownedBegin(int i) const {
    int k = rowPtr[i];
    while (colIdx[k] >= ownedCols) ++k;
    return k;
  }
  [[nodiscard]] int ownedEnd(int i) const {
    int k = rowPtr[i + 1];
    while (colIdx[k - 1] >= ownedCols) --k;
    return k;
  }

  /// Entries in the owned block.
  [[nodiscard]] int ownedNnz() const;

  /// Each row's diagonal entry position, -1 where the row has none.
  [[nodiscard]] std::vector<int> diagonalPositions() const;

  /// Same rows and the same local columns: a view of one block's pattern
  /// serves the other's values.
  [[nodiscard]] bool samePattern(const OwnedBlockView& o) const;
};

/// How a caller's block compares with the one an operator holds (see
/// DistCsrMatrix::matchBlock).
struct BlockMatch {
  bool pattern = false;  ///< same rows, row pointers and global columns
  bool values = false;   ///< same pattern and every value bitwise equal
  bool finite = true;    ///< no NaN or Inf among the caller's values
};

/// True when no value is NaN or Inf (read from the exponent bits, so
/// value-unsafe floating-point flags cannot fold the test away).
[[nodiscard]] bool allFinite(std::span<const double> values);

/// Distributed CSR matrix (square operators distribute x like rows; spmv
/// requires globalRows == globalCols).
class DistCsrMatrix {
 public:
  /// Wrap this rank's block of rows [startRow, startRow + local.rows).
  /// `local.cols` must equal `globalCols` (column indices are global).
  /// The block is kept as given (canonicalized, then renumbered to local
  /// columns in place): pass it by move and the operator holds it without
  /// a copy.
  /// Collective: all ranks of `comm` must construct together.
  ///
  /// For square operators the input vector of spmv() is partitioned like
  /// the rows.  Rectangular operators (multigrid transfer operators, for
  /// example) must pass `colStarts`: the ownership boundaries of the input
  /// vector (size comm.size()+1, covering [0, globalCols]).
  DistCsrMatrix(comm::Comm comm, int globalRows, int globalCols, int startRow,
                CsrMatrix local, std::vector<int> colStarts = {});

  /// The same, for callers whose ranks already agree on the row ownership
  /// boundaries `rowStarts` (size comm.size()+1, identical on every rank;
  /// this rank owns [rowStarts[rank], rowStarts[rank+1])): no
  /// communication at all.  The halo plan's collective half still waits
  /// for the first product.
  DistCsrMatrix(comm::Comm comm, std::vector<int> rowStarts, int globalCols,
                CsrMatrix local, std::vector<int> colStarts = {});

  /// Scatter a replicated global matrix by near-even block rows (rank 0's
  /// copy is authoritative).  Collective.
  static DistCsrMatrix scatterFromRoot(comm::Comm comm, const CsrMatrix& global,
                                       int root = 0);

  [[nodiscard]] int globalRows() const { return globalRows_; }
  [[nodiscard]] int globalCols() const { return globalCols_; }
  [[nodiscard]] int startRow() const;
  [[nodiscard]] int localRows() const { return local_.rows; }
  [[nodiscard]] long long globalNnz() const;
  /// Entries stored on this rank.
  [[nodiscard]] int localNnz() const { return local_.nnz(); }
  [[nodiscard]] const comm::Comm& comm() const { return comm_; }
  /// Row-ownership boundaries across ranks (size comm.size()+1).
  [[nodiscard]] const std::vector<int>& rowStarts() const { return rowStarts_; }
  /// Input-vector ownership boundaries (== rowStarts() for square operators).
  [[nodiscard]] const std::vector<int>& colStarts() const { return colStarts_; }
  /// Number of input-vector entries owned by this rank.
  [[nodiscard]] int localCols() const;

  /// This rank's block in local column numbering, with each row's owned
  /// range: what block-local preconditioners read instead of a copy.
  [[nodiscard]] OwnedBlockView ownedBlockView() const;

  /// Global column of local column c.
  [[nodiscard]] int globalCol(int c) const {
    if (c < ownedCols_) return c + colBase_;
    return ghostCols_[static_cast<std::size_t>(c - ownedCols_)];
  }

  /// A copy of this rank's rows with global column indices, in stored
  /// order: the caller-side form, for cold paths that hand the block on.
  [[nodiscard]] CsrMatrix globalBlock() const;

  /// The exact pattern check: compare a canonical block in global columns
  /// (the constructor's input form) with this rank's stored block, entry
  /// by entry in one pass, which also compares the values bitwise and
  /// scans them for NaN/Inf.  Exact, so no two patterns can be mistaken
  /// for each other.  Purely local.
  [[nodiscard]] BlockMatch matchBlock(const CsrMatrix& local) const;

  /// Refresh the numerical values in place, keeping the halo-exchange plan,
  /// ghost column map, and all scratch.  `local` must be canonical (sorted
  /// columns, merged duplicates) and carry exactly the sparsity structure of
  /// this operator (matchBlock's pattern); anything else throws.  Purely
  /// local: no communication and no allocation — this is the same-pattern
  /// fast path of the operator change contract (DESIGN.md "Operator change
  /// contract").
  void updateValues(const CsrMatrix& local);

  /// y = A*x; x is this rank's piece under colStarts(), y under rowStarts().
  /// Each row accumulates in stored (sorted global column) order, so the
  /// result is bitwise identical to the serial CSR kernel.  Collective.
  void spmv(std::span<const double> xLocal, std::span<double> yLocal) const;

  /// y = A*x through the float32 value mirror: the same halo plan, tag
  /// rotation, and row sweep as spmv(), but the matrix values, the packed
  /// halo payload, and the accumulation all run in float32 — half the
  /// value bandwidth.  The mirror (values + float
  /// scratch) is built lazily on first use and invalidated by updateValues;
  /// the index structure is shared with the double path.  Intended for the
  /// error-correction inner kernels of the mixed-precision backends, always
  /// wrapped in float64 refinement.  Collective: all ranks must call the
  /// same variant (spmv vs spmvFloat) together.
  void spmvFloat(std::span<const float> xLocal, std::span<float> yLocal) const;

  /// Y = A*X for `nVec` right-hand vectors stored contiguously
  /// vector-major: vector v occupies x[v*localCols(), (v+1)*localCols())
  /// and y[v*localRows(), (v+1)*localRows()).  ONE halo-exchange round
  /// moves every vector's ghost entries (nVec values per ghost index,
  /// index-major on the wire), so the per-spmv message count — the latency
  /// term that dominates small systems — is paid once instead of nVec
  /// times.  The row sweep takes up to four vectors per pass, sharing
  /// each entry's value and index load; every vector keeps spmv()'s own
  /// accumulator and order, so lane v is bitwise identical to spmv() on
  /// that vector.  Collective;
  /// all ranks must pass the same nVec.  nVec == 1 delegates to spmv().
  void spmvMulti(std::span<const double> xLocal, std::span<double> yLocal,
                 int nVec) const;

  /// Gather the whole matrix onto `root` (empty matrix elsewhere).
  /// Used by the direct-solver package.  Collective.
  [[nodiscard]] CsrMatrix gatherToRoot(int root = 0) const;

  /// Gather a conformally partitioned vector onto `root`.  Collective.
  [[nodiscard]] std::vector<double> gatherVectorToRoot(
      std::span<const double> xLocal, int root = 0) const;

  /// Scatter a global vector on `root` into conformal local pieces.
  /// Collective.
  [[nodiscard]] std::vector<double> scatterVectorFromRoot(
      std::span<const double> xGlobal, int root = 0) const;

  /// The diagonal part of this rank's rows (global diagonal restricted to
  /// the owned range).
  [[nodiscard]] std::vector<double> localDiagonal() const;

  /// Number of ghost entries this rank pulls per spmv (plan statistics).
  [[nodiscard]] int numGhosts() const { return static_cast<int>(ghostCols_.size()); }

  /// Rows whose columns are all locally owned (computed while ghosts are
  /// in flight).
  [[nodiscard]] int numInteriorRows() const;
  /// Rows that touch at least one ghost column (computed after the recv).
  [[nodiscard]] int numBoundaryRows() const;

 private:
  /// Local row or column indices [begin, end).
  struct Run {
    int begin;
    int end;
  };

  /// Per-scalar spmv scratch, sized by the plan: no copy of x.
  template <class T>
  struct Scratch {
    std::vector<T> send;  ///< packed outgoing x entries, index-major
    std::vector<T> recv;  ///< ghost payload, index-major (nVec per ghost)
  };

  /// matchBlock's pass; without kValues only the pattern (updateValues'
  /// check), and `values` reads false.
  template <bool kValues>
  [[nodiscard]] BlockMatch compareBlock(const CsrMatrix& local) const;
  /// The plan's local half: ghost list, renumbering, recv side, row runs.
  void buildLocalPlan();
  /// The plan's collective half, on the first product: every caller of a
  /// product runs it on all ranks together, so all ranks get here at the
  /// same point of their collective sequence.
  void ensureSendPlan() const;
  /// Grow `s` for nVec vectors (growth-only: steady state never allocates).
  template <class T>
  void reserveScratch(Scratch<T>& s, int nVec) const;
  /// The one product: pack and send, sweep interior runs while ghosts are
  /// in flight, receive the ghosts, sweep boundary runs.
  template <class T>
  void spmvRuns(std::span<const T> x, std::span<T> y, int nVec,
                const std::vector<T>& values, Scratch<T>& s) const;

  comm::Comm comm_;
  int globalRows_ = 0;
  int globalCols_ = 0;
  CsrMatrix local_;             ///< local column numbers; the only copy
  std::vector<int> rowStarts_;  ///< row ownership boundaries, size P+1
  std::vector<int> colStarts_;  ///< input-vector ownership boundaries
  int colBase_ = 0;             ///< global column of local column 0
  int ownedCols_ = 0;           ///< local columns [0, ownedCols_) are owned

  // Halo plan, local half (built at construction):
  std::vector<int> ghostCols_;              ///< sorted global cols we need;
                                            ///< ghost slot s is local column
                                            ///< ownedCols_ + s
  std::vector<int> recvFromRanks_;          ///< ranks we receive ghosts from
  std::vector<int> recvCounts_;             ///< ghosts per recv rank
  std::vector<int> recvOffsets_;            ///< slot offset per recv rank
  std::vector<Run> interiorRows_;           ///< rows with no ghost column
  std::vector<Run> boundaryRows_;           ///< rows with >= 1 ghost column

  // Halo plan, collective half (built by the first product; mutable, as
  // the products are logically const and each rank owns its instance):
  mutable bool sendPlanReady_ = false;
  mutable std::vector<int> sendToRanks_;    ///< ranks we send x entries to
  mutable std::vector<int> sendIdx_;        ///< local x indices, flat
  mutable std::vector<int> sendOffsets_;    ///< sendIdx_ range per send rank,
                                            ///< size sendToRanks_.size()+1
  mutable std::vector<int> spmvTags_;       ///< reserved tags, one per round

  // Per-spmv scratch; ensureSendPlan() sizes the double scratch for one
  // vector so a warm spmv() never allocates.  Mutable: spmv() is logically
  // const; each rank owns its DistCsrMatrix instance, so there is no
  // cross-thread aliasing.
  mutable Scratch<double> scratch_;
  mutable std::size_t spmvRound_ = 0;       ///< rotates through spmvTags_

  // Float32 value mirror for spmvFloat(), built lazily from local_ on
  // first use (the index structure is shared); updateValues marks it stale.
  mutable std::vector<float> valuesF_;      ///< float copy of local_.values
  mutable Scratch<float> scratchF_;
  mutable bool floatMirrorFresh_ = false;
};

// ---- Reuse observability (process-wide, across MiniMPI rank-threads) ----

/// Number of halo-plan constructions (the collective half, built by an
/// operator's first product) since process start.  Tests assert a zero
/// delta across a same-pattern re-setup to prove the plan was reused.
[[nodiscard]] long long haloPlanBuilds();

/// Number of in-place value refreshes (updateValues calls) since process
/// start.
[[nodiscard]] long long valueUpdates();

// ---- Distributed vector helpers (conformal block-row pieces) -----------

/// Global dot product of two partitioned vectors.  Collective.
[[nodiscard]] double distDot(const comm::Comm& comm, std::span<const double> x,
                             std::span<const double> y);

/// Two global dot products fused into one two-element allreduce (halves the
/// latency-bound collective count on the CG hot path).  The allreduce
/// schedule is elementwise, so each result is bitwise identical to the
/// corresponding standalone distDot.  Collective.
[[nodiscard]] std::array<double, 2> distDot2(const comm::Comm& comm,
                                             std::span<const double> x1,
                                             std::span<const double> y1,
                                             std::span<const double> x2,
                                             std::span<const double> y2);

/// Global Euclidean norm of a partitioned vector.  Collective.
[[nodiscard]] double distNorm2(const comm::Comm& comm,
                               std::span<const double> x);

/// Global infinity norm of a partitioned vector.  Collective.
[[nodiscard]] double distNormInf(const comm::Comm& comm,
                                 std::span<const double> x);

/// One dot-product lane: accumulates sum_i x[i]*y[i] across all ranks.
struct DotArgs {
  std::span<const double> x;
  std::span<const double> y;
};

// ---- Fused multi-vector kernels -----------------------------------------
//
// The Krylov orthogonalization runs on these two kernels.  Both interleave
// several vectors in one pass over memory, and both keep every lane's
// arithmetic exactly as the one-vector loop does it: a lane has its own
// accumulator (or, for maxpy, each element takes its updates in the same
// order), so each result is bitwise that of distDot or of sequential axpys.

/// out[l] = global sum_i dots[l].x[i] * dots[l].y[i], all lanes in ONE
/// allreduce.  The local partials are computed up to 8 lanes at a time;
/// when those lanes share x (GMRES projects one vector on a whole basis),
/// x[i] is loaded once for all of them.  Each lane is bitwise identical to
/// distDot on the same pair.  Writes into caller storage, so a warm call
/// allocates nothing at p=1.  Collective.
void distDots(const comm::Comm& comm, std::span<const DotArgs> dots,
              std::span<double> out);

/// Kelley's reorthogonalization test for classical Gram-Schmidt: GMRES
/// runs a second CGS pass on an Arnoldi vector when the projections left
/// less than this fraction of its norm (severe cancellation).
inline constexpr double kCgsReorthRatio = 1e-3;

/// w -= sum_i coeffs[i] * ys[i] (local), four ys per pass over w.  Element
/// k takes its updates in ascending i, so w is bitwise identical to the
/// sequential loops `w[k] -= coeffs[i] * ys[i][k]`.  Returns the local
/// sum_k w[k]^2 of the result, accumulated in ascending k inside the last
/// pass: bitwise the local partial distDot(w, w) would compute.
double maxpy(std::span<double> w, std::span<const double> coeffs,
             std::span<const std::span<const double>> ys);

}  // namespace lisi::sparse
