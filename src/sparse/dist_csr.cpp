#include "sparse/dist_csr.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <cmath>
#include <numeric>
#include <type_traits>

#include "comm/tags.hpp"
#include "obs/obs.hpp"
#include "support/prec.hpp"

namespace lisi::sparse {

namespace {
// All fixed protocol tags live in the central registry (comm/tags.hpp);
// aliased locally to keep the call sites short.
constexpr int kScatterTag = comm::tags::kMatrixScatter;
constexpr int kPlanTag = comm::tags::kHaloPlan;
constexpr int kSpmvTagRounds = comm::tags::kSpmvTagRounds;

// Reuse observability: MiniMPI ranks are threads of one process, so the
// counters are process-wide atomics (tests look at deltas, which is exactly
// what "no rank rebuilt its plan" means under threads-as-ranks).
// Memory order (audited): relaxed everywhere — monotonic counters with no
// publication duty; delta readers run between worlds, after thread joins.
std::atomic<long long> gHaloPlanBuilds{0};
std::atomic<long long> gValueUpdates{0};
}

long long haloPlanBuilds() {
  return gHaloPlanBuilds.load(std::memory_order_relaxed);
}

long long valueUpdates() {
  return gValueUpdates.load(std::memory_order_relaxed);
}

namespace {

// A value is NaN or Inf exactly when its exponent field is all ones.  Adding
// one unit of the field to the masked field carries into the sign bit only
// then, so OR-ing that sum over the values flags any non-finite one with
// 64-bit integer operations alone, which vectorize.
constexpr std::uint64_t kExpMask = 0x7ff0000000000000ull;
constexpr std::uint64_t kExpUnit = 0x0010000000000000ull;

std::uint64_t bitsOf(const double& x) {
  std::uint64_t v;
  std::memcpy(&v, &x, sizeof v);
  return v;
}

}  // namespace

bool allFinite(std::span<const double> values) {
  std::uint64_t carry = 0;
  for (const double& x : values) carry |= (bitsOf(x) & kExpMask) + kExpUnit;
  return (carry >> 63) == 0;
}

template <bool kValues>
BlockMatch DistCsrMatrix::compareBlock(const CsrMatrix& local) const {
  BlockMatch m;
  m.pattern = local.rows == local_.rows && local.cols == globalCols_ &&
              local.rowPtr == local_.rowPtr &&
              local.colIdx.size() == local_.colIdx.size() &&
              local.values.size() == local_.values.size();
  if (!m.pattern) {
    if constexpr (kValues) m.finite = allFinite(local.values);
    return m;
  }
  // Owned entries (local column below ownedCols_) map to global columns by
  // a fixed offset, so one branch-free pass, which the compiler vectorizes,
  // checks them and, when asked, compares the values bitwise and reads
  // their exponent fields.
  const std::size_t n = local_.colIdx.size();
  const int* held = local_.colIdx.data();
  const int* given = local.colIdx.data();
  const int own = ownedCols_;
  const int base = colBase_;
  unsigned badCols = 0;
  std::uint64_t diff = 0;   // OR of the values' bitwise differences
  std::uint64_t carry = 0;  // see allFinite
  for (std::size_t k = 0; k < n; ++k) {
    const int c = held[k];
    badCols |= static_cast<unsigned>(c < own) &
               static_cast<unsigned>(c + base != given[k]);
    if constexpr (kValues) {
      const std::uint64_t v = bitsOf(local.values[k]);
      diff |= v ^ bitsOf(local_.values[k]);
      carry |= (v & kExpMask) + kExpUnit;
    }
  }
  // Ghost entries sit only in boundary rows: map them through the ghost
  // list.
  for (const Run& run : boundaryRows_) {
    for (int k = local_.rowPtr[static_cast<std::size_t>(run.begin)];
         k < local_.rowPtr[static_cast<std::size_t>(run.end)]; ++k) {
      const int c = held[k];
      if (c >= own) {
        badCols |= static_cast<unsigned>(
            ghostCols_[static_cast<std::size_t>(c - own)] != given[k]);
      }
    }
  }
  m.pattern = badCols == 0;
  m.values = kValues && m.pattern && diff == 0;
  m.finite = (carry >> 63) == 0;
  return m;
}

BlockMatch DistCsrMatrix::matchBlock(const CsrMatrix& local) const {
  return compareBlock<true>(local);
}

void DistCsrMatrix::updateValues(const CsrMatrix& local) {
  LISI_CHECK(compareBlock<false>(local).pattern,
             "updateValues: sparsity structure differs from the built "
             "operator (callers must pass the canonical same-pattern block)");
  // The plan holds no values of its own, so this is the only copy.
  std::copy(local.values.begin(), local.values.end(), local_.values.begin());
  floatMirrorFresh_ = false;  // spmvFloat re-mirrors on next use
  gValueUpdates.fetch_add(1, std::memory_order_relaxed);
  obs::count("sparse.value_updates");
}

int OwnedBlockView::ownedNnz() const {
  int n = 0;
  for (int i = 0; i < rows; ++i) {
    const Range own = ownedRange(i);
    n += own.end - own.begin;
  }
  return n;
}

std::vector<int> OwnedBlockView::diagonalPositions() const {
  std::vector<int> pos(static_cast<std::size_t>(rows), -1);
  for (int i = 0; i < rows; ++i) {
    const Range own = ownedRange(i);
    for (int k = own.begin; k < own.end; ++k) {
      if (colIdx[k] == i) pos[static_cast<std::size_t>(i)] = k;
    }
  }
  return pos;
}

bool OwnedBlockView::samePattern(const OwnedBlockView& o) const {
  if (rows != o.rows || ownedCols != o.ownedCols) return false;
  if (rowPtr == o.rowPtr && colIdx == o.colIdx) return true;
  return std::equal(rowPtr, rowPtr + rows + 1, o.rowPtr) &&
         std::equal(colIdx, colIdx + nnz(), o.colIdx);
}

namespace {

/// Row ownership boundaries from every rank's extent: one allgatherv, and
/// the check that the ranks tile [0, globalRows) contiguously.
std::vector<int> gatherRowStarts(const comm::Comm& comm, int globalRows,
                                 int startRow, int rows) {
  LISI_CHECK(comm.valid(), "DistCsrMatrix: invalid communicator");
  struct Extent {
    int start;
    int count;
  };
  const Extent mine{startRow, rows};
  std::vector<Extent> all =
      comm.allgatherv(std::span<const Extent>(&mine, 1), nullptr);
  const int p = comm.size();
  std::vector<int> rowStarts(static_cast<std::size_t>(p) + 1);
  int pos = 0;
  for (int r = 0; r < p; ++r) {
    LISI_CHECK(all[static_cast<std::size_t>(r)].start == pos,
               "DistCsrMatrix: ranks do not tile the global rows contiguously");
    rowStarts[static_cast<std::size_t>(r)] = pos;
    pos += all[static_cast<std::size_t>(r)].count;
  }
  rowStarts[static_cast<std::size_t>(p)] = pos;
  LISI_CHECK(pos == globalRows,
             "DistCsrMatrix: local row counts do not sum to globalRows");
  return rowStarts;
}

}  // namespace

DistCsrMatrix::DistCsrMatrix(comm::Comm comm, int globalRows, int globalCols,
                             int startRow, CsrMatrix local,
                             std::vector<int> colStarts)
    // local.rows is read whichever argument is built first: a moved-from
    // block keeps its row count.
    : DistCsrMatrix(comm,
                    gatherRowStarts(comm, globalRows, startRow, local.rows),
                    globalCols, std::move(local), std::move(colStarts)) {}

DistCsrMatrix::DistCsrMatrix(comm::Comm comm, std::vector<int> rowStarts,
                             int globalCols, CsrMatrix local,
                             std::vector<int> colStarts)
    : comm_(std::move(comm)),
      globalCols_(globalCols),
      local_(std::move(local)),
      rowStarts_(std::move(rowStarts)),
      colStarts_(std::move(colStarts)) {
  LISI_CHECK(comm_.valid(), "DistCsrMatrix: invalid communicator");
  const int p = comm_.size();
  const auto rank = static_cast<std::size_t>(comm_.rank());
  LISI_CHECK(static_cast<int>(rowStarts_.size()) == p + 1 &&
                 rowStarts_.front() == 0,
             "DistCsrMatrix: bad rowStarts boundaries");
  for (int r = 0; r < p; ++r) {
    LISI_CHECK(rowStarts_[static_cast<std::size_t>(r)] <=
                   rowStarts_[static_cast<std::size_t>(r) + 1],
               "DistCsrMatrix: rowStarts not monotone");
  }
  LISI_CHECK(rowStarts_[rank + 1] - rowStarts_[rank] == local_.rows,
             "DistCsrMatrix: local block does not match its rowStarts range");
  globalRows_ = rowStarts_.back();
  LISI_CHECK(globalCols_ >= 0, "DistCsrMatrix: negative dimensions");
  LISI_CHECK(local_.cols == globalCols_,
             "DistCsrMatrix: local block must carry global column indices");
  local_.check();
  local_.canonicalize();

  if (colStarts_.empty()) {
    // Square operators distribute x like the rows.
    if (globalRows_ == globalCols_) colStarts_ = rowStarts_;
  } else {
    LISI_CHECK(static_cast<int>(colStarts_.size()) == p + 1 &&
                   colStarts_.front() == 0 && colStarts_.back() == globalCols_,
               "DistCsrMatrix: bad colStarts boundaries");
    for (int r = 0; r < p; ++r) {
      LISI_CHECK(colStarts_[static_cast<std::size_t>(r)] <=
                     colStarts_[static_cast<std::size_t>(r) + 1],
                 "DistCsrMatrix: colStarts not monotone");
    }
  }
  // Without an input-vector partition the block keeps its global columns
  // (every column counts as owned, so globalCol is the identity).
  ownedCols_ = globalCols_;
  if (!colStarts_.empty()) buildLocalPlan();
}

int DistCsrMatrix::localCols() const {
  LISI_CHECK(!colStarts_.empty(),
             "DistCsrMatrix: no input-vector partition (rectangular matrix "
             "constructed without colStarts)");
  return colStarts_[static_cast<std::size_t>(comm_.rank()) + 1] -
         colStarts_[static_cast<std::size_t>(comm_.rank())];
}

OwnedBlockView DistCsrMatrix::ownedBlockView() const {
  return {local_.rows, ownedCols_, local_.rowPtr.data(), local_.colIdx.data(),
          local_.values.data()};
}

CsrMatrix DistCsrMatrix::globalBlock() const {
  CsrMatrix g;
  g.rows = local_.rows;
  g.cols = globalCols_;
  g.rowPtr = local_.rowPtr;
  g.colIdx.resize(local_.colIdx.size());
  for (std::size_t k = 0; k < g.colIdx.size(); ++k) {
    g.colIdx[k] = globalCol(local_.colIdx[k]);
  }
  g.values = local_.values;
  return g;
}

int DistCsrMatrix::numInteriorRows() const {
  int n = 0;
  for (const Run& run : interiorRows_) n += run.end - run.begin;
  return n;
}

int DistCsrMatrix::numBoundaryRows() const {
  return local_.rows - numInteriorRows();
}

int DistCsrMatrix::startRow() const {
  return rowStarts_[static_cast<std::size_t>(comm_.rank())];
}

long long DistCsrMatrix::globalNnz() const {
  return comm_.allreduceValue<long long>(local_.nnz(), comm::ReduceOp::kSum);
}

DistCsrMatrix DistCsrMatrix::scatterFromRoot(comm::Comm comm,
                                             const CsrMatrix& global,
                                             int root) {
  const int p = comm.size();
  int dims[2] = {global.rows, global.cols};
  comm.bcast(std::span<int>(dims), root);
  const BlockRowPartition part(dims[0], p);
  const int rank = comm.rank();

  // Root slices its copy; everyone receives their block.
  std::vector<int> rowLens;
  std::vector<int> cols;
  std::vector<double> vals;
  if (rank == root) {
    for (int r = 0; r < p; ++r) {
      const int s = part.startRow(r);
      const int c = part.localRows(r);
      std::vector<int> lens(static_cast<std::size_t>(c));
      std::vector<int> blockCols;
      std::vector<double> blockVals;
      for (int i = 0; i < c; ++i) {
        const int g = s + i;
        const int b = global.rowPtr[static_cast<std::size_t>(g)];
        const int e = global.rowPtr[static_cast<std::size_t>(g) + 1];
        lens[static_cast<std::size_t>(i)] = e - b;
        blockCols.insert(blockCols.end(), global.colIdx.begin() + b,
                         global.colIdx.begin() + e);
        blockVals.insert(blockVals.end(), global.values.begin() + b,
                         global.values.begin() + e);
      }
      if (r == root) {
        rowLens = std::move(lens);
        cols = std::move(blockCols);
        vals = std::move(blockVals);
      } else {
        comm.send(std::span<const int>(lens), r, kScatterTag);
        comm.send(std::span<const int>(blockCols), r, kScatterTag);
        comm.send(std::span<const double>(blockVals), r, kScatterTag);
      }
    }
  } else {
    rowLens = comm.recvVector<int>(root, kScatterTag);
    cols = comm.recvVector<int>(root, kScatterTag);
    vals = comm.recvVector<double>(root, kScatterTag);
  }

  CsrMatrix local;
  local.rows = part.localRows(rank);
  local.cols = dims[1];
  local.rowPtr.assign(static_cast<std::size_t>(local.rows) + 1, 0);
  for (int i = 0; i < local.rows; ++i) {
    local.rowPtr[static_cast<std::size_t>(i) + 1] =
        local.rowPtr[static_cast<std::size_t>(i)] +
        rowLens[static_cast<std::size_t>(i)];
  }
  local.colIdx = std::move(cols);
  local.values = std::move(vals);
  return DistCsrMatrix(std::move(comm), dims[0], dims[1], part.startRow(rank),
                       std::move(local));
}

void DistCsrMatrix::buildLocalPlan() {
  const int p = comm_.size();
  const int rank = comm_.rank();
  const int myStart = colStarts_[static_cast<std::size_t>(rank)];
  const int myEnd = colStarts_[static_cast<std::size_t>(rank) + 1];
  const int nlocal = myEnd - myStart;

  // Ghost columns: referenced, not owned.
  ghostCols_.clear();
  for (int c : local_.colIdx) {
    if (c < myStart || c >= myEnd) ghostCols_.push_back(c);
  }
  std::sort(ghostCols_.begin(), ghostCols_.end());
  ghostCols_.erase(std::unique(ghostCols_.begin(), ghostCols_.end()),
                   ghostCols_.end());

  // Renumber the block's columns in place: owned -> [0, nlocal), ghost ->
  // nlocal + position in ghostCols_.  Stored order does not change.
  for (int& c : local_.colIdx) {
    if (c >= myStart && c < myEnd) {
      c -= myStart;
    } else {
      const auto it = std::lower_bound(ghostCols_.begin(), ghostCols_.end(), c);
      c = nlocal + static_cast<int>(it - ghostCols_.begin());
    }
  }
  colBase_ = myStart;
  ownedCols_ = nlocal;
  local_.cols = nlocal + static_cast<int>(ghostCols_.size());

  // Group ghost columns by owner (ghostCols_ is sorted, so owners ascend
  // and each owner's ghosts are one slice of it).  Owner lookup over the
  // (possibly uneven) colStarts_ boundaries: empty ranges make upper_bound
  // ambiguous, so scan to the owning non-empty one.
  recvFromRanks_.clear();
  recvCounts_.clear();
  recvOffsets_.clear();
  for (std::size_t s = 0; s < ghostCols_.size(); ++s) {
    const int c = ghostCols_[s];
    const auto it = std::upper_bound(colStarts_.begin(), colStarts_.end(), c);
    int owner = static_cast<int>(it - colStarts_.begin()) - 1;
    while (owner + 1 < p &&
           colStarts_[static_cast<std::size_t>(owner)] ==
               colStarts_[static_cast<std::size_t>(owner) + 1]) {
      ++owner;
    }
    LISI_ASSERT(owner >= 0 && owner < p && owner != rank);
    if (recvFromRanks_.empty() || recvFromRanks_.back() != owner) {
      recvFromRanks_.push_back(owner);
      recvCounts_.push_back(0);
      recvOffsets_.push_back(static_cast<int>(s));
    }
    ++recvCounts_.back();
  }

  // One-time interior/boundary split into runs of consecutive rows:
  // interior rows read only owned x entries, so they can run while ghost
  // values are still in flight.
  const auto extend = [](std::vector<Run>& runs, int i) {
    if (!runs.empty() && runs.back().end == i) {
      runs.back().end = i + 1;
    } else {
      runs.push_back({i, i + 1});
    }
  };
  interiorRows_.clear();
  boundaryRows_.clear();
  for (int i = 0; i < local_.rows; ++i) {
    const auto first =
        local_.colIdx.begin() + local_.rowPtr[static_cast<std::size_t>(i)];
    const auto last =
        local_.colIdx.begin() + local_.rowPtr[static_cast<std::size_t>(i) + 1];
    const bool interior =
        std::all_of(first, last, [nlocal](int c) { return c < nlocal; });
    extend(interior ? interiorRows_ : boundaryRows_, i);
  }
}

void DistCsrMatrix::ensureSendPlan() const {
  if (sendPlanReady_) return;
  gHaloPlanBuilds.fetch_add(1, std::memory_order_relaxed);
  obs::count("sparse.halo_plan_builds");
  obs::Span span("sparse.halo_plan_build");
  const int p = comm_.size();
  const int rank = comm_.rank();
  const int myStart = colBase_;

  // Tell every rank how many of its entries we need, then send each owner
  // its slice of the ghost list so senders know what to ship each spmv.
  std::vector<int> requestCounts(static_cast<std::size_t>(p), 0);
  for (std::size_t r = 0; r < recvFromRanks_.size(); ++r) {
    requestCounts[static_cast<std::size_t>(recvFromRanks_[r])] = recvCounts_[r];
  }
  std::vector<int> allCounts =
      comm_.allgatherv(std::span<const int>(requestCounts), nullptr);
  // allCounts[q*p + r] = how many entries rank q needs from rank r.
  sendToRanks_.clear();
  sendIdx_.clear();
  sendOffsets_.assign(1, 0);
  for (std::size_t r = 0; r < recvFromRanks_.size(); ++r) {
    comm_.send(std::span<const int>(ghostCols_.data() + recvOffsets_[r],
                                    static_cast<std::size_t>(recvCounts_[r])),
               recvFromRanks_[r], kPlanTag);
  }
  for (int q = 0; q < p; ++q) {
    if (q == rank) continue;
    const int needed =
        allCounts[static_cast<std::size_t>(q) * static_cast<std::size_t>(p) +
                  static_cast<std::size_t>(rank)];
    if (needed == 0) continue;
    std::vector<int> globalIdx = comm_.recvVector<int>(q, kPlanTag);
    LISI_ASSERT(static_cast<int>(globalIdx.size()) == needed);
    for (const int g : globalIdx) {
      LISI_ASSERT(g >= myStart && g < myStart + ownedCols_);
      sendIdx_.push_back(g - myStart);
    }
    sendToRanks_.push_back(q);
    sendOffsets_.push_back(static_cast<int>(sendIdx_.size()));
  }

  // Persistent per-spmv scratch + reserved tag block: sized here so a warm
  // spmv() never touches the heap.
  reserveScratch(scratch_, 1);
  spmvTags_ = comm_.reserveCollectiveTags(kSpmvTagRounds);
  spmvRound_ = 0;
  sendPlanReady_ = true;
}

template <class T>
void DistCsrMatrix::reserveScratch(Scratch<T>& s, int nVec) const {
  const auto nv = static_cast<std::size_t>(nVec);
  if (s.send.size() < sendIdx_.size() * nv) {
    s.send.resize(sendIdx_.size() * nv);
  }
  if (s.recv.size() < ghostCols_.size() * nv) {
    s.recv.resize(ghostCols_.size() * nv);
  }
}

// lisi-lint: zero-alloc-begin(spmv steady state: plan-owned scratch only)
// reserveScratch sizes the scratch and ensureSendPlan reserves the spmv tag
// block precisely so the row sweep and a warm spmv() never touch the heap (the
// float and batched entry points grow their scratch before entering the
// sweep); the markers make that promise a lint-enforced contract.
namespace {

/// The row sweep every product runs: each row of each run accumulates its
/// entries in stored order, so the result is bitwise the serial CSR one.
/// Kept out of line: inlined into spmvRuns, GCC folds the per-vector x
/// offset into every gather's index, one extra add per nonzero; that
/// measured 10-40% slower on the paper and autotune-zoo operators
/// (4-core x86-64).
template <class Run, class T>
[[gnu::noinline]] void sweepRows(const std::vector<Run>& runs,
                                 const int* rowPtr, const int* colIdx,
                                 const T* values, const T* x, T* y) {
  for (const Run& run : runs) {
    for (int i = run.begin; i < run.end; ++i) {
      T acc = T(0);
      for (int k = rowPtr[i]; k < rowPtr[i + 1]; ++k) {
        acc += values[k] * x[colIdx[k]];
      }
      y[i] = acc;
    }
  }
}

/// sweepRows for G vectors at once, for batched products: each entry's
/// value and column index are loaded once for all G vectors, and each
/// vector keeps its own accumulator in stored order, so vector g is
/// bitwise sweepRows on it.
template <int G, class Run, class T>
[[gnu::noinline]] void sweepRowsLanes(const std::vector<Run>& runs,
                                      const int* rowPtr, const int* colIdx,
                                      const T* values, const T* const* x,
                                      T* const* y) {
  for (const Run& run : runs) {
    for (int i = run.begin; i < run.end; ++i) {
      T acc[G];
      for (int g = 0; g < G; ++g) acc[g] = T(0);
      for (int k = rowPtr[i]; k < rowPtr[i + 1]; ++k) {
        const T v = values[k];
        const int c = colIdx[k];
        for (int g = 0; g < G; ++g) acc[g] += v * x[g][c];
      }
      for (int g = 0; g < G; ++g) y[g][i] = acc[g];
    }
  }
}

/// The boundary rows' sweep for G vectors: an owned column (c < nOwned)
/// reads vector g's x, a ghost reads slot c - nOwned of the index-major
/// receive buffer, `stride` values per ghost with vector g at offset g.
/// Same accumulators and order as sweepRows, so each vector is bitwise it.
template <int G, class Run, class T>
[[gnu::noinline]] void sweepBoundaryLanes(const std::vector<Run>& runs,
                                          const int* rowPtr, const int* colIdx,
                                          const T* values, int nOwned,
                                          const T* const* x, const T* ghost,
                                          std::size_t stride, T* const* y) {
  for (const Run& run : runs) {
    for (int i = run.begin; i < run.end; ++i) {
      T acc[G];
      for (int g = 0; g < G; ++g) acc[g] = T(0);
      for (int k = rowPtr[i]; k < rowPtr[i + 1]; ++k) {
        const T v = values[k];
        const int c = colIdx[k];
        if (c < nOwned) {
          for (int g = 0; g < G; ++g) acc[g] += v * x[g][c];
        } else {
          const T* gh = ghost + static_cast<std::size_t>(c - nOwned) * stride;
          for (int g = 0; g < G; ++g) acc[g] += v * gh[g];
        }
      }
      for (int g = 0; g < G; ++g) y[g][i] = acc[g];
    }
  }
}

}  // namespace

template <class T>
void DistCsrMatrix::spmvRuns(std::span<const T> x, std::span<T> y, int nVec,
                             const std::vector<T>& values,
                             Scratch<T>& s) const {
  const auto nv = static_cast<std::size_t>(nVec);
  const auto nloc = static_cast<std::size_t>(localCols());
  const auto mloc = static_cast<std::size_t>(local_.rows);
  // Precision accounting: value bytes this product moves — stored matrix
  // values plus the packed/received halo payload.
  const long long bytes =
      static_cast<long long>(sizeof(T)) *
      (static_cast<long long>(local_.nnz()) +
       static_cast<long long>(nv) *
           (static_cast<long long>(sendIdx_.size()) +
            static_cast<long long>(ghostCols_.size())));
  if constexpr (std::is_same_v<T, float>) {
    prec::noteBytesLow(bytes);
    obs::count("prec.bytes_low", bytes);
  } else {
    prec::noteBytesHigh(bytes);
    obs::count("prec.bytes_high", bytes);
  }
  const int tag = spmvTags_[spmvRound_ % spmvTags_.size()];
  ++spmvRound_;
  {
    // Pack + post all sends (buffered: they complete immediately).  Each
    // ghost index carries nVec values, so a batch costs one message per
    // neighbour like a single vector.
    obs::Span phase("sparse.spmv.halo_send");
    for (std::size_t r = 0; r < sendToRanks_.size(); ++r) {
      const auto b = static_cast<std::size_t>(sendOffsets_[r]);
      const auto e = static_cast<std::size_t>(sendOffsets_[r + 1]);
      for (std::size_t k = b; k < e; ++k) {
        const auto idx = static_cast<std::size_t>(sendIdx_[k]);
        for (std::size_t v = 0; v < nv; ++v) {
          s.send[k * nv + v] = x[v * nloc + idx];
        }
      }
      comm_.send(std::span<const T>(s.send.data() + b * nv, (e - b) * nv),
                 sendToRanks_[r], tag);
    }
  }
  // Batches sweep up to four vectors per pass: `group` points xs/ys at
  // vectors [v, v + g) and returns g.  One vector keeps sweepRows for the
  // interior, since sweepRowsLanes<1> measured ~15% slower on the 300^2
  // paper operator at p=1; the boundary rows are few.
  constexpr std::size_t kGroup = 4;
  const T* xs[kGroup];
  T* ys[kGroup];
  const auto group = [&](std::size_t v) {
    const std::size_t g = std::min(kGroup, nv - v);
    for (std::size_t q = 0; q < g; ++q) {
      xs[q] = x.data() + (v + q) * nloc;
      ys[q] = y.data() + (v + q) * mloc;
    }
    return g;
  };
  const int* rowPtr = local_.rowPtr.data();
  const int* colIdx = local_.colIdx.data();
  const T* vals = values.data();
  {
    obs::Span phase("sparse.spmv.interior");
    const auto& rows = interiorRows_;
    if (nv == 1) {
      sweepRows(rows, rowPtr, colIdx, vals, x.data(), y.data());
    }
    for (std::size_t v = 0; nv > 1 && v < nv; v += kGroup) {
      switch (group(v)) {
        case 1: sweepRowsLanes<1>(rows, rowPtr, colIdx, vals, xs, ys); break;
        case 2: sweepRowsLanes<2>(rows, rowPtr, colIdx, vals, xs, ys); break;
        case 3: sweepRowsLanes<3>(rows, rowPtr, colIdx, vals, xs, ys); break;
        default: sweepRowsLanes<4>(rows, rowPtr, colIdx, vals, xs, ys); break;
      }
    }
  }
  {
    // The ghosts arrive index-major, nVec values per ghost, straight into
    // the receive buffer the boundary sweep reads.
    obs::Span phase("sparse.spmv.halo_recv");
    for (std::size_t r = 0; r < recvFromRanks_.size(); ++r) {
      const auto off = static_cast<std::size_t>(recvOffsets_[r]) * nv;
      const auto len = static_cast<std::size_t>(recvCounts_[r]) * nv;
      comm_.recv(std::span<T>(s.recv.data() + off, len), recvFromRanks_[r],
                 tag);
    }
  }
  obs::Span phase("sparse.spmv.boundary");
  const auto& rows = boundaryRows_;
  const int n = ownedCols_;
  for (std::size_t v = 0; v < nv; v += kGroup) {
    const std::size_t g = group(v);
    const T* gh = s.recv.data() + v;
    switch (g) {
      case 1:
        sweepBoundaryLanes<1>(rows, rowPtr, colIdx, vals, n, xs, gh, nv, ys);
        break;
      case 2:
        sweepBoundaryLanes<2>(rows, rowPtr, colIdx, vals, n, xs, gh, nv, ys);
        break;
      case 3:
        sweepBoundaryLanes<3>(rows, rowPtr, colIdx, vals, n, xs, gh, nv, ys);
        break;
      default:
        sweepBoundaryLanes<4>(rows, rowPtr, colIdx, vals, n, xs, gh, nv, ys);
        break;
    }
  }
}

void DistCsrMatrix::spmv(std::span<const double> xLocal,
                         std::span<double> yLocal) const {
  LISI_CHECK(!colStarts_.empty(),
             "DistCsrMatrix::spmv: rectangular operator constructed without "
             "colStarts");
  LISI_CHECK(static_cast<int>(xLocal.size()) == localCols(),
             "DistCsrMatrix::spmv: x size mismatch");
  LISI_CHECK(static_cast<int>(yLocal.size()) == localRows(),
             "DistCsrMatrix::spmv: y size mismatch");
  ensureSendPlan();
  obs::Span spmvSpan("sparse.spmv");
  spmvRuns(xLocal, yLocal, 1, local_.values, scratch_);
}
// lisi-lint: zero-alloc-end

void DistCsrMatrix::spmvFloat(std::span<const float> xLocal,
                              std::span<float> yLocal) const {
  LISI_CHECK(!colStarts_.empty(),
             "DistCsrMatrix::spmvFloat: rectangular operator constructed "
             "without colStarts");
  LISI_CHECK(static_cast<int>(xLocal.size()) == localCols(),
             "DistCsrMatrix::spmvFloat: x size mismatch");
  LISI_CHECK(static_cast<int>(yLocal.size()) == localRows(),
             "DistCsrMatrix::spmvFloat: y size mismatch");

  ensureSendPlan();
  if (!floatMirrorFresh_) {
    // Lazy mirror: cast the current values once; the halo plan, index
    // arrays, and row runs are shared with the double path.
    valuesF_.assign(local_.values.begin(), local_.values.end());
    reserveScratch(scratchF_, 1);
    floatMirrorFresh_ = true;
  }
  obs::Span spmvSpan("sparse.spmv_f32");
  spmvRuns(xLocal, yLocal, 1, valuesF_, scratchF_);
}

void DistCsrMatrix::spmvMulti(std::span<const double> xLocal,
                              std::span<double> yLocal, int nVec) const {
  LISI_CHECK(nVec >= 1, "DistCsrMatrix::spmvMulti: nVec must be >= 1");
  if (nVec == 1) {
    spmv(xLocal, yLocal);
    return;
  }
  LISI_CHECK(!colStarts_.empty(),
             "DistCsrMatrix::spmvMulti: rectangular operator constructed "
             "without colStarts");
  const auto nloc = static_cast<std::size_t>(localCols());
  const auto mloc = static_cast<std::size_t>(localRows());
  const auto nv = static_cast<std::size_t>(nVec);
  LISI_CHECK(xLocal.size() == nloc * nv,
             "DistCsrMatrix::spmvMulti: x size mismatch");
  LISI_CHECK(yLocal.size() == mloc * nv,
             "DistCsrMatrix::spmvMulti: y size mismatch");
  ensureSendPlan();
  obs::Span spmvSpan("sparse.spmv_multi");
  reserveScratch(scratch_, nVec);
  spmvRuns(xLocal, yLocal, nVec, local_.values, scratch_);
}

CsrMatrix DistCsrMatrix::gatherToRoot(int root) const {
  std::vector<int> lens(static_cast<std::size_t>(local_.rows));
  for (int i = 0; i < local_.rows; ++i) {
    lens[static_cast<std::size_t>(i)] =
        local_.rowPtr[static_cast<std::size_t>(i) + 1] -
        local_.rowPtr[static_cast<std::size_t>(i)];
  }
  std::vector<int> allLens = comm_.gatherv(std::span<const int>(lens), root);
  std::vector<int> cols(local_.colIdx.size());
  for (std::size_t k = 0; k < cols.size(); ++k) {
    cols[k] = globalCol(local_.colIdx[k]);
  }
  std::vector<int> allCols = comm_.gatherv(std::span<const int>(cols), root);
  cols = {};
  std::vector<double> allVals =
      comm_.gatherv(std::span<const double>(local_.values), root);
  CsrMatrix global;
  if (comm_.rank() == root) {
    global.rows = globalRows_;
    global.cols = globalCols_;
    global.rowPtr.assign(static_cast<std::size_t>(globalRows_) + 1, 0);
    for (int i = 0; i < globalRows_; ++i) {
      global.rowPtr[static_cast<std::size_t>(i) + 1] =
          global.rowPtr[static_cast<std::size_t>(i)] +
          allLens[static_cast<std::size_t>(i)];
    }
    global.colIdx = std::move(allCols);
    global.values = std::move(allVals);
    global.check();
  }
  return global;
}

std::vector<double> DistCsrMatrix::gatherVectorToRoot(
    std::span<const double> xLocal, int root) const {
  LISI_CHECK(static_cast<int>(xLocal.size()) == localRows(),
             "gatherVectorToRoot: size mismatch");
  return comm_.gatherv(xLocal, root);
}

std::vector<double> DistCsrMatrix::scatterVectorFromRoot(
    std::span<const double> xGlobal, int root) const {
  const int p = comm_.size();
  std::vector<int> counts(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    counts[static_cast<std::size_t>(r)] =
        rowStarts_[static_cast<std::size_t>(r) + 1] -
        rowStarts_[static_cast<std::size_t>(r)];
  }
  if (comm_.rank() == root) {
    LISI_CHECK(static_cast<int>(xGlobal.size()) == globalRows_,
               "scatterVectorFromRoot: global size mismatch");
  }
  return comm_.scatterv(xGlobal, std::span<const int>(counts), root);
}

std::vector<double> DistCsrMatrix::localDiagonal() const {
  const int myStart = startRow();
  std::vector<double> d(static_cast<std::size_t>(local_.rows), 0.0);
  for (int i = 0; i < local_.rows; ++i) {
    for (int k = local_.rowPtr[static_cast<std::size_t>(i)];
         k < local_.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      if (globalCol(local_.colIdx[static_cast<std::size_t>(k)]) ==
          myStart + i) {
        d[static_cast<std::size_t>(i)] +=
            local_.values[static_cast<std::size_t>(k)];
      }
    }
  }
  return d;
}

double distDot(const comm::Comm& comm, std::span<const double> x,
               std::span<const double> y) {
  LISI_CHECK(x.size() == y.size(), "distDot: local size mismatch");
  double local = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) local += x[i] * y[i];
  return comm.allreduceValue(local, comm::ReduceOp::kSum);
}

std::array<double, 2> distDot2(const comm::Comm& comm,
                               std::span<const double> x1,
                               std::span<const double> y1,
                               std::span<const double> x2,
                               std::span<const double> y2) {
  const std::array<DotArgs, 2> lanes{DotArgs{x1, y1}, DotArgs{x2, y2}};
  std::array<double, 2> global{0.0, 0.0};
  distDots(comm, lanes, global);
  return global;
}

double distNorm2(const comm::Comm& comm, std::span<const double> x) {
  return std::sqrt(distDot(comm, x, x));
}

double distNormInf(const comm::Comm& comm, std::span<const double> x) {
  double local = 0.0;
  for (double v : x) local = std::max(local, std::abs(v));
  return comm.allreduceValue(local, comm::ReduceOp::kMax);
}

namespace {

/// Local partials of G lanes of equal length n in one pass.  Each lane owns
/// its accumulator and sums in ascending i, exactly distDot's loop, so the
/// interleaving changes only how often x[i] and the loop counter are
/// loaded, never a lane's rounding.
template <int G>
void localDotGroup(const DotArgs* d, double* out, std::size_t n) {
  const double* x[G];
  const double* y[G];
  double acc[G];
  bool sharedX = true;
  for (int g = 0; g < G; ++g) {
    x[g] = d[g].x.data();
    y[g] = d[g].y.data();
    acc[g] = 0.0;
    sharedX = sharedX && x[g] == x[0];
  }
  if (sharedX) {
    const double* x0 = x[0];
    for (std::size_t i = 0; i < n; ++i) {
      const double xi = x0[i];
      for (int g = 0; g < G; ++g) acc[g] += xi * y[g][i];
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      for (int g = 0; g < G; ++g) acc[g] += x[g][i] * y[g][i];
    }
  }
  for (int g = 0; g < G; ++g) out[g] = acc[g];
}

/// Local partial of every lane, up to 8 consecutive equal-length lanes per
/// pass.
void localDots(std::span<const DotArgs> dots, double* out) {
  constexpr std::size_t kMaxGroup = 8;
  std::size_t l = 0;
  while (l < dots.size()) {
    const std::size_t n = dots[l].x.size();
    std::size_t g = 0;
    while (g < kMaxGroup && l + g < dots.size() &&
           dots[l + g].x.size() == n) {
      LISI_CHECK(dots[l + g].y.size() == n, "distDots: local size mismatch");
      ++g;
    }
    const DotArgs* d = dots.data() + l;
    switch (g) {
      case 1: localDotGroup<1>(d, out + l, n); break;
      case 2: localDotGroup<2>(d, out + l, n); break;
      case 3: localDotGroup<3>(d, out + l, n); break;
      case 4: localDotGroup<4>(d, out + l, n); break;
      case 5: localDotGroup<5>(d, out + l, n); break;
      case 6: localDotGroup<6>(d, out + l, n); break;
      case 7: localDotGroup<7>(d, out + l, n); break;
      default: localDotGroup<8>(d, out + l, n); break;
    }
    l += g;
  }
}

/// One maxpy pass over w with R ys; with kNorm it also returns the local
/// sum of squares of the updated w.
template <int R, bool kNorm>
double maxpyPass(double* w, std::size_t n, const double* c,
                 const std::span<const double>* ys) {
  const double* y[R > 0 ? R : 1];
  for (int r = 0; r < R; ++r) y[r] = ys[r].data();
  double acc = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    double wk = w[k];
    for (int r = 0; r < R; ++r) wk -= c[r] * y[r][k];
    w[k] = wk;
    if constexpr (kNorm) acc += wk * wk;
  }
  return acc;
}

}  // namespace

void distDots(const comm::Comm& comm, std::span<const DotArgs> dots,
              std::span<double> out) {
  LISI_CHECK(out.size() == dots.size(), "distDots: out size mismatch");
  localDots(dots, out.data());
  comm.allreduce(std::span<const double>(out), out, comm::ReduceOp::kSum);
}

double maxpy(std::span<double> w, std::span<const double> coeffs,
             std::span<const std::span<const double>> ys) {
  LISI_CHECK(coeffs.size() == ys.size(), "maxpy: coefficient count mismatch");
  const std::size_t n = w.size();
  for (const std::span<const double>& y : ys) {
    LISI_CHECK(y.size() == n, "maxpy: size mismatch");
  }
  const std::size_t m = ys.size();
  std::size_t i = 0;
  for (; m - i > 4; i += 4) {
    maxpyPass<4, false>(w.data(), n, coeffs.data() + i, ys.data() + i);
  }
  const double* c = coeffs.data() + i;
  const std::span<const double>* y = ys.data() + i;
  switch (m - i) {
    case 0: return maxpyPass<0, true>(w.data(), n, c, y);
    case 1: return maxpyPass<1, true>(w.data(), n, c, y);
    case 2: return maxpyPass<2, true>(w.data(), n, c, y);
    case 3: return maxpyPass<3, true>(w.data(), n, c, y);
    default: return maxpyPass<4, true>(w.data(), n, c, y);
  }
}

}  // namespace lisi::sparse
