// MiniMPI: a thread-backed message-passing substrate.
//
// The paper's experiments run SPMD solver components over MPI on a Linux
// cluster.  This repository substitutes a library that preserves the MPI
// programming model on a single node: every *rank* is an OS thread with
// private data that communicates exclusively through tagged point-to-point
// messages and collectives on a communicator.  No module in this repository
// shares mutable state across ranks except through this API, so all
// distributed algorithms are written exactly as they would be against MPI.
//
// Semantics implemented (names follow MPI where the behaviour matches):
//   * Comm: rank()/size(), copyable handle (copies alias one communicator).
//   * Tagged blocking send/recv with kAnySource / kAnyTag wildcards and
//     per-pair FIFO ordering.
//   * Collectives: barrier, bcast, reduce, allreduce, gather(v),
//     allgather(v), scatter(v).  Two schedule families exist: *tree*
//     (binomial trees, recursive doubling, dissemination, a ring for
//     allgatherv — logarithmic critical path) and *star* (everything
//     funnels through a root — fewest scheduler handoffs).  By default the
//     tree schedules run when the host has a core per rank and the star
//     schedules run when the rank-threads oversubscribe the cores, where
//     the chained cv-wakeups of a deep schedule serialize and the star's
//     independent sends batch better; setCollectiveSchedule() pins either
//     family explicitly.  Every schedule is fixed at call time, so results
//     are deterministic and bitwise reproducible run-to-run for a given
//     rank count and schedule (reductions rely on the bitwise
//     commutativity of IEEE +, *, min, max).
//   * split(color, key) / dup() sub-communicators (multilevel solvers in
//     src/hymg use these for level sub-solves).
//   * A long-integer handle registry (comm_handle.hpp) so the LISI port can
//     keep the paper's `int initialize(in long comm)` signature.
//
// Deadlock containment: if any rank throws, the communicator is aborted and
// every blocked rank wakes with an Error; recv also carries a large default
// timeout so a lost message fails a test instead of hanging it.
#pragma once

#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "comm/check.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"

namespace lisi::comm {

/// Wildcard source rank for recv().
inline constexpr int kAnySource = -1;
/// Wildcard tag for recv().
inline constexpr int kAnyTag = -1;
/// Largest tag available to user code; higher tags are reserved for
/// collective implementations.
inline constexpr int kMaxUserTag = (1 << 24) - 1;

/// Reduction operators for reduce/allreduce.
enum class ReduceOp { kSum, kProd, kMax, kMin };

/// Collective schedule family.  kAuto resolves per call: tree schedules
/// when the host has at least one core per rank (critical-path depth sets
/// latency), star schedules when the rank-threads oversubscribe the cores
/// (scheduler-handoff count sets latency).  kTree/kStar pin one family —
/// used by tests and benchmarks to exercise both regardless of host shape.
enum class CollectiveSchedule { kAuto, kTree, kStar };

/// Set the global schedule family — the process-wide *default*, layered
/// under any per-communicator pin (Comm::pinCollectiveSchedule); a pinned
/// communicator ignores it.  Affects every unpinned communicator; must not
/// change while a world is running (all ranks of a collective must resolve
/// the same family or their tag sequences diverge).
void setCollectiveSchedule(CollectiveSchedule schedule);

/// Current global schedule family (kAuto unless overridden).
[[nodiscard]] CollectiveSchedule collectiveSchedule();

namespace detail {
struct CommState;
/// True if collectives over `p` ranks should run the tree family under the
/// global policy alone (no communicator context).
[[nodiscard]] bool useTreeSchedule(int p);
/// Full resolution for one communicator: its context pin if set, else the
/// global override, else the kAuto host heuristic.
[[nodiscard]] bool useTreeSchedule(const CommState& state, int p);
}  // namespace detail

/// Completion information for a receive.
struct Status {
  int source = kAnySource;   ///< Rank the message actually came from.
  int tag = kAnyTag;         ///< Tag the message actually carried.
  std::size_t bytes = 0;     ///< Payload size in bytes.
};

/// Communicator handle.  Cheap to copy; all copies denote the same
/// communication context (like an MPI_Comm).  Obtained from World::run,
/// split(), or dup() — never default-constructed into a usable state.
class Comm {
 public:
  Comm() = default;

  /// Rank of the calling thread within this communicator.
  [[nodiscard]] int rank() const;
  /// Number of ranks in this communicator.
  [[nodiscard]] int size() const;
  /// True if this handle denotes a live communicator.
  [[nodiscard]] bool valid() const { return state_ != nullptr; }

  // ---- Point-to-point (blocking) -------------------------------------

  /// Send `n` raw bytes to `dest` with `tag` (0 <= tag <= kMaxUserTag).
  void sendBytes(const void* data, std::size_t n, int dest, int tag) const;

  /// Receive a message of unknown size; returns the payload.
  [[nodiscard]] std::vector<std::byte> recvBytes(int src, int tag,
                                                 Status* status = nullptr) const;

  /// Receive into a caller-provided buffer; the message size must equal `n`.
  void recvBytesInto(void* data, std::size_t n, int src, int tag,
                     Status* status = nullptr) const;

  /// Typed send of a contiguous range (T must be trivially copyable).
  template <class T>
  void send(std::span<const T> data, int dest, int tag) const {
    static_assert(std::is_trivially_copyable_v<T>);
    sendBytes(data.data(), data.size_bytes(), dest, tag);
  }

  /// Typed send of a single value.
  template <class T>
  void sendValue(const T& value, int dest, int tag) const {
    send(std::span<const T>(&value, 1), dest, tag);
  }

  /// Typed receive into a caller-provided range of exactly the sent length.
  template <class T>
  void recv(std::span<T> out, int src, int tag, Status* status = nullptr) const {
    static_assert(std::is_trivially_copyable_v<T>);
    recvBytesInto(out.data(), out.size_bytes(), src, tag, status);
  }

  /// Typed receive of a single value.
  template <class T>
  [[nodiscard]] T recvValue(int src, int tag, Status* status = nullptr) const {
    T value{};
    recv(std::span<T>(&value, 1), src, tag, status);
    return value;
  }

  /// Typed receive of a message whose length is unknown to the receiver.
  template <class T>
  [[nodiscard]] std::vector<T> recvVector(int src, int tag,
                                          Status* status = nullptr) const {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> raw = recvBytes(src, tag, status);
    LISI_CHECK(raw.size() % sizeof(T) == 0, "message size not a multiple of T");
    std::vector<T> out(raw.size() / sizeof(T));
    // An empty message leaves both data() pointers null, and memcpy from or
    // to a null pointer is undefined even for zero bytes.
    if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }

  // ---- Collectives (must be called by every rank, in the same order) --

  /// Block until every rank has entered the barrier.
  void barrier() const;

  /// Broadcast `data` from `root` to all ranks (in place on non-roots).
  template <class T>
  void bcast(std::span<T> data, int root) const {
    bcastBytes(data.data(), data.size_bytes(), root);
  }

  /// Broadcast a single value; returns it on every rank.
  template <class T>
  [[nodiscard]] T bcastValue(T value, int root) const {
    bcastBytes(&value, sizeof(T), root);
    return value;
  }

  /// Element-wise reduction of `in` into `out` on `root` (rank order, hence
  /// deterministic).  `out` may be empty on non-root ranks.
  template <class T>
  void reduce(std::span<const T> in, std::span<T> out, ReduceOp op,
              int root) const;

  /// Reduction delivered to every rank.  Tree family: recursive doubling,
  /// O(log p) rounds.  Star family: star reduce to rank 0 + star bcast.
  /// `out` must have in.size() elements on every rank.
  template <class T>
  void allreduce(std::span<const T> in, std::span<T> out, ReduceOp op) const;

  /// Scalar allreduce convenience.
  template <class T>
  [[nodiscard]] T allreduceValue(T value, ReduceOp op) const {
    T out{};
    allreduce(std::span<const T>(&value, 1), std::span<T>(&out, 1), op);
    return out;
  }

  /// Fixed-size gather: every rank contributes `in` (same length everywhere);
  /// on root, `out` must have size()*in.size() elements, laid out by rank.
  /// Fast path: receives land directly in `out` (no per-rank staging).
  template <class T>
  void gather(std::span<const T> in, std::span<T> out, int root) const;

  /// Variable-size gather; root receives the rank-ordered concatenation,
  /// non-roots receive an empty vector.  `counts` (root only, optional out)
  /// receives per-rank element counts.
  template <class T>
  [[nodiscard]] std::vector<T> gatherv(std::span<const T> in, int root,
                                       std::vector<int>* counts = nullptr) const;

  /// Variable-size allgather: every rank receives the concatenation.
  /// Tree family: counts travel through a logarithmic allreduce, the
  /// payload around a ring (p-1 steps, each forwarding one block to the
  /// right neighbour) — nothing funnels through rank 0.  Star family:
  /// gatherv to rank 0 + bcast.
  template <class T>
  [[nodiscard]] std::vector<T> allgatherv(std::span<const T> in,
                                          std::vector<int>* counts = nullptr) const;

  /// Fixed-size scatter from root: `in` on root holds size()*chunk elements.
  /// Fast path: root sends slices of `in` directly (no per-rank staging).
  template <class T>
  void scatter(std::span<const T> in, std::span<T> out, int root) const;

  /// Variable-size scatter: root provides concatenated `in` plus per-rank
  /// element `counts`; every rank receives its chunk.
  template <class T>
  [[nodiscard]] std::vector<T> scatterv(std::span<const T> in,
                                        std::span<const int> counts,
                                        int root) const;

  // ---- Communicator management ---------------------------------------

  /// Partition ranks by `color` (ranks with equal color form a new
  /// communicator, ordered by `key` then by parent rank).  Collective.
  [[nodiscard]] Comm split(int color, int key) const;

  /// Duplicate this communicator (fresh message context, same group).
  [[nodiscard]] Comm dup() const;

  /// Abort the whole world: wakes every blocked rank with an error.
  /// Used by failure-injection tests and fatal error paths.
  void abort(const std::string& reason) const;

  /// Reserve `count` tags from the collective tag space for long-lived
  /// point-to-point protocols (e.g. a matrix's halo-exchange rounds).
  /// Collective in ordering: every rank must call this in the same position
  /// of its collective sequence so all ranks receive identical tags.
  [[nodiscard]] std::vector<int> reserveCollectiveTags(int count) const;

  /// Pin the collective schedule family for THIS communicator's context
  /// (split/dup siblings and the parent keep their own resolution).  The
  /// pin overrides the process-global setCollectiveSchedule default;
  /// kAuto removes the pin.  Collective: internally barriers first so no
  /// rank can still be inside a collective that resolved the old family,
  /// then every rank records the same value — call it at the same point of
  /// the collective sequence on all ranks, like any collective.
  void pinCollectiveSchedule(CollectiveSchedule schedule) const;

  /// This communicator's context pin (kAuto when unpinned).  Purely local.
  [[nodiscard]] CollectiveSchedule pinnedCollectiveSchedule() const;

  /// Set the collective tag window for THIS communicator's context.  The
  /// window is a per-communicator session property: split()/dup() children
  /// inherit the parent's value at creation, and changing it here never
  /// affects the parent or sibling sub-communicators — sessions carved out
  /// of one World tune their tag spaces independently.  Collective with the
  /// same barrier-then-set discipline as pinCollectiveSchedule: no rank can
  /// still be drawing tags under the old window when any rank records the
  /// new one.  `window` must lie in [16, 2^20] (the default).
  void setCollectiveTagWindow(int window) const;

  /// The collective tag window of this communicator's context.  Local.
  [[nodiscard]] int collectiveTagWindow() const;

  /// Attach a human-readable label to this communicator's context ("session
  /// 2", "coarse level").  Purely diagnostic: the LISI_COMM_CHECK verifier
  /// renders it next to the ctx id in lockstep/deadlock reports, so a
  /// violation inside a session pool names the session, not just a number.
  /// Not collective (the label is metadata, not schedule state); call it on
  /// every rank with the same string for coherent reports.
  void setLabel(const std::string& label) const;

  /// This context's label ("" when unset).  Local.
  [[nodiscard]] std::string label() const;

 private:
  friend class World;
  friend struct detail::CommState;
  explicit Comm(std::shared_ptr<detail::CommState> state)
      : state_(std::move(state)) {}

  void bcastBytes(void* data, std::size_t n, int root) const;
  void reduceBytes(const void* in, void* out, std::size_t count,
                   std::size_t elemSize, ReduceOp op, int root,
                   void (*combine)(void*, const void*, std::size_t,
                                   ReduceOp)) const;
  void allreduceBytes(const void* in, void* out, std::size_t count,
                      std::size_t elemSize, ReduceOp op,
                      void (*combine)(void*, const void*, std::size_t,
                                      ReduceOp)) const;

  /// Next reserved tag for a collective step (advances a shared counter).
  /// The signature arguments describe the calling collective for the
  /// LISI_COMM_CHECK lockstep verifier; unchecked builds ignore them.
  [[nodiscard]] int nextCollectiveTag(check::CollKind kind, int root,
                                      std::uint64_t bytes,
                                      int reduceOp = -1) const;

  std::shared_ptr<detail::CommState> state_;
};

/// SPMD launcher: runs `body(comm)` on `nranks` rank-threads and joins them.
/// If any rank throws, the world is aborted (all blocked ranks wake) and the
/// lowest-ranked exception is rethrown to the caller.
class World {
 public:
  static void run(int nranks, const std::function<void(Comm&)>& body);
};

// ---- template implementations ----------------------------------------

namespace detail {
template <class T>
void combineElems(void* acc, const void* contrib, std::size_t count,
                  ReduceOp op) {
  auto* a = static_cast<T*>(acc);
  const auto* c = static_cast<const T*>(contrib);
  for (std::size_t i = 0; i < count; ++i) {
    switch (op) {
      case ReduceOp::kSum: a[i] += c[i]; break;
      case ReduceOp::kProd: a[i] *= c[i]; break;
      case ReduceOp::kMax: if (c[i] > a[i]) a[i] = c[i]; break;
      case ReduceOp::kMin: if (c[i] < a[i]) a[i] = c[i]; break;
    }
  }
}
}  // namespace detail

template <class T>
void Comm::reduce(std::span<const T> in, std::span<T> out, ReduceOp op,
                  int root) const {
  static_assert(std::is_trivially_copyable_v<T>);
  if (rank() == root) {
    LISI_CHECK(out.size() == in.size(), "reduce: out size mismatch on root");
  }
  reduceBytes(in.data(), out.data(), in.size(), sizeof(T), op, root,
              &detail::combineElems<T>);
}

template <class T>
void Comm::allreduce(std::span<const T> in, std::span<T> out,
                     ReduceOp op) const {
  static_assert(std::is_trivially_copyable_v<T>);
  LISI_CHECK(out.size() == in.size(), "allreduce: out size mismatch");
  allreduceBytes(in.data(), out.data(), in.size(), sizeof(T), op,
                 &detail::combineElems<T>);
}

template <class T>
void Comm::gather(std::span<const T> in, std::span<T> out, int root) const {
  static_assert(std::is_trivially_copyable_v<T>);
  const int tag =
      nextCollectiveTag(check::CollKind::kGather, root, in.size_bytes());
  const int p = size();
  obs::Span span("coll.gather", in.size_bytes());
  LISI_CHECK(root >= 0 && root < p, "gather: root out of range");
  const std::size_t chunk = in.size();
  if (rank() == root) {
    LISI_CHECK(out.size() == chunk * static_cast<std::size_t>(p),
               "gather: out size mismatch on root");
    std::copy(in.begin(), in.end(),
              out.begin() + static_cast<std::ptrdiff_t>(
                                chunk * static_cast<std::size_t>(root)));
    for (int r = 0; r < p; ++r) {
      if (r == root) continue;
      recv(out.subspan(chunk * static_cast<std::size_t>(r), chunk), r, tag);
    }
  } else {
    send(in, root, tag);
  }
}

template <class T>
std::vector<T> Comm::gatherv(std::span<const T> in, int root,
                             std::vector<int>* counts) const {
  static_assert(std::is_trivially_copyable_v<T>);
  const int tag =
      nextCollectiveTag(check::CollKind::kGatherv, root, check::kVariableBytes);
  const int p = size();
  obs::Span span("coll.gatherv", in.size_bytes());
  std::vector<T> result;
  if (rank() == root) {
    if (counts) counts->assign(static_cast<std::size_t>(p), 0);
    std::vector<std::vector<T>> parts(static_cast<std::size_t>(p));
    parts[static_cast<std::size_t>(root)].assign(in.begin(), in.end());
    for (int r = 0; r < p; ++r) {
      if (r == root) continue;
      parts[static_cast<std::size_t>(r)] = recvVector<T>(r, tag);
    }
    for (int r = 0; r < p; ++r) {
      const auto& part = parts[static_cast<std::size_t>(r)];
      if (counts) (*counts)[static_cast<std::size_t>(r)] = static_cast<int>(part.size());
      result.insert(result.end(), part.begin(), part.end());
    }
  } else {
    send(in, root, tag);
  }
  return result;
}

template <class T>
std::vector<T> Comm::allgatherv(std::span<const T> in,
                                std::vector<int>* counts) const {
  static_assert(std::is_trivially_copyable_v<T>);
  const int p = size();
  const int r = rank();
  const bool tree = detail::useTreeSchedule(*state_, p);
  obs::Span span(tree ? "coll.allgatherv.tree" : "coll.allgatherv.star",
                 in.size_bytes());
  if (!tree) {
    // Star: gatherv to rank 0, then broadcast counts and concatenation.
    std::vector<int> localCounts;
    std::vector<T> all = gatherv(in, 0, &localCounts);
    if (r != 0) localCounts.assign(static_cast<std::size_t>(p), 0);
    bcast(std::span<int>(localCounts), 0);
    std::size_t total = 0;
    for (int c : localCounts) total += static_cast<std::size_t>(c);
    if (r != 0) all.resize(total);
    bcast(std::span<T>(all), 0);
    if (counts) *counts = std::move(localCounts);
    return all;
  }
  // Everyone learns every rank's count through a logarithmic allreduce.
  std::vector<int> cnt(static_cast<std::size_t>(p), 0);
  cnt[static_cast<std::size_t>(r)] = static_cast<int>(in.size());
  allreduce(std::span<const int>(cnt), std::span<int>(cnt), ReduceOp::kSum);
  std::vector<std::size_t> offset(static_cast<std::size_t>(p) + 1, 0);
  for (int q = 0; q < p; ++q) {
    offset[static_cast<std::size_t>(q) + 1] =
        offset[static_cast<std::size_t>(q)] +
        static_cast<std::size_t>(cnt[static_cast<std::size_t>(q)]);
  }
  std::vector<T> all(offset[static_cast<std::size_t>(p)]);
  std::copy(in.begin(), in.end(),
            all.begin() + static_cast<std::ptrdiff_t>(
                              offset[static_cast<std::size_t>(r)]));
  if (p > 1) {
    // Ring exchange: in step s every rank forwards the block that
    // originated s hops to its left, so after p-1 steps everyone holds the
    // full concatenation and no rank serializes more than its neighbours.
    const int tag = nextCollectiveTag(check::CollKind::kAllgatherv, -1,
                                      check::kVariableBytes);
    const int right = (r + 1) % p;
    const int left = (r - 1 + p) % p;
    for (int s = 0; s < p - 1; ++s) {
      const int sendBlock = (r - s + p) % p;
      const int recvBlock = (r - s - 1 + p) % p;
      send(std::span<const T>(
               all.data() + offset[static_cast<std::size_t>(sendBlock)],
               static_cast<std::size_t>(cnt[static_cast<std::size_t>(sendBlock)])),
           right, tag);
      recv(std::span<T>(
               all.data() + offset[static_cast<std::size_t>(recvBlock)],
               static_cast<std::size_t>(cnt[static_cast<std::size_t>(recvBlock)])),
           left, tag);
    }
  }
  if (counts) *counts = std::move(cnt);
  return all;
}

template <class T>
void Comm::scatter(std::span<const T> in, std::span<T> out, int root) const {
  static_assert(std::is_trivially_copyable_v<T>);
  const int tag =
      nextCollectiveTag(check::CollKind::kScatter, root, out.size_bytes());
  const int p = size();
  obs::Span span("coll.scatter", out.size_bytes());
  LISI_CHECK(root >= 0 && root < p, "scatter: root out of range");
  const std::size_t chunk = out.size();
  if (rank() == root) {
    LISI_CHECK(in.size() == chunk * static_cast<std::size_t>(p),
               "scatter: chunk size mismatch");
    for (int r = 0; r < p; ++r) {
      if (r == root) continue;
      send(in.subspan(chunk * static_cast<std::size_t>(r), chunk), r, tag);
    }
    std::copy(in.begin() + static_cast<std::ptrdiff_t>(
                               chunk * static_cast<std::size_t>(root)),
              in.begin() + static_cast<std::ptrdiff_t>(
                               chunk * static_cast<std::size_t>(root) + chunk),
              out.begin());
  } else {
    recv(out, root, tag);
  }
}

template <class T>
std::vector<T> Comm::scatterv(std::span<const T> in,
                              std::span<const int> counts, int root) const {
  static_assert(std::is_trivially_copyable_v<T>);
  const int tag =
      nextCollectiveTag(check::CollKind::kScatterv, root, check::kVariableBytes);
  const int p = size();
  obs::Span span("coll.scatterv", in.size_bytes());
  if (rank() == root) {
    LISI_CHECK(static_cast<int>(counts.size()) == p,
               "scatterv: counts.size() != comm size");
    std::size_t offset = 0;
    std::vector<T> mine;
    for (int r = 0; r < p; ++r) {
      const auto n = static_cast<std::size_t>(counts[static_cast<std::size_t>(r)]);
      LISI_CHECK(offset + n <= in.size(), "scatterv: counts exceed input");
      if (r == root) {
        mine.assign(in.begin() + static_cast<std::ptrdiff_t>(offset),
                    in.begin() + static_cast<std::ptrdiff_t>(offset + n));
      } else {
        send(std::span<const T>(in.data() + offset, n), r, tag);
      }
      offset += n;
    }
    return mine;
  }
  return recvVector<T>(root, tag);
}

}  // namespace lisi::comm
