// LISI_COMM_CHECK: the MiniMPI correctness checker.
//
// MiniMPI's contract has three load-bearing invariants that, when violated,
// surface as hangs or silently corrupted tag streams contained only by the
// recv timeout:
//
//   1. *Lockstep collectives* — every rank of a communicator must issue the
//      same collective sequence with matching signatures (kind, root, fixed
//      payload size, reduction op, schedule family).  A single divergent
//      call desynchronizes the shared collective-tag counter and every later
//      collective cross-matches messages.
//   2. *Acyclic waiting* — sends are buffered and never block, so the only
//      way ranks stop making progress is a closed set of receivers each
//      waiting on a message that only another member of the set could send.
//   3. *Tag-space discipline* — user point-to-point traffic stays in
//      [0, kMaxUserTag]; tags above it belong to collective schedules and to
//      blocks handed out by reserveCollectiveTags(), and a stray send into
//      that space corrupts a schedule in flight.
//
// This header declares the checker that *enforces* those invariants.  It is
// compiled into lisi_comm unconditionally, but the hooks in comm.cpp that
// feed it only exist when the library is configured with
// -DLISI_COMM_CHECK=ON (which defines LISI_COMM_CHECK for the lisi_comm
// target): with the option off the checker is never constructed and the hot
// paths compile to exactly the unchecked code.  check::enabled() reports at
// run time which way the linked library was built.
//
// Every violation throws lisi::Error with a diagnostic naming the rank, the
// operation, and the call signature; the throw unwinds into World::run,
// which aborts the world so every blocked peer wakes immediately.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "support/thread_annotations.hpp"

namespace lisi::comm::check {

namespace detail {
/// Phantom lock-order anchor for the documented global order
///   checker mutex -> mailbox mutex.
/// The checker cannot name WorldContext's per-rank mailbox mutexes (they
/// live in a comm.cpp-private struct) and vice versa, so both sides order
/// themselves against this never-locked capability instead: the checker's
/// mutex_ is ACQUIRED_BEFORE it and every Mailbox::mutex is ACQUIRED_AFTER
/// it.  Clang's -Wthread-safety-beta lock-order analysis then rejects any
/// new call path that takes the checker mutex while a mailbox is held.
inline support::AnnotatedMutex gCheckerBeforeMailboxAnchor;
}  // namespace detail

/// True if the linked lisi_comm library was built with LISI_COMM_CHECK.
/// (Test binaries use this to skip checker-diagnostic tests on unchecked
/// builds; the preprocessor macro is private to the library's own TUs.)
[[nodiscard]] bool enabled();

/// Collective operation kinds, one per public entry point that advances the
/// collective sequence.  Part of the lockstep signature.
enum class CollKind : std::uint8_t {
  kBarrier,
  kBcast,
  kReduce,
  kAllreduce,
  kGather,
  kGatherv,
  kAllgatherv,
  kScatter,
  kScatterv,
  kReserveTags,
};

/// Human-readable name for diagnostics ("allreduce", "reserveCollectiveTags").
[[nodiscard]] const char* collKindName(CollKind kind);

/// Payload-size sentinel for collectives whose per-rank contribution sizes
/// legitimately differ (gatherv/allgatherv/scatterv): size is excluded from
/// the lockstep signature.
inline constexpr std::uint64_t kVariableBytes = ~std::uint64_t{0};

/// The cross-checked call signature of one collective, as seen by one rank.
struct CollSignature {
  CollKind kind = CollKind::kBarrier;
  int root = -1;                ///< -1 for rootless collectives
  std::uint64_t bytes = 0;      ///< fixed payload bytes, or kVariableBytes
  int reduceOp = -1;            ///< static_cast<int>(ReduceOp), -1 if none
  bool treeFamily = true;       ///< schedule family resolved for this call
};

/// FNV-1a hash of a signature at a given (context, sequence) position.  The
/// hash is what ranks compare; the struct is kept alongside so a mismatch
/// report can name both call sites field by field.
[[nodiscard]] std::uint64_t signatureHash(const CollSignature& sig,
                                          std::uint64_t ctx,
                                          std::uint64_t seq);

/// Render "allreduce(root=-, bytes=800, op=sum, family=tree)".
[[nodiscard]] std::string describeSignature(const CollSignature& sig);

/// One message that would unblock a waiting rank: a (context, source, tag)
/// pattern with the usual -1 wildcards.  `src` is local to the context.
struct WaitNeed {
  std::uint64_t ctx = 0;
  int src = -1;
  int tag = -1;
};

/// Per-world checker state.  One instance per WorldContext; all methods are
/// thread-safe (rank threads call in concurrently).  Methods that detect a
/// violation throw lisi::Error and leave the checker usable (the world is
/// about to abort anyway).
///
/// Lock discipline: the checker's own mutex is acquired *only* from rank
/// threads that hold no mailbox mutex, and the queue probe (which locks a
/// mailbox) is invoked with the checker mutex held — so the global order is
/// checker mutex -> mailbox mutex, and comm.cpp must never call into the
/// checker while holding a mailbox lock.
class WorldChecker {
 public:
  /// Probe: does `waiterWorldRank`'s mailbox hold a message satisfying any
  /// of `needs`?  Supplied by WorldContext (it owns the mailboxes).
  using QueueProbe =
      std::function<bool(int waiterWorldRank, const std::vector<WaitNeed>& needs)>;

  /// Called with every violation message just before the checker throws.
  /// WorldContext supplies its abort(): solver layers legitimately catch
  /// lisi::Error, and a caught diagnosis must still poison the world rather
  /// than degrade into a silently-failed solve.
  using ViolationReport = std::function<void(const std::string&)>;

  /// Render the waiter's queued messages ("{ctx=0 src=2 tag=17} ...") for
  /// deadlock reports, so a diagnosis shows not only what each stuck rank
  /// wants but what it actually has.
  using MailboxDump = std::function<std::string(int worldRank)>;

  WorldChecker(int worldSize, int maxUserTag, int collectiveTagWindow,
               QueueProbe probe, ViolationReport report, MailboxDump dump);

  // ---- communicator registry ----------------------------------------

  /// Record a communicator's membership and inherited collective tag window
  /// (called by every member; idempotent per ctx).  Translates local ranks
  /// for diagnostics, bounds the lockstep board's arrival counts, and seeds
  /// the per-context tag-space bound for the send lint.
  void onCommCreated(std::uint64_t ctx, const std::vector<int>& groupWorldRanks,
                     int collectiveTagWindow);

  /// The context's collective tag window changed (Comm::setCollectiveTagWindow):
  /// the send lint's per-context tag-space bound follows it.
  void onCommTagWindow(std::uint64_t ctx, int window);

  /// Attach a diagnostic label to a context (Comm::setLabel); rendered next
  /// to the ctx id in lockstep and deadlock reports.
  void onCommLabeled(std::uint64_t ctx, std::string label);

  // ---- 1. lockstep collective verification ---------------------------

  /// A rank is starting the collective at sequence position `seq` of
  /// communicator `ctx`, drawing `tagCount` tags beginning at `firstTag`.
  /// Cross-checks the signature against every other rank's call at the same
  /// position and records the issued tags for the tag lint.
  void onCollectiveStart(std::uint64_t ctx, int localRank, std::uint64_t seq,
                         int firstTag, int tagCount, const CollSignature& sig);

  // ---- 2. wait-for-graph deadlock detection --------------------------

  /// Declare that `worldRank` is (about to be) blocked until one of `needs`
  /// arrives, then run deadlock detection.  Throws when the rank belongs to
  /// a closed set of waiters none of whom can be satisfied.
  void beginWait(int worldRank, const char* what, std::vector<WaitNeed> needs);

  /// The rank is no longer blocked.
  void endWait(int worldRank);

  /// The rank's registered wait has just been satisfied (it dequeued a
  /// matching message) but endWait has not run yet.  Lock-free — called
  /// under a mailbox mutex, where the checker mutex must not be taken — and
  /// closes the race where the detector would otherwise see a rank as
  /// blocked-with-an-empty-mailbox purely because it was preempted between
  /// consuming its message and leaving the wait scope.  This is the one
  /// sanctioned mutex_-free touch of guarded checker state: it writes only
  /// the per-rank `satisfied` atomic (see WaitState), so its definition
  /// carries NO_THREAD_SAFETY_ANALYSIS with this reason.
  void noteWaitSatisfied(int worldRank);

  // ---- 3. tag-space lint ---------------------------------------------

  /// Lint one point-to-point send.  Throws for tags outside the tag space
  /// and for tags in the collective-internal range that were neither
  /// reserved on `ctx` nor issued to this rank's recent collectives.
  void onSend(std::uint64_t ctx, int localRank, int worldRank, int dest,
              int tag);

  /// The rank's World::run body returned cleanly.  Marks the rank exited
  /// and re-runs deadlock detection on behalf of the survivors: a rank
  /// blocked on an exited peer can never be satisfied.
  void onRankExit(int worldRank);

 private:
  struct BoardEntry {
    std::uint64_t hash = 0;
    CollSignature sig;
    int firstWorldRank = -1;
    int arrived = 0;
  };
  struct WaitState {
    bool blocked = false;
    const char* what = "";
    std::vector<WaitNeed> needs;
    /// Owner-thread store (noteWaitSatisfied), detector-thread load; the
    /// vector holding these is sized once in the constructor and never
    /// reallocates, so the atomics stay put.
    std::atomic<bool> satisfied{false};
  };
  struct RecentTag {
    std::uint64_t ctx = 0;
    int tag = -1;
  };
  /// One entry of a rank's recent-collective history, rendered into lockstep
  /// and deadlock reports so a diagnosis shows each rank's last few call
  /// sites, not just the single position where the streams collided.
  struct SigRecord {
    std::uint64_t ctx = 0;
    std::uint64_t seq = 0;
    CollSignature sig;
    bool valid = false;
  };
  struct ReservedBlock {
    std::uint64_t ctx = 0;
    int firstTag = 0;
    int count = 0;
  };
  /// Deadlock analysis: compute the set of blocked ranks none of whom can
  /// be released (no satisfying message queued, every potential sender
  /// itself stuck or exited).  Throws, naming every member, if `aboutRank`
  /// is in the set (or, for exit sweeps with aboutRank < 0, if the set is
  /// nonempty).  Caller holds mutex_.
  void detectDeadlockLocked(int aboutRank, const std::string& prologue)
      LISI_REQUIRES(mutex_);

  /// Report `msg` through the violation callback, then throw lisi::Error.
  [[noreturn]] void fail(const std::string& msg) const;

  [[nodiscard]] bool tagReservedOnLocked(std::uint64_t ctx, int tag) const
      LISI_REQUIRES(mutex_);
  [[nodiscard]] std::string describeWaitLocked(int worldRank) const
      LISI_REQUIRES(mutex_);
  [[nodiscard]] std::string describeHistoryLocked(int worldRank) const
      LISI_REQUIRES(mutex_);
  [[nodiscard]] int worldRankOfLocked(std::uint64_t ctx, int localRank) const
      LISI_REQUIRES(mutex_);
  /// Tag window of `ctx` (the constructor's world default when unknown).
  [[nodiscard]] int windowOfLocked(std::uint64_t ctx) const
      LISI_REQUIRES(mutex_);
  /// "ctx=3 [session 1]" — the ctx id plus its label when one is set.
  [[nodiscard]] std::string ctxNameLocked(std::uint64_t ctx) const
      LISI_REQUIRES(mutex_);

  const int worldSize_;
  const int maxUserTag_;
  const int collectiveTagWindow_;
  const QueueProbe probe_;
  const ViolationReport report_;
  const MailboxDump dump_;

  mutable support::AnnotatedMutex mutex_
      LISI_ACQUIRED_BEFORE(detail::gCheckerBeforeMailboxAnchor);
  std::map<std::uint64_t, std::vector<int>> ctxGroups_ LISI_GUARDED_BY(mutex_);
  std::map<std::uint64_t, int> ctxWindows_ LISI_GUARDED_BY(mutex_);
  std::map<std::uint64_t, std::string> ctxLabels_ LISI_GUARDED_BY(mutex_);
  std::map<std::pair<std::uint64_t, std::uint64_t>, BoardEntry> board_
      LISI_GUARDED_BY(mutex_);
  /// The vector (sizing, element identity) is guarded; each element's
  /// `satisfied` atomic is additionally written lock-free by
  /// noteWaitSatisfied — the documented exception above.
  std::vector<WaitState> waits_ LISI_GUARDED_BY(mutex_);
  std::vector<bool> exited_ LISI_GUARDED_BY(mutex_);
  std::vector<std::array<RecentTag, 64>> recentTags_ LISI_GUARDED_BY(mutex_);
  std::vector<std::size_t> recentTagPos_ LISI_GUARDED_BY(mutex_);
  std::vector<std::array<SigRecord, 8>> history_ LISI_GUARDED_BY(mutex_);
  std::vector<std::size_t> historyPos_ LISI_GUARDED_BY(mutex_);
  std::vector<ReservedBlock> reserved_ LISI_GUARDED_BY(mutex_);
};

}  // namespace lisi::comm::check
