#include "comm/comm.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <tuple>

#include "support/thread_annotations.hpp"

namespace lisi::comm {
namespace detail {

namespace {

/// recv() deadlock guard: a blocked receive that sees no matching message
/// for this long aborts the world instead of hanging the test suite.
double recvTimeoutSeconds() {
  static const double timeout = [] {
    if (const char* env = std::getenv("LISI_COMM_TIMEOUT_SEC")) {
      const double v = std::atof(env);
      if (v > 0) return v;
    }
    return 120.0;
  }();
  return timeout;
}

/// Tags above kMaxUserTag rotate through a window of this many values; all
/// ranks advance their collective sequence in lockstep, so equal positions
/// map to equal tags on every rank.
constexpr int kDefaultCollectiveTagWindow = 1 << 20;

/// Test knob: LISI_COMM_TAG_WINDOW shrinks the window so the wrap paths
/// (and the LISI_COMM_CHECK wrap-overlap diagnoses) can be exercised with a
/// handful of collectives instead of ~2^20.  Read per WorldContext
/// construction — NOT statically cached — so an in-process test can setenv
/// before World::run and see the shrunken window for just that world.
/// Out-of-range values (below 16 or above the default) are ignored.
int collectiveTagWindowFromEnv() {
  if (const char* env = std::getenv("LISI_COMM_TAG_WINDOW")) {
    const long v = std::atol(env);
    if (v >= 16 && v <= kDefaultCollectiveTagWindow) {
      return static_cast<int>(v);
    }
  }
  return kDefaultCollectiveTagWindow;
}

int tagForSeq(std::uint64_t seq, int window) {
  return kMaxUserTag + 1 +
         static_cast<int>(seq % static_cast<std::uint64_t>(window));
}

}  // namespace

#ifdef LISI_COMM_CHECK
/// Name of this rank's most recent collective entry point, labeling blocked
/// collective-internal recvs in the checker's deadlock reports.
thread_local const char* t_lastCollKind = "collective";

/// RAII wait registration with the checker.  Declared *before* the mailbox
/// lock in every blocking wait so that, on scope exit, the mailbox mutex is
/// released before endWait() takes the checker mutex (global lock order:
/// checker mutex -> mailbox mutex; the deadlock probe locks mailboxes while
/// holding the checker mutex).
class CheckedWaitScope {
 public:
  CheckedWaitScope(check::WorldChecker* checker, int worldRank,
                   const char* what, std::vector<check::WaitNeed> needs)
      : checker_(checker), worldRank_(worldRank) {
    if (checker_) checker_->beginWait(worldRank_, what, std::move(needs));
  }
  ~CheckedWaitScope() {
    if (checker_) checker_->endWait(worldRank_);
  }
  CheckedWaitScope(const CheckedWaitScope&) = delete;
  CheckedWaitScope& operator=(const CheckedWaitScope&) = delete;

 private:
  check::WorldChecker* checker_;
  int worldRank_;
};
#endif

/// One in-flight message.
struct Envelope {
  std::uint64_t ctx = 0;  ///< Communicator context id.
  int src = 0;            ///< Sender rank, local to the context.
  int tag = 0;
  std::vector<std::byte> payload;
};

/// Per-world-rank message queue.
struct Mailbox {
  /// Ordered after the phantom anchor: the checker's deadlock probe locks
  /// mailboxes while holding the checker mutex, never the reverse (see
  /// check::detail::gCheckerBeforeMailboxAnchor for the full contract).
  support::AnnotatedMutex mutex
      LISI_ACQUIRED_AFTER(check::detail::gCheckerBeforeMailboxAnchor);
  std::condition_variable cv;
  std::deque<Envelope> queue LISI_GUARDED_BY(mutex);
  /// Bumped on every deliver; lets a nonblocking-collective wait detect
  /// arrivals that raced with its last progress sweep.
  std::uint64_t deliveries LISI_GUARDED_BY(mutex) = 0;
};

/// State shared by every rank of one World::run invocation.
class WorldContext {
 public:
  explicit WorldContext(int nranks)
      : nranks_(nranks),
        collectiveTagWindow_(collectiveTagWindowFromEnv()),
        mailboxes_(static_cast<std::size_t>(nranks)) {
#ifdef LISI_COMM_CHECK
    checker_ = std::make_unique<check::WorldChecker>(
        nranks, kMaxUserTag, collectiveTagWindow_,
        [this](int waiter, const std::vector<check::WaitNeed>& needs) {
          // Runs with the checker mutex held; the mailbox mutex nests
          // inside it (see CheckedWaitScope for the lock order).
          Mailbox& box = mailboxes_[static_cast<std::size_t>(waiter)];
          support::MutexLock lock(box.mutex);
          for (const check::WaitNeed& need : needs) {
            for (const Envelope& e : box.queue) {
              if (e.ctx == need.ctx &&
                  (need.src == kAnySource || e.src == need.src) &&
                  (need.tag == kAnyTag || e.tag == need.tag)) {
                return true;
              }
            }
          }
          return false;
        },
        // Violations also abort the world: solver layers may catch the
        // thrown Error, and a swallowed diagnosis must not turn into a
        // silently-failed solve with a desynchronized tag stream.
        [this](const std::string& msg) { abort(msg); },
        [this](int worldRank) {
          Mailbox& box = mailboxes_[static_cast<std::size_t>(worldRank)];
          support::MutexLock lock(box.mutex);
          std::string out;
          std::size_t shown = 0;
          for (const Envelope& e : box.queue) {
            if (shown++ == 8) {
              out += " ...(" + std::to_string(box.queue.size()) + " total)";
              break;
            }
            out += "{ctx=" + std::to_string(e.ctx) +
                   " src=" + std::to_string(e.src) +
                   " tag=" + std::to_string(e.tag) + "}";
          }
          return out;
        });
    std::vector<int> identity(static_cast<std::size_t>(nranks));
    for (int i = 0; i < nranks; ++i) identity[static_cast<std::size_t>(i)] = i;
    checker_->onCommCreated(0, identity, collectiveTagWindow_);
#endif
  }

  [[nodiscard]] int worldSize() const { return nranks_; }

  /// Default collective tag window, inherited by every communicator of this
  /// world at creation (each CommState then carries its own copy, so
  /// sessions can narrow theirs without touching siblings).
  [[nodiscard]] int collectiveTagWindow() const { return collectiveTagWindow_; }

  /// Per-context diagnostic labels ("session 0", ...).  Written by
  /// Comm::setLabel from any rank thread, read by label(); the map is tiny
  /// and off every hot path, so a plain mutex suffices.
  void setContextLabel(std::uint64_t ctx, const std::string& label) {
    support::MutexLock lock(labelMutex_);
    ctxLabels_[ctx] = label;
  }
  [[nodiscard]] std::string contextLabel(std::uint64_t ctx) const {
    support::MutexLock lock(labelMutex_);
    const auto it = ctxLabels_.find(ctx);
    return it == ctxLabels_.end() ? std::string() : it->second;
  }

  /// The LISI_COMM_CHECK verifier; null in unchecked builds.
  [[nodiscard]] check::WorldChecker* checker() { return checker_.get(); }

  void deliver(int worldDest, Envelope env) {
    Mailbox& box = mailboxes_[static_cast<std::size_t>(worldDest)];
    {
      support::MutexLock lock(box.mutex);
      box.queue.push_back(std::move(env));
      ++box.deliveries;
    }
    box.cv.notify_all();
  }

  /// Non-blocking matched receive: the message if one is queued, nothing
  /// otherwise.  Used to drive nonblocking-collective progress.
  std::optional<Envelope> tryReceive(int worldRank, std::uint64_t ctx, int src,
                                     int tag) {
    Mailbox& box = mailboxes_[static_cast<std::size_t>(worldRank)];
    support::MutexLock lock(box.mutex);
    checkAborted();
    const auto it = std::find_if(box.queue.begin(), box.queue.end(),
                                 [&](const Envelope& e) {
                                   return e.ctx == ctx &&
                                          (src == kAnySource || e.src == src) &&
                                          (tag == kAnyTag || e.tag == tag);
                                 });
    if (it == box.queue.end()) return std::nullopt;
    Envelope env = std::move(*it);
    box.queue.erase(it);
    return env;
  }

  /// Current delivery count of the rank's mailbox (for waitForDelivery).
  [[nodiscard]] std::uint64_t deliveryCount(int worldRank) {
    Mailbox& box = mailboxes_[static_cast<std::size_t>(worldRank)];
    support::MutexLock lock(box.mutex);
    return box.deliveries;
  }

  /// Block until the rank's mailbox has gained a message since `seen`
  /// (updating `seen`), the world aborts, or the deadlock-guard timeout
  /// fires.  The caller re-runs its progress sweep afterwards.
  void waitForDelivery(int worldRank, std::uint64_t& seen) {
    Mailbox& box = mailboxes_[static_cast<std::size_t>(worldRank)];
    support::CondLock lock(box.mutex);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(recvTimeoutSeconds()));
    while (true) {
      checkAborted();
      if (box.deliveries != seen) {
        seen = box.deliveries;
        return;
      }
      if (box.cv.wait_until(lock.native(), deadline) == std::cv_status::timeout) {
        abort("nonblocking collective wait timed out (possible deadlock): "
              "world rank " +
              std::to_string(worldRank) +
              " has outstanding handles with no arriving messages");
        checkAborted();
      }
    }
  }

  /// Blocking matched receive for `worldRank`.
  Envelope receive(int worldRank, std::uint64_t ctx, int src, int tag) {
    Mailbox& box = mailboxes_[static_cast<std::size_t>(worldRank)];
#ifdef LISI_COMM_CHECK
    // Wait scope before the lock: its destructor must run after the lock's
    // (see CheckedWaitScope).  beginWait may itself diagnose a deadlock and
    // throw; the rank then unwinds into World::run, which aborts the world.
    CheckedWaitScope waitScope(checker_.get(), worldRank,
                               tag > kMaxUserTag ? t_lastCollKind : "recv",
                               {check::WaitNeed{ctx, src, tag}});
#endif
    support::CondLock lock(box.mutex);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(recvTimeoutSeconds()));
    while (true) {
      checkAborted();
      auto it = std::find_if(box.queue.begin(), box.queue.end(),
                             [&](const Envelope& e) {
                               return e.ctx == ctx &&
                                      (src == kAnySource || e.src == src) &&
                                      (tag == kAnyTag || e.tag == tag);
                             });
      if (it != box.queue.end()) {
        Envelope env = std::move(*it);
        box.queue.erase(it);
#ifdef LISI_COMM_CHECK
        // Mark the wait satisfied while still holding the mailbox lock:
        // from here to endWait the rank still reads as blocked, and a
        // deadlock probe finding the mailbox empty must not condemn it.
        if (checker_) checker_->noteWaitSatisfied(worldRank);
#endif
        return env;
      }
      if (box.cv.wait_until(lock.native(), deadline) == std::cv_status::timeout) {
        abort("recv timed out (possible deadlock): rank " +
              std::to_string(worldRank) + " waiting for src=" +
              std::to_string(src) + " tag=" + std::to_string(tag));
        checkAborted();
      }
    }
  }

  void abort(const std::string& reason) {
    {
      support::MutexLock lock(abortMutex_);
      if (!aborted_.load(std::memory_order_relaxed)) abortReason_ = reason;
    }
    // Memory order (audited): release pairs with the acquire loads below.
    // Readers that go on to read abortReason_ retake abortMutex_, whose
    // hand-off already covers the reason string; release/acquire is what
    // covers the lock-free flag-only readers (aborted(), the hot-path
    // checkAborted probe), making "flag seen true => reason fully written"
    // hold on every path.  seq_cst would add nothing: no reader correlates
    // this flag with a second atomic.
    aborted_.store(true, std::memory_order_release);
    for (Mailbox& box : mailboxes_) box.cv.notify_all();
  }

  void checkAborted() const {
    if (aborted_.load(std::memory_order_acquire)) {
      support::MutexLock lock(abortMutex_);
      throw Error("communicator aborted: " + abortReason_);
    }
  }

  [[nodiscard]] bool aborted() const {
    return aborted_.load(std::memory_order_acquire);
  }

  /// Allocate (or look up) the context id for a split group.  Every member
  /// of the group computes the same (parentCtx, splitSeq, color) key, so the
  /// first arriver allocates and the rest observe the same id.
  std::uint64_t splitContextId(std::uint64_t parentCtx, std::uint64_t splitSeq,
                               int color) {
    support::MutexLock lock(splitMutex_);
    auto [it, inserted] = splitIds_.try_emplace(
        std::make_tuple(parentCtx, splitSeq, color), nextCtxId_);
    if (inserted) ++nextCtxId_;
    return it->second;
  }

  /// Record which rank failed first so World::run can rethrow its exception
  /// rather than a secondary "aborted" echo from another rank.
  /// Memory order (audited): relaxed on both sides.  The CAS only arbitrates
  /// *which* rank id wins — it publishes no other data — and the sole reader
  /// (World::run) runs after joining every rank thread, so thread::join
  /// supplies the happens-before edge.
  void noteFailure(int worldRank) {
    int expected = -1;
    firstFailedRank_.compare_exchange_strong(expected, worldRank,
                                             std::memory_order_relaxed);
  }
  [[nodiscard]] int firstFailedRank() const {
    return firstFailedRank_.load(std::memory_order_relaxed);
  }

  /// Per-context collective-schedule pins (ctx id -> family).  The atomic
  /// count keeps the unpinned fast path lock-free: every collective checks
  /// it, but only worlds that actually pin ever take the mutex.
  /// Memory order (audited): the release store in setContextSchedule pairs
  /// with this acquire load, so a rank that observes a nonzero count also
  /// observes... not the map (that needs pinMutex_, taken below) but the
  /// *intent*; the real publication contract is the barrier inside
  /// pinCollectiveSchedule — no rank resolves a schedule for a collective
  /// issued before the pin.  A stale zero here is therefore benign (the
  /// pinning collective itself has not completed on this rank yet), and
  /// relaxed would in fact suffice; acquire/release is kept because it
  /// documents the pairing at zero cost on every target we build for.
  [[nodiscard]] CollectiveSchedule contextSchedule(std::uint64_t ctx) const {
    if (pinCount_.load(std::memory_order_acquire) == 0) {
      return CollectiveSchedule::kAuto;
    }
    support::MutexLock lock(pinMutex_);
    const auto it = schedulePins_.find(ctx);
    return it == schedulePins_.end() ? CollectiveSchedule::kAuto : it->second;
  }
  void setContextSchedule(std::uint64_t ctx, CollectiveSchedule schedule) {
    support::MutexLock lock(pinMutex_);
    if (schedule == CollectiveSchedule::kAuto) {
      schedulePins_.erase(ctx);
    } else {
      schedulePins_[ctx] = schedule;
    }
    pinCount_.store(static_cast<int>(schedulePins_.size()),
                    std::memory_order_release);
  }

 private:
  int nranks_;
  int collectiveTagWindow_;
  std::vector<Mailbox> mailboxes_;
  std::atomic<bool> aborted_{false};
  mutable support::AnnotatedMutex abortMutex_;
  std::string abortReason_ LISI_GUARDED_BY(abortMutex_);

  support::AnnotatedMutex splitMutex_;
  std::map<std::tuple<std::uint64_t, std::uint64_t, int>, std::uint64_t>
      splitIds_ LISI_GUARDED_BY(splitMutex_);
  std::uint64_t nextCtxId_ LISI_GUARDED_BY(splitMutex_) = 1;  // 0 is world ctx

  mutable support::AnnotatedMutex pinMutex_;
  std::map<std::uint64_t, CollectiveSchedule> schedulePins_
      LISI_GUARDED_BY(pinMutex_);
  std::atomic<int> pinCount_{0};

  mutable support::AnnotatedMutex labelMutex_;
  std::map<std::uint64_t, std::string> ctxLabels_ LISI_GUARDED_BY(labelMutex_);

  std::atomic<int> firstFailedRank_{-1};

  std::unique_ptr<check::WorldChecker> checker_;  // null unless LISI_COMM_CHECK
};

/// Per-rank communicator state (shared by all Comm copies in that rank).
struct CommState {
  std::shared_ptr<WorldContext> world;
  std::uint64_t ctx = 0;
  std::vector<int> groupWorldRanks;  ///< local rank -> world rank
  int myLocalRank = 0;
  /// Collective/split sequence positions.  Atomic for the benefit of the
  /// service layer's admission bookkeeping (a client thread may inspect a
  /// session's progress); within a rank all Comm copies share one thread,
  /// so the fetch_adds never contend and default seq_cst costs nothing —
  /// kept at the default rather than relaxed so the declaration does not
  /// suggest a cross-thread protocol that does not exist.
  std::atomic<std::uint64_t> collSeq{0};
  std::atomic<std::uint64_t> splitSeq{0};
  /// Collective tag window of this context — a session property: seeded
  /// from the world default at creation, inherited through split()/dup(),
  /// and overridden per context by Comm::setCollectiveTagWindow.  Every
  /// rank of the context holds the same value (the setter is collective).
  int collectiveTagWindow = kDefaultCollectiveTagWindow;

  /// This rank's outstanding nonblocking collectives on this communicator.
  /// Rank-thread private (a CommState belongs to exactly one rank thread),
  /// so no lock is needed.  Ops register at start and deregister when their
  /// handle is destroyed; completed ops are no-ops in the progress sweep.
  std::vector<CollOp*> pendingColl;

  [[nodiscard]] int worldRankOf(int localRank) const {
    return groupWorldRanks[static_cast<std::size_t>(localRank)];
  }
};

/// One in-flight nonblocking collective: a fixed schedule of send and
/// receive steps executed in order.  Sends are buffered (they complete
/// immediately); a receive step that finds no matching message parks the
/// op until the next progress sweep.  The step program is exactly the
/// blocking schedule of the same collective, so a completed iallreduce is
/// bitwise identical to allreduce.
class CollOp {
 public:
  enum class StepKind : std::uint8_t {
    kSend,         ///< send the accumulator to `peer`
    kRecvCombine,  ///< receive into scratch, fold into the accumulator
    kRecvReplace,  ///< receive straight into the accumulator
    kRecvDiscard,  ///< receive and drop (barrier tokens)
  };
  struct Step {
    StepKind kind;
    int peer;
  };
  using CombineFn = void (*)(void*, const void*, std::size_t, ReduceOp);

  CollOp(std::shared_ptr<CommState> state, int tag, std::vector<Step> steps,
         void* acc, std::size_t bytes, std::size_t count, std::size_t elemSize,
         ReduceOp op, CombineFn combine)
      : state_(std::move(state)),
        tag_(tag),
        steps_(std::move(steps)),
        acc_(static_cast<std::byte*>(acc)),
        bytes_(bytes),
        count_(count),
        elemSize_(elemSize),
        op_(op),
        combine_(combine) {
    if (acc_ == nullptr) {  // op-owned payload (barrier token)
      own_.resize(bytes_ == 0 ? 1 : bytes_);
      acc_ = own_.data();
    }
#ifdef LISI_COMM_CHECK
    // Before the pendingColl registration: an aliasing diagnosis throws out
    // of this constructor, and a registered-but-unconstructed op would
    // dangle in the list.
    if (auto* checker = state_->world->checker()) {
      // An op's buffer stays its own until the handle retires it, even
      // when a progress sweep has already run every step: the caller may
      // not reuse it before wait()/test() reports completion.
      std::vector<check::BufferRange> outstanding;
      for (const CollOp* op : state_->pendingColl) {
        if (op->retired_ || !op->own_.empty()) continue;  // op-owned tokens
        outstanding.push_back({op->acc_, op->bytes_, op->tag_});
      }
      checker->onNonblockingStart(state_->worldRankOf(state_->myLocalRank),
                                  tag_, own_.empty() ? acc_ : nullptr,
                                  own_.empty() ? bytes_ : 0, outstanding);
    }
#endif
    state_->pendingColl.push_back(this);
  }

  ~CollOp() {
    auto& pending = state_->pendingColl;
    const auto it = std::find(pending.begin(), pending.end(), this);
    if (it != pending.end()) pending.erase(it);
#ifdef LISI_COMM_CHECK
    // During an abort every rank unwinds with whatever handles it had in
    // flight; recording those as abandoned would only clutter the abort's
    // own diagnostic.
    if (auto* checker = state_->world->checker()) {
      if (!state_->world->aborted()) {
        checker->onNonblockingEnd(state_->worldRankOf(state_->myLocalRank),
                                  tag_, done(), steps_.size() - next_);
      }
    }
#endif
  }

  CollOp(const CollOp&) = delete;
  CollOp& operator=(const CollOp&) = delete;

  [[nodiscard]] bool done() const { return next_ >= steps_.size(); }

  /// The handle observed completion (wait() returned, or test() said so):
  /// from here on the caller owns the buffer again.
  void retire() { retired_ = true; }

  /// Execute steps until done or a receive finds no message; never blocks.
  bool advance() {
    while (next_ < steps_.size()) {
      const Step& step = steps_[next_];
      if (step.kind == StepKind::kSend) {
        Envelope env;
        env.ctx = state_->ctx;
        env.src = state_->myLocalRank;
        env.tag = tag_;
        env.payload.assign(acc_, acc_ + bytes_);
        state_->world->checkAborted();
        obs::count("comm.send.count");
        obs::count("comm.send.bytes", static_cast<long long>(bytes_));
        state_->world->deliver(state_->worldRankOf(step.peer), std::move(env));
        ++next_;
        continue;
      }
      std::optional<Envelope> env = state_->world->tryReceive(
          state_->worldRankOf(state_->myLocalRank), state_->ctx, step.peer,
          tag_);
      if (!env) return false;
      obs::count("comm.recv.count");
      obs::count("comm.recv.bytes", static_cast<long long>(env->payload.size()));
      LISI_CHECK(env->payload.size() == bytes_,
                 "nonblocking collective: payload size mismatch");
      if (step.kind == StepKind::kRecvCombine) {
        combine_(acc_, env->payload.data(), count_, op_);
      } else if (step.kind == StepKind::kRecvReplace) {
        std::memcpy(acc_, env->payload.data(), bytes_);
      }
      ++next_;
    }
    return true;
  }

  /// Sweep every outstanding op of this rank (on this communicator); ops
  /// park independently, so later ops progress past earlier stalled ones —
  /// that is what makes out-of-order wait()/test() deadlock-free.
  static void progressAll(CommState& state) {
    for (CollOp* op : state.pendingColl) (void)op->advance();
  }

  /// Block until this op completes, progressing all outstanding ops.
  void waitDone() {
    WorldContext& world = *state_->world;
    const int worldRank = state_->worldRankOf(state_->myLocalRank);
    std::uint64_t seen = world.deliveryCount(worldRank);
    while (true) {
      progressAll(*state_);
      if (done()) return;
#ifdef LISI_COMM_CHECK
      if (auto* checker = world.checker()) {
        // After progressAll every incomplete op is parked at a receive
        // step; any of those arrivals unblocks the sweep, so they are all
        // registered as this wait's needs (refreshed each time around —
        // the parked steps move as ops progress).
        std::vector<check::WaitNeed> needs;
        for (const CollOp* op : state_->pendingColl) {
          if (op->done()) continue;
          needs.push_back(
              {state_->ctx, op->steps_[op->next_].peer, op->tag_});
        }
        CheckedWaitScope waitScope(checker, worldRank,
                                   "nonblocking collective wait",
                                   std::move(needs));
        world.waitForDelivery(worldRank, seen);
        continue;
      }
#endif
      world.waitForDelivery(worldRank, seen);
    }
  }

  [[nodiscard]] CommState& state() { return *state_; }

 private:
  std::shared_ptr<CommState> state_;
  int tag_;
  std::vector<Step> steps_;
  std::size_t next_ = 0;
  bool retired_ = false;            ///< completion observed through the handle
  std::byte* acc_;                  ///< caller's out buffer (or the token)
  std::size_t bytes_;               ///< payload bytes per message
  std::size_t count_;               ///< element count (for combine)
  std::size_t elemSize_;
  ReduceOp op_;
  CombineFn combine_;           ///< null for barrier programs
  std::vector<std::byte> own_;  ///< backs acc_ when the op owns the payload
};

}  // namespace detail

CollHandle::CollHandle(std::unique_ptr<detail::CollOp> op)
    : op_(std::move(op)) {}

// Out of line: the defaulted special members destroy the held CollOp, which
// is an incomplete type for header-only users.
CollHandle::CollHandle() = default;
CollHandle::CollHandle(CollHandle&&) noexcept = default;
CollHandle& CollHandle::operator=(CollHandle&&) noexcept = default;
CollHandle::~CollHandle() = default;

bool CollHandle::test() {
  LISI_CHECK(valid(), "test() on an empty CollHandle");
  detail::CollOp::progressAll(op_->state());
  if (!op_->done()) return false;
  op_->retire();
  return true;
}

void CollHandle::wait() {
  LISI_CHECK(valid(), "wait() on an empty CollHandle");
  obs::Span span("coll.wait");
  op_->waitDone();
  op_->retire();
}

int Comm::rank() const {
  LISI_CHECK(valid(), "rank() on an invalid communicator");
  return state_->myLocalRank;
}

int Comm::size() const {
  LISI_CHECK(valid(), "size() on an invalid communicator");
  return static_cast<int>(state_->groupWorldRanks.size());
}

void Comm::sendBytes(const void* data, std::size_t n, int dest, int tag) const {
  LISI_CHECK(valid(), "sendBytes() on an invalid communicator");
  LISI_CHECK(dest >= 0 && dest < size(), "sendBytes: dest out of range");
  LISI_CHECK(tag >= 0, "sendBytes: negative tag");
#ifdef LISI_COMM_CHECK
  if (auto* checker = state_->world->checker()) {
    checker->onSend(state_->ctx, state_->myLocalRank,
                    state_->worldRankOf(state_->myLocalRank), dest, tag);
  }
#endif
  obs::count("comm.send.count");
  obs::count("comm.send.bytes", static_cast<long long>(n));
  state_->world->checkAborted();
  detail::Envelope env;
  env.ctx = state_->ctx;
  env.src = state_->myLocalRank;
  env.tag = tag;
  env.payload.resize(n);
  if (n != 0) std::memcpy(env.payload.data(), data, n);
  state_->world->deliver(state_->worldRankOf(dest), std::move(env));
}

std::vector<std::byte> Comm::recvBytes(int src, int tag, Status* status) const {
  LISI_CHECK(valid(), "recvBytes() on an invalid communicator");
  LISI_CHECK(src == kAnySource || (src >= 0 && src < size()),
             "recvBytes: src out of range");
  detail::Envelope env = state_->world->receive(
      state_->worldRankOf(state_->myLocalRank), state_->ctx, src, tag);
  obs::count("comm.recv.count");
  obs::count("comm.recv.bytes", static_cast<long long>(env.payload.size()));
  if (status) {
    status->source = env.src;
    status->tag = env.tag;
    status->bytes = env.payload.size();
  }
  return std::move(env.payload);
}

void Comm::recvBytesInto(void* data, std::size_t n, int src, int tag,
                         Status* status) const {
  std::vector<std::byte> payload = recvBytes(src, tag, status);
  LISI_CHECK(payload.size() == n,
             "recvBytesInto: message size (" + std::to_string(payload.size()) +
                 ") != buffer size (" + std::to_string(n) + ")");
  if (n != 0) std::memcpy(data, payload.data(), n);
}

int Comm::nextCollectiveTag(check::CollKind kind, int root, std::uint64_t bytes,
                            int reduceOp) const {
  LISI_CHECK(valid(), "collective on an invalid communicator");
  // Check the abort flag before advancing the sequence: solver layers catch
  // lisi::Error and return error codes, so a rank that swallowed the abort
  // mid-solve resumes with fewer collectives issued than its peers.  Letting
  // it draw the next tag anyway would desynchronize the lockstep sequence
  // and (under LISI_COMM_CHECK) bury the original diagnostic beneath a
  // secondary mismatch report.
  state_->world->checkAborted();
  const std::uint64_t seq = state_->collSeq.fetch_add(1);
  const int tag = detail::tagForSeq(seq, state_->collectiveTagWindow);
#ifdef LISI_COMM_CHECK
  detail::t_lastCollKind = check::collKindName(kind);
  if (auto* checker = state_->world->checker()) {
    check::CollSignature sig;
    sig.kind = kind;
    sig.root = root;
    sig.bytes = bytes;
    sig.reduceOp = reduceOp;
    sig.treeFamily = detail::useTreeSchedule(*state_, size());
    checker->onCollectiveStart(state_->ctx, state_->myLocalRank, seq, tag, 1,
                               sig);
  }
#else
  (void)kind;
  (void)root;
  (void)bytes;
  (void)reduceOp;
#endif
  return tag;
}

namespace {
/// Process-wide schedule fallback, consulted only when a context has no pin.
/// Memory order (audited): relaxed on both sides, deliberately.  The enum is
/// a self-contained value — no reader dereferences anything published by the
/// writer — so the only question is *when* a store becomes visible, and the
/// API contract already answers it: setCollectiveSchedule is documented to
/// be called while the affected worlds are quiescent (tests set it between
/// World::run invocations; the service pins per-context instead).  A rank
/// that raced this store could resolve the old family, which is exactly the
/// lockstep hazard pinCollectiveSchedule's barrier exists to rule out —
/// stronger ordering here could not fix that race, only hide it from TSan.
std::atomic<CollectiveSchedule> g_schedule{CollectiveSchedule::kAuto};
}  // namespace

void setCollectiveSchedule(CollectiveSchedule schedule) {
  g_schedule.store(schedule, std::memory_order_relaxed);
}

CollectiveSchedule collectiveSchedule() {
  return g_schedule.load(std::memory_order_relaxed);
}

bool detail::useTreeSchedule(int p) {
  switch (collectiveSchedule()) {
    case CollectiveSchedule::kTree: return true;
    case CollectiveSchedule::kStar: return false;
    case CollectiveSchedule::kAuto: break;
  }
  // Ranks are threads: with a core per rank the tree's O(log p) critical
  // path sets the latency, but on an oversubscribed host every tree edge
  // is a forced scheduler handoff (the child cannot progress until its
  // parent ran), so the star's independent sends win.
  // hardware_concurrency() is identical on every rank of a world (one
  // process), so all ranks resolve the same family and the collective tag
  // sequence stays in lockstep.  Cached: glibc re-reads sysfs on every
  // call, which would cost more than a small collective itself.
  static const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 || static_cast<int>(hw) >= p;
}

bool detail::useTreeSchedule(const CommState& state, int p) {
  if (state.world != nullptr) {
    switch (state.world->contextSchedule(state.ctx)) {
      case CollectiveSchedule::kTree: return true;
      case CollectiveSchedule::kStar: return false;
      case CollectiveSchedule::kAuto: break;
    }
  }
  return useTreeSchedule(p);
}

void Comm::pinCollectiveSchedule(CollectiveSchedule schedule) const {
  LISI_CHECK(valid(), "pinCollectiveSchedule on an invalid communicator");
  // Barrier-then-set: a rank enters the barrier only after completing its
  // previous collective, and the barrier completes only once every rank
  // entered it — so by the time any rank flips the pin, no rank can still
  // be about to resolve the OLD family for an earlier collective.  Each
  // rank then records the same value before its own next collective.
  barrier();
  state_->world->setContextSchedule(state_->ctx, schedule);
}

CollectiveSchedule Comm::pinnedCollectiveSchedule() const {
  LISI_CHECK(valid(), "pinnedCollectiveSchedule on an invalid communicator");
  return state_->world->contextSchedule(state_->ctx);
}

void Comm::setCollectiveTagWindow(int window) const {
  LISI_CHECK(valid(), "setCollectiveTagWindow on an invalid communicator");
  LISI_CHECK(window >= 16 && window <= detail::kDefaultCollectiveTagWindow,
             "setCollectiveTagWindow: window must lie in [16, " +
                 std::to_string(detail::kDefaultCollectiveTagWindow) + "]");
  // Barrier-then-set (see pinCollectiveSchedule): after the barrier no rank
  // can still be drawing a tag for an earlier collective, so every rank
  // switches windows at the same collective-sequence position and the
  // lockstep tag streams stay identical.  Only this CommState changes:
  // the parent and any split/dup siblings keep their own windows.
  barrier();
  state_->collectiveTagWindow = window;
#ifdef LISI_COMM_CHECK
  if (auto* checker = state_->world->checker()) {
    checker->onCommTagWindow(state_->ctx, window);
  }
#endif
}

int Comm::collectiveTagWindow() const {
  LISI_CHECK(valid(), "collectiveTagWindow on an invalid communicator");
  return state_->collectiveTagWindow;
}

void Comm::setLabel(const std::string& label) const {
  LISI_CHECK(valid(), "setLabel on an invalid communicator");
  state_->world->setContextLabel(state_->ctx, label);
#ifdef LISI_COMM_CHECK
  if (auto* checker = state_->world->checker()) {
    checker->onCommLabeled(state_->ctx, label);
  }
#endif
}

std::string Comm::label() const {
  LISI_CHECK(valid(), "label on an invalid communicator");
  return state_->world->contextLabel(state_->ctx);
}

std::vector<int> Comm::reserveCollectiveTags(int count) const {
  LISI_CHECK(valid(), "reserveCollectiveTags on an invalid communicator");
  LISI_CHECK(count > 0, "reserveCollectiveTags: count must be positive");
  state_->world->checkAborted();  // see nextCollectiveTag
  const std::uint64_t seq =
      state_->collSeq.fetch_add(static_cast<std::uint64_t>(count));
  std::vector<int> tags(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    tags[static_cast<std::size_t>(i)] = detail::tagForSeq(
        seq + static_cast<std::uint64_t>(i), state_->collectiveTagWindow);
  }
#ifdef LISI_COMM_CHECK
  detail::t_lastCollKind = "reserveCollectiveTags";
  if (auto* checker = state_->world->checker()) {
    check::CollSignature sig;
    sig.kind = check::CollKind::kReserveTags;
    sig.bytes = static_cast<std::uint64_t>(count);
    sig.treeFamily = detail::useTreeSchedule(*state_, size());
    checker->onCollectiveStart(state_->ctx, state_->myLocalRank, seq,
                               tags.front(), count, sig);
  }
#endif
  return tags;
}

void Comm::barrier() const {
  // Tree family: dissemination barrier, ceil(log2 p) rounds; in round k
  // every rank signals (rank + 2^k) mod p and waits on (rank - 2^k) mod p.
  // Each round's source is distinct, so one tag disambiguates all rounds.
  // Star family: gather tokens at rank 0, then release everyone.
  const int tag = nextCollectiveTag(check::CollKind::kBarrier, -1, 0);
  const int p = size();
  obs::Span span(detail::useTreeSchedule(*state_, p) ? "coll.barrier.tree"
                                            : "coll.barrier.star");
  if (p == 1) return;
  const int r = rank();
  const char token = 0;
  if (!detail::useTreeSchedule(*state_, p)) {
    if (r == 0) {
      for (int q = 1; q < p; ++q) (void)recvValue<char>(q, tag);
      for (int q = 1; q < p; ++q) sendValue(token, q, tag);
    } else {
      sendValue(token, 0, tag);
      (void)recvValue<char>(0, tag);
    }
    return;
  }
  for (int m = 1; m < p; m <<= 1) {
    sendValue(token, (r + m) % p, tag);
    (void)recvValue<char>((r - m + p) % p, tag);
  }
}

void Comm::bcastBytes(void* data, std::size_t n, int root) const {
  // Tree family: binomial tree rooted at `root` — each rank receives from
  // its parent once and forwards to at most ceil(log2 p) children, so the
  // critical path is O(log p).  Star family: the root sends p-1
  // independent (buffered, non-blocking) messages.
  const int tag = nextCollectiveTag(check::CollKind::kBcast, root,
                                    static_cast<std::uint64_t>(n));
  const int p = size();
  obs::Span span(detail::useTreeSchedule(*state_, p) ? "coll.bcast.tree"
                                            : "coll.bcast.star",
                 static_cast<std::uint64_t>(n));
  LISI_CHECK(root >= 0 && root < p, "bcast: root out of range");
  if (p == 1) return;
  if (!detail::useTreeSchedule(*state_, p)) {
    if (rank() == root) {
      for (int r = 0; r < p; ++r) {
        if (r != root) sendBytes(data, n, r, tag);
      }
    } else {
      recvBytesInto(data, n, root, tag);
    }
    return;
  }
  const int vr = (rank() - root + p) % p;  // virtual rank: root -> 0
  int mask = 1;
  while (mask < p) {
    if (vr & mask) {
      recvBytesInto(data, n, (vr - mask + root) % p, tag);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < p) sendBytes(data, n, (vr + mask + root) % p, tag);
    mask >>= 1;
  }
}

void Comm::reduceBytes(const void* in, void* out, std::size_t count,
                       std::size_t elemSize, ReduceOp op, int root,
                       void (*combine)(void*, const void*, std::size_t,
                                       ReduceOp)) const {
  // Tree family: binomial tree mirror of bcast — leaves send first,
  // interior ranks fold each child subtree into their accumulator in
  // ascending-mask order, so the schedule is fixed and results are
  // reproducible run-to-run.  Star family: the root folds every rank's
  // contribution in ascending rank order (also fixed, also reproducible,
  // but a different association than the tree — pick one family per run).
  const int tag = nextCollectiveTag(check::CollKind::kReduce, root,
                                    static_cast<std::uint64_t>(count * elemSize),
                                    static_cast<int>(op));
  const int p = size();
  obs::Span span(detail::useTreeSchedule(*state_, p) ? "coll.reduce.tree"
                                            : "coll.reduce.star",
                 static_cast<std::uint64_t>(count * elemSize));
  LISI_CHECK(root >= 0 && root < p, "reduce: root out of range");
  const std::size_t bytes = count * elemSize;
  if (rank() == root && bytes != 0 && out != in) std::memcpy(out, in, bytes);
  if (p == 1 || bytes == 0) return;
  if (!detail::useTreeSchedule(*state_, p)) {
    if (rank() == root) {
      std::vector<std::byte> contrib(bytes);
      for (int r = 0; r < p; ++r) {
        if (r == root) continue;
        recvBytesInto(contrib.data(), bytes, r, tag);
        combine(out, contrib.data(), count, op);
      }
    } else {
      sendBytes(in, bytes, root, tag);
    }
    return;
  }
  const int vr = (rank() - root + p) % p;
  std::vector<std::byte> scratch;
  void* acc = out;
  if (rank() != root) {
    scratch.resize(2 * bytes);
    acc = scratch.data();
    std::memcpy(acc, in, bytes);
  } else {
    scratch.resize(bytes);
  }
  std::byte* contrib =
      rank() == root ? scratch.data() : scratch.data() + bytes;
  int mask = 1;
  while (mask < p) {
    if (vr & mask) {
      sendBytes(acc, bytes, (vr - mask + root) % p, tag);
      return;
    }
    const int childV = vr + mask;
    if (childV < p) {
      recvBytesInto(contrib, bytes, (childV + root) % p, tag);
      combine(acc, contrib, count, op);
    }
    mask <<= 1;
  }
}

void Comm::allreduceBytes(const void* in, void* out, std::size_t count,
                          std::size_t elemSize, ReduceOp op,
                          void (*combine)(void*, const void*, std::size_t,
                                          ReduceOp)) const {
  // Tree family: recursive doubling over the largest power-of-two core;
  // surplus ranks fold their contribution into a core partner up front and
  // read the result back at the end.  log2(p) exchange rounds on the core.
  // Every rank combines the identical operand tree (the ops are bitwise
  // commutative), so all ranks finish with bitwise-identical results.
  // Star family: star reduce into rank 0 + star bcast (all ranks receive
  // rank 0's bytes, so results are identical across ranks here too).
  const int p = size();
  const std::size_t bytes = count * elemSize;
  obs::Span span(detail::useTreeSchedule(*state_, p) ? "coll.allreduce.tree"
                                            : "coll.allreduce.star",
                 static_cast<std::uint64_t>(bytes));
  if (bytes != 0 && out != in) std::memcpy(out, in, bytes);
  if (p == 1 || bytes == 0) return;
  if (!detail::useTreeSchedule(*state_, p)) {
    reduceBytes(out, out, count, elemSize, op, 0, combine);
    bcastBytes(out, bytes, 0);
    return;
  }
  const int tag = nextCollectiveTag(check::CollKind::kAllreduce, -1,
                                    static_cast<std::uint64_t>(bytes),
                                    static_cast<int>(op));
  const int r = rank();
  int pof2 = 1;
  while (pof2 * 2 <= p) pof2 *= 2;
  const int rem = p - pof2;
  std::vector<std::byte> contrib(bytes);
  int coreRank;  // rank within the power-of-two core, or -1 if folded out
  if (r < 2 * rem) {
    if (r % 2 == 0) {
      sendBytes(out, bytes, r + 1, tag);
      coreRank = -1;
    } else {
      recvBytesInto(contrib.data(), bytes, r - 1, tag);
      combine(out, contrib.data(), count, op);
      coreRank = r / 2;
    }
  } else {
    coreRank = r - rem;
  }
  if (coreRank >= 0) {
    for (int mask = 1; mask < pof2; mask <<= 1) {
      const int partnerCore = coreRank ^ mask;
      const int partner =
          partnerCore < rem ? partnerCore * 2 + 1 : partnerCore + rem;
      sendBytes(out, bytes, partner, tag);
      recvBytesInto(contrib.data(), bytes, partner, tag);
      combine(out, contrib.data(), count, op);
    }
  }
  if (r < 2 * rem) {
    if (r % 2 == 1) {
      sendBytes(out, bytes, r - 1, tag);
    } else {
      recvBytesInto(out, bytes, r + 1, tag);
    }
  }
}

CollHandle Comm::iallreduceBytes(
    const void* in, void* out, std::size_t count, std::size_t elemSize,
    ReduceOp op,
    void (*combine)(void*, const void*, std::size_t, ReduceOp)) const {
  // Same step sequences as allreduceBytes (see the schedule notes there),
  // recorded as a program instead of executed inline, so a completed
  // iallreduce is bitwise identical to the blocking call.  One fresh
  // collective tag per handle keeps overlapping iallreduces (and any
  // blocking collectives issued while this one is in flight) from
  // cross-matching.
  const std::size_t bytes = count * elemSize;
  const int tag = nextCollectiveTag(check::CollKind::kIallreduce, -1,
                                    static_cast<std::uint64_t>(bytes),
                                    static_cast<int>(op));
  obs::count("coll.iallreduce.start");
  const int p = size();
  if (bytes != 0 && out != in) std::memcpy(out, in, bytes);
  using Step = detail::CollOp::Step;
  using K = detail::CollOp::StepKind;
  std::vector<Step> steps;
  if (p > 1 && bytes != 0) {
    const int r = rank();
    if (!detail::useTreeSchedule(*state_, p)) {
      if (r == 0) {
        for (int q = 1; q < p; ++q) steps.push_back({K::kRecvCombine, q});
        for (int q = 1; q < p; ++q) steps.push_back({K::kSend, q});
      } else {
        steps.push_back({K::kSend, 0});
        steps.push_back({K::kRecvReplace, 0});
      }
    } else {
      int pof2 = 1;
      while (pof2 * 2 <= p) pof2 *= 2;
      const int rem = p - pof2;
      int coreRank;
      if (r < 2 * rem) {
        if (r % 2 == 0) {
          steps.push_back({K::kSend, r + 1});
          coreRank = -1;
        } else {
          steps.push_back({K::kRecvCombine, r - 1});
          coreRank = r / 2;
        }
      } else {
        coreRank = r - rem;
      }
      if (coreRank >= 0) {
        for (int mask = 1; mask < pof2; mask <<= 1) {
          const int partnerCore = coreRank ^ mask;
          const int partner =
              partnerCore < rem ? partnerCore * 2 + 1 : partnerCore + rem;
          steps.push_back({K::kSend, partner});
          steps.push_back({K::kRecvCombine, partner});
        }
      }
      if (r < 2 * rem) {
        steps.push_back(r % 2 == 1 ? Step{K::kSend, r - 1}
                                   : Step{K::kRecvReplace, r + 1});
      }
    }
  }
  auto collOp = std::make_unique<detail::CollOp>(
      state_, tag, std::move(steps), out, bytes, count, elemSize, op, combine);
  (void)collOp->advance();  // post the leading sends before returning
  return CollHandle(std::move(collOp));
}

CollHandle Comm::ibarrier() const {
  // Dissemination rounds (tree family) or token gather/release via rank 0
  // (star family) — the same patterns as Comm::barrier, recorded as a
  // program.  The token lives inside the op (acc == nullptr).
  const int tag = nextCollectiveTag(check::CollKind::kIbarrier, -1, 0);
  obs::count("coll.ibarrier.start");
  const int p = size();
  using Step = detail::CollOp::Step;
  using K = detail::CollOp::StepKind;
  std::vector<Step> steps;
  if (p > 1) {
    const int r = rank();
    if (!detail::useTreeSchedule(*state_, p)) {
      if (r == 0) {
        for (int q = 1; q < p; ++q) steps.push_back({K::kRecvDiscard, q});
        for (int q = 1; q < p; ++q) steps.push_back({K::kSend, q});
      } else {
        steps.push_back({K::kSend, 0});
        steps.push_back({K::kRecvDiscard, 0});
      }
    } else {
      for (int m = 1; m < p; m <<= 1) {
        steps.push_back({K::kSend, (r + m) % p});
        steps.push_back({K::kRecvDiscard, (r - m + p) % p});
      }
    }
  }
  auto collOp = std::make_unique<detail::CollOp>(
      state_, tag, std::move(steps), nullptr, 1, 0, 0, ReduceOp::kSum,
      nullptr);
  (void)collOp->advance();
  return CollHandle(std::move(collOp));
}

Comm Comm::split(int color, int key) const {
  LISI_CHECK(valid(), "split() on an invalid communicator");
  struct Triple {
    int color;
    int key;
    int parentRank;
  };
  const Triple mine{color, key, rank()};
  std::vector<Triple> all =
      allgatherv(std::span<const Triple>(&mine, 1), nullptr);
  const std::uint64_t seq = state_->splitSeq.fetch_add(1);
  if (color < 0) return Comm{};  // like MPI_UNDEFINED: not in any new group
  std::vector<Triple> group;
  for (const Triple& t : all) {
    if (t.color == color) group.push_back(t);
  }
  std::sort(group.begin(), group.end(), [](const Triple& a, const Triple& b) {
    return std::tie(a.key, a.parentRank) < std::tie(b.key, b.parentRank);
  });
  auto newState = std::make_shared<detail::CommState>();
  newState->world = state_->world;
  newState->ctx = state_->world->splitContextId(state_->ctx, seq, color);
  newState->collectiveTagWindow = state_->collectiveTagWindow;
  newState->groupWorldRanks.reserve(group.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    newState->groupWorldRanks.push_back(
        state_->worldRankOf(group[i].parentRank));
    if (group[i].parentRank == rank()) {
      newState->myLocalRank = static_cast<int>(i);
    }
  }
#ifdef LISI_COMM_CHECK
  if (auto* checker = state_->world->checker()) {
    checker->onCommCreated(newState->ctx, newState->groupWorldRanks,
                           newState->collectiveTagWindow);
  }
#endif
  return Comm(std::move(newState));
}

Comm Comm::dup() const { return split(0, rank()); }

void Comm::abort(const std::string& reason) const {
  LISI_CHECK(valid(), "abort() on an invalid communicator");
  state_->world->abort(reason);
}

void World::run(int nranks, const std::function<void(Comm&)>& body) {
  LISI_CHECK(nranks >= 1, "World::run: nranks must be >= 1");
  auto world = std::make_shared<detail::WorldContext>(nranks);
  std::vector<std::exception_ptr> failures(static_cast<std::size_t>(nranks));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      obs::setThreadRank(r);
      auto state = std::make_shared<detail::CommState>();
      state->world = world;
      state->ctx = 0;
      state->collectiveTagWindow = world->collectiveTagWindow();
      state->groupWorldRanks.resize(static_cast<std::size_t>(nranks));
      for (int i = 0; i < nranks; ++i) {
        state->groupWorldRanks[static_cast<std::size_t>(i)] = i;
      }
      state->myLocalRank = r;
      Comm comm(state);
      try {
        body(comm);
#ifdef LISI_COMM_CHECK
        // Inside the try: a leak/strand diagnosis from the exit sweep is a
        // rank failure like any other, so firstFailedRank makes the report
        // the exception World::run rethrows.
        if (auto* checker = world->checker()) {
          if (!world->aborted()) checker->onRankExit(r);
        }
#endif
      } catch (...) {
        failures[static_cast<std::size_t>(r)] = std::current_exception();
        world->noteFailure(r);
        world->abort("rank " + std::to_string(r) + " threw an exception");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const int first = world->firstFailedRank();
  if (first >= 0 && failures[static_cast<std::size_t>(first)]) {
    std::rethrow_exception(failures[static_cast<std::size_t>(first)]);
  }
  for (const std::exception_ptr& e : failures) {
    if (e) std::rethrow_exception(e);
  }
  // Every rank body returned, but the world was aborted: some layer caught
  // the original Error (solver components legitimately translate failures
  // into return codes) and the diagnosis would otherwise vanish.  Surface
  // the recorded first reason rather than reporting success.
  world->checkAborted();
}

}  // namespace lisi::comm
