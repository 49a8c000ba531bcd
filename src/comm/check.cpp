#include "comm/check.hpp"

#include <algorithm>
#include <sstream>

#include "support/error.hpp"

namespace lisi::comm::check {

bool enabled() {
#ifdef LISI_COMM_CHECK
  return true;
#else
  return false;
#endif
}

const char* collKindName(CollKind kind) {
  switch (kind) {
    case CollKind::kBarrier: return "barrier";
    case CollKind::kBcast: return "bcast";
    case CollKind::kReduce: return "reduce";
    case CollKind::kAllreduce: return "allreduce";
    case CollKind::kGather: return "gather";
    case CollKind::kGatherv: return "gatherv";
    case CollKind::kAllgatherv: return "allgatherv";
    case CollKind::kScatter: return "scatter";
    case CollKind::kScatterv: return "scatterv";
    case CollKind::kReserveTags: return "reserveCollectiveTags";
  }
  return "?";
}

namespace {

const char* reduceOpName(int op) {
  switch (op) {
    case 0: return "sum";
    case 1: return "prod";
    case 2: return "max";
    case 3: return "min";
    default: return "-";
  }
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xffU;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

std::uint64_t signatureHash(const CollSignature& sig, std::uint64_t ctx,
                            std::uint64_t seq) {
  std::uint64_t h = kFnvOffset;
  h = fnv1a(h, ctx);
  h = fnv1a(h, seq);
  h = fnv1a(h, static_cast<std::uint64_t>(sig.kind));
  h = fnv1a(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(sig.root)));
  h = fnv1a(h, sig.bytes);
  h = fnv1a(h,
            static_cast<std::uint64_t>(static_cast<std::int64_t>(sig.reduceOp)));
  h = fnv1a(h, sig.treeFamily ? 1 : 0);
  return h;
}

std::string describeSignature(const CollSignature& sig) {
  std::ostringstream out;
  out << collKindName(sig.kind) << "(root=";
  if (sig.root < 0) {
    out << "-";
  } else {
    out << sig.root;
  }
  out << ", bytes=";
  if (sig.bytes == kVariableBytes) {
    out << "variable";
  } else {
    out << sig.bytes;
  }
  out << ", op=" << reduceOpName(sig.reduceOp)
      << ", family=" << (sig.treeFamily ? "tree" : "star") << ")";
  return out.str();
}

WorldChecker::WorldChecker(int worldSize, int maxUserTag,
                           int collectiveTagWindow, QueueProbe probe,
                           ViolationReport report, MailboxDump dump)
    : worldSize_(worldSize),
      maxUserTag_(maxUserTag),
      collectiveTagWindow_(collectiveTagWindow),
      probe_(std::move(probe)),
      report_(std::move(report)),
      dump_(std::move(dump)),
      waits_(static_cast<std::size_t>(worldSize)),
      exited_(static_cast<std::size_t>(worldSize), false),
      recentTags_(static_cast<std::size_t>(worldSize)),
      recentTagPos_(static_cast<std::size_t>(worldSize), 0),
      history_(static_cast<std::size_t>(worldSize)),
      historyPos_(static_cast<std::size_t>(worldSize), 0) {}

void WorldChecker::fail(const std::string& msg) const {
  if (report_) report_(msg);
  throw Error(msg);
}

void WorldChecker::onCommCreated(std::uint64_t ctx,
                                 const std::vector<int>& groupWorldRanks,
                                 int collectiveTagWindow) {
  support::MutexLock lock(mutex_);
  ctxGroups_.try_emplace(ctx, groupWorldRanks);
  ctxWindows_.try_emplace(ctx, collectiveTagWindow);
}

void WorldChecker::onCommTagWindow(std::uint64_t ctx, int window) {
  support::MutexLock lock(mutex_);
  ctxWindows_[ctx] = window;
}

void WorldChecker::onCommLabeled(std::uint64_t ctx, std::string label) {
  support::MutexLock lock(mutex_);
  ctxLabels_[ctx] = std::move(label);
}

int WorldChecker::windowOfLocked(std::uint64_t ctx) const {
  const auto it = ctxWindows_.find(ctx);
  return it == ctxWindows_.end() ? collectiveTagWindow_ : it->second;
}

std::string WorldChecker::ctxNameLocked(std::uint64_t ctx) const {
  std::string name = "ctx=" + std::to_string(ctx);
  const auto it = ctxLabels_.find(ctx);
  if (it != ctxLabels_.end() && !it->second.empty()) {
    name += " [" + it->second + "]";
  }
  return name;
}

int WorldChecker::worldRankOfLocked(std::uint64_t ctx, int localRank) const {
  const auto it = ctxGroups_.find(ctx);
  if (it == ctxGroups_.end() || localRank < 0 ||
      localRank >= static_cast<int>(it->second.size())) {
    return -1;
  }
  return it->second[static_cast<std::size_t>(localRank)];
}

void WorldChecker::onCollectiveStart(std::uint64_t ctx, int localRank,
                                     std::uint64_t seq, int firstTag,
                                     int tagCount, const CollSignature& sig) {
  support::MutexLock lock(mutex_);
  const int worldRank = worldRankOfLocked(ctx, localRank);

  // Record the issued tags so the send lint accepts this rank's own
  // schedule traffic, and keep reserved blocks in a per-ctx interval list.
  if (sig.kind == CollKind::kReserveTags) {
    for (const ReservedBlock& block : reserved_) {
      if (block.ctx != ctx) continue;
      const bool disjoint = firstTag + tagCount <= block.firstTag ||
                            block.firstTag + block.count <= firstTag;
      if (!disjoint && block.firstTag != firstTag) {
        fail(
            "LISI_COMM_CHECK: reserveCollectiveTags overlap on " +
            ctxNameLocked(ctx) + ": new block [" + std::to_string(firstTag) +
            ", " + std::to_string(firstTag + tagCount) +
            ") collides with live block [" + std::to_string(block.firstTag) +
            ", " + std::to_string(block.firstTag + block.count) +
            ") — the collective tag sequence wrapped its window while the "
            "old reservation was still in use");
      }
    }
    if (std::none_of(reserved_.begin(), reserved_.end(),
                     [&](const ReservedBlock& b) {
                       return b.ctx == ctx && b.firstTag == firstTag;
                     })) {
      reserved_.emplace_back(ctx, firstTag, tagCount);
    }
  } else if (worldRank >= 0) {
    if (tagReservedOnLocked(ctx, firstTag)) {
      fail(
          "LISI_COMM_CHECK: collective tag sequence wrapped into a reserved "
          "block on " +
          ctxNameLocked(ctx) + ": " + describeSignature(sig) +
          " at collective #" + std::to_string(seq) + " drew tag " +
          std::to_string(firstTag) +
          " which belongs to a live reserveCollectiveTags() block");
    }
    auto& ring = recentTags_[static_cast<std::size_t>(worldRank)];
    auto& pos = recentTagPos_[static_cast<std::size_t>(worldRank)];
    for (int i = 0; i < tagCount; ++i) {
      ring[pos % ring.size()] = RecentTag{ctx, firstTag + i};
      ++pos;
    }
  }

  if (worldRank >= 0) {
    auto& hist = history_[static_cast<std::size_t>(worldRank)];
    auto& hpos = historyPos_[static_cast<std::size_t>(worldRank)];
    hist[hpos % hist.size()] = SigRecord{ctx, seq, sig, true};
    ++hpos;
  }

  // Lockstep cross-check: the first rank to reach (ctx, seq) posts its
  // signature; every later arrival must hash identically.
  const std::uint64_t hash = signatureHash(sig, ctx, seq);
  auto [it, inserted] =
      board_.try_emplace(std::make_pair(ctx, seq), BoardEntry{});
  BoardEntry& entry = it->second;
  if (inserted) {
    entry.hash = hash;
    entry.sig = sig;
    entry.firstWorldRank = worldRank;
  } else if (entry.hash != hash) {
    std::ostringstream out;
    out << "LISI_COMM_CHECK: lockstep collective mismatch on "
        << ctxNameLocked(ctx)
        << " at collective #" << seq << ": rank " << localRank << " (world "
        << worldRank << ") called " << describeSignature(sig)
        << " [signature 0x" << std::hex << hash << std::dec << "] but rank "
        << entry.firstWorldRank << " called " << describeSignature(entry.sig)
        << " [signature 0x" << std::hex << entry.hash << std::dec
        << "]; all ranks of a communicator must issue the same collective "
           "sequence";
    if (entry.firstWorldRank >= 0) {
      out << "; " << describeHistoryLocked(entry.firstWorldRank);
    }
    if (worldRank >= 0) out << "; " << describeHistoryLocked(worldRank);
    fail(out.str());
  }
  ++entry.arrived;
  const auto group = ctxGroups_.find(ctx);
  if (group != ctxGroups_.end() &&
      entry.arrived >= static_cast<int>(group->second.size())) {
    board_.erase(it);
  }
}

bool WorldChecker::tagReservedOnLocked(std::uint64_t ctx, int tag) const {
  return std::any_of(reserved_.begin(), reserved_.end(),
                     [&](const ReservedBlock& b) {
                       return b.ctx == ctx && tag >= b.firstTag &&
                              tag < b.firstTag + b.count;
                     });
}

void WorldChecker::onSend(std::uint64_t ctx, int localRank, int worldRank,
                          int dest, int tag) {
  if (tag >= 0 && tag <= maxUserTag_) return;  // user tag space: always legal
  support::MutexLock lock(mutex_);
  // The collective tag window is a per-context session property, so the
  // tag-space bound follows the sending communicator's window, not the
  // world default.
  const int window = windowOfLocked(ctx);
  if (tag > maxUserTag_ + window || tag < 0) {
    fail("LISI_COMM_CHECK: send from rank " + std::to_string(localRank) +
                " to rank " + std::to_string(dest) + " on " +
                ctxNameLocked(ctx) + " uses tag " + std::to_string(tag) +
                " outside the tag space [0, " +
                std::to_string(maxUserTag_ + window) + "] (user tags end at " +
                std::to_string(maxUserTag_) + ")");
  }
  if (tagReservedOnLocked(ctx, tag)) return;  // reserved-block protocol
  const auto& ring = recentTags_[static_cast<std::size_t>(worldRank)];
  if (std::any_of(ring.begin(), ring.end(), [&](const RecentTag& r) {
        return r.ctx == ctx && r.tag == tag;
      })) {
    return;  // this rank's own in-flight collective schedule
  }
  fail(
      "LISI_COMM_CHECK: send from rank " + std::to_string(localRank) +
      " to rank " + std::to_string(dest) + " uses tag " + std::to_string(tag) +
      " which lands in the reserved collective tag space (tags above " +
      std::to_string(maxUserTag_) +
      ") without a reserveCollectiveTags() block — user point-to-point "
      "traffic must stay in [0, " +
      std::to_string(maxUserTag_) + "]");
}

std::string WorldChecker::describeHistoryLocked(int worldRank) const {
  const auto& hist = history_[static_cast<std::size_t>(worldRank)];
  const std::size_t pos = historyPos_[static_cast<std::size_t>(worldRank)];
  std::ostringstream out;
  out << "rank " << worldRank << " history:";
  bool any = false;
  for (std::size_t i = 0; i < hist.size(); ++i) {
    // Oldest first: the ring's next write slot is its oldest entry.
    const SigRecord& rec = hist[(pos + i) % hist.size()];
    if (!rec.valid) continue;
    any = true;
    out << " #" << rec.seq;
    if (rec.ctx != 0) out << "@ctx" << rec.ctx;
    out << ":" << describeSignature(rec.sig);
  }
  if (!any) out << " (none)";
  return out.str();
}

std::string WorldChecker::describeWaitLocked(int worldRank) const {
  const WaitState& w = waits_[static_cast<std::size_t>(worldRank)];
  std::ostringstream out;
  out << "rank " << worldRank << " blocked in " << w.what << " (";
  for (std::size_t i = 0; i < w.needs.size(); ++i) {
    const WaitNeed& need = w.needs[i];
    if (i != 0) out << " | ";
    out << ctxNameLocked(need.ctx) << ", src=";
    if (need.src < 0) {
      out << "any";
    } else {
      out << need.src;
    }
    out << ", tag=";
    if (need.tag < 0) {
      out << "any";
    } else {
      out << need.tag;
      if (tagReservedOnLocked(need.ctx, need.tag)) out << " [reserved block]";
    }
  }
  out << ")";
  return out.str();
}

void WorldChecker::detectDeadlockLocked(int aboutRank,
                                        const std::string& prologue) {
  // Releasability fixpoint: a rank is releasable if it is running (neither
  // blocked nor exited), if a message satisfying its wait is already queued,
  // or if some rank that could produce such a message is itself releasable.
  // Whatever remains is a closed wait set: every member waits on messages
  // only other members (or exited ranks) could send, and none of them will
  // ever run again.  Wildcard sources make this a set-based analysis rather
  // than a single-successor cycle walk, but a two-rank recv/recv cycle is
  // simply the smallest closed set.
  const auto n = static_cast<std::size_t>(worldSize_);
  std::vector<char> releasable(n, 0);
  bool anyBlocked = false;
  for (std::size_t r = 0; r < n; ++r) {
    if (!waits_[r].blocked) {
      releasable[r] = exited_[r] ? 0 : 1;
    } else {
      anyBlocked = true;
      // Probe first, satisfied second — the order is load-bearing.  The
      // waiter dequeues its message and sets `satisfied` inside one mailbox
      // critical section, and the probe locks that same mailbox: if the
      // probe finds the queue empty because the rank just consumed the
      // message, the mutex hand-off guarantees the satisfied store is
      // visible to the load below.  Reading `satisfied` before probing
      // leaves a window (load false -> rank dequeues -> probe sees empty)
      // that condemns a rank which is about to run.
      if (probe_ && probe_(static_cast<int>(r), waits_[r].needs)) {
        releasable[r] = 1;
      } else if (waits_[r].satisfied.load()) {
        releasable[r] = 1;
      }
    }
  }
  if (!anyBlocked) return;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t r = 0; r < n; ++r) {
      if (!waits_[r].blocked || releasable[r]) continue;
      for (const WaitNeed& need : waits_[r].needs) {
        const auto group = ctxGroups_.find(need.ctx);
        if (group == ctxGroups_.end()) continue;
        bool satisfiable = false;
        if (need.src >= 0) {
          const int sender = worldRankOfLocked(need.ctx, need.src);
          satisfiable =
              sender >= 0 && releasable[static_cast<std::size_t>(sender)];
        } else {
          for (const int sender : group->second) {
            if (sender != static_cast<int>(r) &&
                releasable[static_cast<std::size_t>(sender)]) {
              satisfiable = true;
              break;
            }
          }
        }
        if (satisfiable) {
          releasable[r] = 1;
          changed = true;
          break;
        }
      }
    }
  }
  std::vector<int> stuck;
  for (std::size_t r = 0; r < n; ++r) {
    if (waits_[r].blocked && !releasable[r]) stuck.push_back(static_cast<int>(r));
  }
  if (stuck.empty()) return;
  // Last-chance re-verification: the probes above ran one mailbox at a
  // time, so a member may have consumed its message after its own probe
  // but before the fixpoint settled.  Consumption sets `satisfied`, so one
  // more load per member suffices — and a single hit invalidates the whole
  // closed set, because that member will run and can unblock the rest.
  //
  // Memory order (audited): this load must stay seq_cst, matching the
  // seq_cst store in noteWaitSatisfied.  No mutex is shared between this
  // load and that store (the store runs under the waiter's *mailbox* mutex,
  // this loop holds only the checker mutex), so acquire/release would only
  // order the flag against the storer's other writes — it could not
  // guarantee that a store sequenced before the probe's queue observation
  // is seen here.  seq_cst puts the probe's queue read, the waiter's
  // dequeue+store, and this load into one total order, which is exactly
  // the "probe missed it => flag is visible" argument the comment above
  // relies on.
  for (const int r : stuck) {
    if (waits_[static_cast<std::size_t>(r)].satisfied.load()) return;
  }
  if (aboutRank >= 0 &&
      std::find(stuck.begin(), stuck.end(), aboutRank) == stuck.end()) {
    return;  // the registering rank can still be released; let it wait
  }
  std::ostringstream out;
  out << "LISI_COMM_CHECK: deadlock detected (closed wait-for cycle";
  if (!prologue.empty()) out << "; " << prologue;
  out << "): ";
  for (std::size_t i = 0; i < stuck.size(); ++i) {
    if (i != 0) out << "; ";
    out << describeWaitLocked(stuck[i]);
    if (dump_) out << " mailbox[" << dump_(stuck[i]) << "]";
    out << " " << describeHistoryLocked(stuck[i]);
  }
  for (std::size_t r = 0; r < n; ++r) {
    if (exited_[r]) out << "; rank " << r << " already exited";
  }
  fail(out.str());
}

void WorldChecker::beginWait(int worldRank, const char* what,
                             std::vector<WaitNeed> needs) {
  support::MutexLock lock(mutex_);
  WaitState& w = waits_[static_cast<std::size_t>(worldRank)];
  w.blocked = true;
  w.what = what;
  w.needs = std::move(needs);
  w.satisfied.store(false);
  try {
    detectDeadlockLocked(worldRank, "");
  } catch (...) {
    // The throw skips this wait's RAII scope (the scope object never
    // finishes constructing), so un-register here or the rank would read
    // as blocked forever.
    w.blocked = false;
    throw;
  }
}

void WorldChecker::endWait(int worldRank) {
  support::MutexLock lock(mutex_);
  waits_[static_cast<std::size_t>(worldRank)].blocked = false;
}

// NO_THREAD_SAFETY_ANALYSIS: the one sanctioned mutex_-free touch of
// guarded checker state (see the declaration).  Runs under the caller's
// mailbox mutex, where taking mutex_ would invert the documented
// checker -> mailbox lock order; it writes only the per-rank `satisfied`
// atomic, and waits_ itself is sized once in the constructor, so the
// element reference is stable without the lock.
void WorldChecker::noteWaitSatisfied(int worldRank)
    LISI_NO_THREAD_SAFETY_ANALYSIS {
  // seq_cst store, deliberately: the probe-first/satisfied-second protocol
  // in detectDeadlockLocked relies on this store being ordered into the
  // single total order *before* the waiter's message leaves its mailbox
  // queue becomes observable as "consumed" to a later probe.  The store
  // happens inside the mailbox critical section, so the mutex hand-off
  // covers the probe path; the last-chance re-check path reads the flag
  // with NO common lock held, and seq_cst is what makes "probe saw the
  // message missing => this store is visible" a total-order argument
  // rather than a per-mutex one.  Do not relax.
  waits_[static_cast<std::size_t>(worldRank)].satisfied.store(true);
}

void WorldChecker::onRankExit(int worldRank) {
  support::MutexLock lock(mutex_);
  exited_[static_cast<std::size_t>(worldRank)] = true;
  // A rank blocked on a now-exited peer can never be released; sweep on the
  // survivors' behalf so abandonment that strands a peer is diagnosed
  // immediately instead of via the recv timeout.
  detectDeadlockLocked(-1, "rank " + std::to_string(worldRank) + " exited");
}

}  // namespace lisi::comm::check
