#include "tune/tune.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>

#include "obs/obs.hpp"
#include "support/thread_annotations.hpp"
#include "support/timer.hpp"

namespace lisi::tune {

namespace {

// Counters count per calling rank-thread (MiniMPI ranks are threads of one
// process): a world of p ranks bumps each by p per event.  Tests assert
// exact deltas with that multiplicity.
struct AtomicStats {
  std::atomic<long long> cacheHits{0};
  std::atomic<long long> cacheMisses{0};
  std::atomic<long long> retunes{0};
  std::atomic<long long> probeMeasurements{0};
  std::atomic<long long> budgetSkips{0};
  std::atomic<long long> autoSkips{0};
};
AtomicStats g_stats;

support::AnnotatedMutex g_cacheMutex;
/// Process-wide decision cache behind g_cacheMutex.  The REQUIRES contract
/// (not a lazy lock inside) keeps the lookup+insert sequences in decide()
/// atomic under one hold of the mutex.
std::map<OperatorKey, Decision>& cache() LISI_REQUIRES(g_cacheMutex) {
  static std::map<OperatorKey, Decision> c;
  return c;
}

// Schedule probe: kScheduleBlocks blocks of kScheduleReps allreduces per
// family, best block kept (the minimum filters scheduler noise on
// oversubscribed hosts), then a max-reduction picks the slowest rank — the
// one that gates the solve.
constexpr int kScheduleReps = 8;
constexpr int kScheduleBlocks = 4;
// A challenger must beat the default family by this margin before the
// tuner deviates from it.  Probes are short; without a deadband a few
// percent of scheduler noise could pin a genuinely slower family, and the
// default must stay the safe answer ("tuned never worse").
constexpr double kMinGain = 0.05;

/// Measure the collective schedule families on the solve's dot/allreduce
/// pattern and pin the winner for this communicator context.
comm::CollectiveSchedule probeSchedule(const TuneInput& in) {
  if (in.comm.size() == 1) return comm::CollectiveSchedule::kAuto;
  obs::Span span("tune.probe.schedule");
  // The family kAuto would resolve to is the default and is measured first;
  // the other family must clear the kMinGain deadband to displace it.
  const bool defTree = comm::detail::useTreeSchedule(in.comm.size());
  const comm::CollectiveSchedule families[] = {
      defTree ? comm::CollectiveSchedule::kTree
              : comm::CollectiveSchedule::kStar,
      defTree ? comm::CollectiveSchedule::kStar
              : comm::CollectiveSchedule::kTree};
  comm::CollectiveSchedule winner = families[0];
  double defaultTime = std::numeric_limits<double>::infinity();
  double winnerTime = std::numeric_limits<double>::infinity();
  for (int fi = 0; fi < 2; ++fi) {
    in.comm.pinCollectiveSchedule(families[fi]);  // barriers internally
    (void)in.comm.allreduceValue(1.0, comm::ReduceOp::kSum);  // warm
    double local = std::numeric_limits<double>::infinity();
    for (int block = 0; block < kScheduleBlocks; ++block) {
      WallTimer timer;
      for (int rep = 0; rep < kScheduleReps; ++rep) {
        (void)in.comm.allreduceValue(1.0, comm::ReduceOp::kSum);
      }
      local = std::min(local, timer.seconds());
    }
    g_stats.probeMeasurements.fetch_add(kScheduleReps * kScheduleBlocks,
                                        std::memory_order_relaxed);
    obs::count("tune.probe_measurements", kScheduleReps * kScheduleBlocks);
    const double t = in.comm.allreduceValue(local, comm::ReduceOp::kMax);
    if (fi == 0) {
      defaultTime = t;
      winnerTime = t;
    } else if (t < defaultTime * (1.0 - kMinGain) && t < winnerTime) {
      winnerTime = t;
      winner = families[fi];
    }
  }
  in.comm.pinCollectiveSchedule(winner);
  return winner;
}

/// Apply a cached decision: pin the schedule only if it differs from the
/// current pin (the pin is shared world state, so every rank reads the same
/// value and takes the same branch).
void applyDecision(const TuneInput& in, const Decision& d) {
  if (d.schedule != comm::CollectiveSchedule::kAuto &&
      in.comm.pinnedCollectiveSchedule() != d.schedule) {
    in.comm.pinCollectiveSchedule(d.schedule);
  }
}

}  // namespace

Mode modeFromString(const std::string& s, Mode fallback) {
  std::string t;
  for (const char c : s) {
    t.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (t == "off") return Mode::kOff;
  if (t == "on") return Mode::kOn;
  if (t == "auto") return Mode::kAuto;
  return fallback;
}

Mode modeFromEnv() {
  // Read fresh each call (no static cache): the verify suite flips LISI_TUNE
  // between in-process worlds.
  if (const char* env = std::getenv("LISI_TUNE")) {
    return modeFromString(env, Mode::kAuto);
  }
  return Mode::kAuto;
}

const char* modeName(Mode m) {
  switch (m) {
    case Mode::kOff: return "off";
    case Mode::kOn: return "on";
    case Mode::kAuto: return "auto";
  }
  return "?";
}

Stats stats() {
  Stats s;
  s.cacheHits = g_stats.cacheHits.load(std::memory_order_relaxed);
  s.cacheMisses = g_stats.cacheMisses.load(std::memory_order_relaxed);
  s.retunes = g_stats.retunes.load(std::memory_order_relaxed);
  s.probeMeasurements =
      g_stats.probeMeasurements.load(std::memory_order_relaxed);
  s.budgetSkips = g_stats.budgetSkips.load(std::memory_order_relaxed);
  s.autoSkips = g_stats.autoSkips.load(std::memory_order_relaxed);
  return s;
}

void resetStatsForTest() {
  g_stats.cacheHits.store(0);
  g_stats.cacheMisses.store(0);
  g_stats.retunes.store(0);
  g_stats.probeMeasurements.store(0);
  g_stats.budgetSkips.store(0);
  g_stats.autoSkips.store(0);
}

void clearCacheForTest() {
  support::MutexLock lock(g_cacheMutex);
  cache().clear();
}

void noteReplayHit() {
  g_stats.cacheHits.fetch_add(1, std::memory_order_relaxed);
  obs::count("tune.cache_hit");
}

Decision tuneOperator(const TuneInput& in) {
  LISI_CHECK(in.mode != Mode::kOff, "tuneOperator: called with tuning off");

  if (autoSkips(in.mode, in.globalNnz)) {
    // Too small for the decision to matter: the probe itself would cost
    // more than it could ever recoup.  Leave the default schedule in place.
    g_stats.autoSkips.fetch_add(1, std::memory_order_relaxed);
    obs::count("tune.auto_skip");
    return Decision{};
  }

  // Cache lookup under collective agreement.  Program order makes every
  // rank-thread see the same cache state here, but the min-reduction also
  // *verifies* it: a divergent hit/miss would otherwise desynchronize the
  // collective probing below.
  Decision cached;
  int hitLocal = 0;
  {
    support::MutexLock lock(g_cacheMutex);
    const auto it = cache().find(in.key);
    if (it != cache().end()) {
      hitLocal = 1;
      cached = it->second;
    }
  }
  const int hit = in.comm.allreduceValue(hitLocal, comm::ReduceOp::kMin);
  if (hit == 1) {
    applyDecision(in, cached);
    g_stats.cacheHits.fetch_add(1, std::memory_order_relaxed);
    obs::count("tune.cache_hit");
    return cached;
  }
  g_stats.cacheMisses.fetch_add(1, std::memory_order_relaxed);
  obs::count("tune.cache_miss");

  if (in.structureChanged && in.retunesSoFar >= in.retuneBudget) {
    // Budget exhausted: keep the component responsive by running the new
    // structure on the current schedule instead of stalling the time loop on
    // yet another probe.  Not cached — the structure was never measured.
    g_stats.budgetSkips.fetch_add(1, std::memory_order_relaxed);
    obs::count("tune.budget_skip");
    return Decision{};
  }
  if (in.structureChanged) {
    g_stats.retunes.fetch_add(1, std::memory_order_relaxed);
    obs::count("tune.retune");
  }

  obs::Span span("tune.probe", static_cast<std::uint64_t>(in.globalNnz));
  Decision d;
  d.schedule = probeSchedule(in);
  d.probed = true;
  {
    support::MutexLock lock(g_cacheMutex);
    cache().emplace(in.key, d);
  }
  return d;
}

}  // namespace lisi::tune
