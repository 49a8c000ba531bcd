// lisi::tune — structure-fingerprint-keyed autotuner.
//
// On the first solve for a structural fingerprint the tuner micro-benchmarks
// the collective schedule family (kTree vs kStar, pinned per-World through
// Comm::pinCollectiveSchedule) on the solve's allreduce pattern, then
// records the winner in a process-wide cache keyed by the *global* operator
// structure.  SpMV has no decision to make: DistCsrMatrix runs one path.
// Every later solve that presents the same fingerprint — kSameOperator or
// kSameStructure under the operator change contract — replays the cached
// decision with zero probe measurements; kNewStructure invalidates and
// retunes, bounded per solver component by a retune budget so time-stepping
// loops with evolving meshes cannot stall on endless probing.
//
// The cache is process-wide on purpose: MiniMPI ranks are threads of one
// process and every rank executes tuneOperator() at the same point of its
// program, so hit/miss outcomes agree by program order.  The key includes a
// sum-reduction of the per-rank fingerprints, making it a property of the
// distributed operator, not of one rank's block.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

#include "comm/comm.hpp"

namespace lisi::tune {

/// Tuning policy.  kOff: never probe, never touch the schedule pin
/// (pre-tuner behavior).  kOn: probe every structure regardless of size.
/// kAuto: probe only operators big enough for the decision to matter (small
/// ones keep the default schedule; the probe would cost more than it ever
/// saves).
enum class Mode { kOff, kOn, kAuto };

/// Parse "off"/"on"/"auto" (case-insensitive); anything else -> fallback.
[[nodiscard]] Mode modeFromString(const std::string& s, Mode fallback);

/// Policy from the LISI_TUNE environment variable (default kAuto).
[[nodiscard]] Mode modeFromEnv();

[[nodiscard]] const char* modeName(Mode m);

/// Global operator identity: the kSum-allreduce of the per-rank structural
/// fingerprints (a word-wise FNV-1a of each block) plus the communicator
/// size.
struct OperatorKey {
  std::uint64_t fingerprint = 0;
  int ranks = 0;
  friend auto operator<=>(const OperatorKey&, const OperatorKey&) = default;
};

/// A complete tuning decision.
struct Decision {
  comm::CollectiveSchedule schedule = comm::CollectiveSchedule::kAuto;
  bool probed = false;  ///< measured now (false: cache replay or fallback)
};

/// Process-wide tuner counters.  Always maintained (unlike obs counters,
/// which compile out when LISI_OBS=OFF) so tests can assert exact values in
/// every build flavor.  Mirrored into obs as tune.cache_hit / tune.cache_miss
/// / tune.retune / tune.probe_measurements when obs is enabled.
struct Stats {
  long long cacheHits = 0;          ///< decision replayed from the cache
  long long cacheMisses = 0;        ///< fingerprint not in the cache
  long long retunes = 0;            ///< probe triggered by kNewStructure
  long long probeMeasurements = 0;  ///< individual timed probe repetitions
  long long budgetSkips = 0;        ///< retune suppressed by the budget
  long long autoSkips = 0;          ///< kAuto left a small operator untuned
};
[[nodiscard]] Stats stats();

/// Test hooks: zero the counters / drop every cached decision.
void resetStatsForTest();
void clearCacheForTest();

/// Everything tuneOperator needs.  `key` is the collectively agreed
/// OperatorKey; `structureChanged` true when this component had already tuned
/// an earlier structure (the kNewStructure path, charged against the budget).
struct TuneInput {
  comm::Comm comm;
  OperatorKey key;
  long long globalNnz = 0;
  Mode mode = Mode::kAuto;
  bool structureChanged = false;
  int retunesSoFar = 0;
  int retuneBudget = 4;
};

/// kAuto probes only operators with at least this many global nonzeros.
inline constexpr long long kAutoMinGlobalNnz = 1 << 15;

/// Whether `mode` leaves an operator of `globalNnz` nonzeros untuned (the
/// kAuto size gate).  Callers that know it need no key: tuneOperator then
/// only counts the skip, without communicating.
[[nodiscard]] inline bool autoSkips(Mode mode, long long globalNnz) {
  return mode == Mode::kAuto && globalNnz < kAutoMinGlobalNnz;
}

/// Look up or measure the decision for `in.key` and pin its schedule on the
/// communicator's context.  Collective: every rank of in.comm must call
/// together with the same key.  Never probes on a cache hit; honors mode
/// and the retune budget as documented on Mode/TuneInput.
Decision tuneOperator(const TuneInput& in);

/// Record a replay on the solver fast path (structure epoch unchanged, no
/// cache lookup or communication needed).  Purely local.
void noteReplayHit();

}  // namespace lisi::tune
