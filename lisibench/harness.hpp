// Shared machinery of the LISI benchmark: run options, the metric report,
// failure accounting, the timing protocol and the correctness oracle.
//
// Timing protocol.  Every timed region starts at a barrier of the
// communicator that runs it and ends at the maximum elapsed time over its
// ranks (the time the last rank is done, which is when the caller has its
// answer).  One World is started per set-up repetition and the timed loop
// runs in the last one, so no timed sample pays thread start-up.  Port and
// native arms alternate which runs first.  Warm-up happens in set-up, and
// the tuner's probe counter must not move inside the timed region.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "sparse/dist_csr.hpp"
#include "support/timer.hpp"
#include "trace.hpp"

namespace lisibench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string traceFile;  ///< Chrome trace output (traced mode), may be empty
};

/// Set-up is repeated (each time in a fresh World, with an empty tuner
/// cache) and setup_s is the median: at least kMinSetupReps times, and
/// more, up to kMaxSetupReps, until kSetupBudgetSeconds have been spent, so
/// a short set-up is sampled as often as a long one is steady.
inline constexpr int kMinSetupReps = 3;
inline constexpr int kMaxSetupReps = 9;
inline constexpr double kSetupBudgetSeconds = 2.0;
[[nodiscard]] bool setupDone(const std::vector<double>& setupSeconds);
/// Timed samples every run makes even when --seconds is shorter; the exact
/// counts are taken over exactly this many leading samples, so they repeat
/// for a seed whatever the host speed.
inline constexpr int kCountSamples = 4;

/// Name -> (value, unit) of everything a run measured.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  [[nodiscard]] const std::map<std::string, std::pair<double, std::string>>&
  metrics() const {
    return metrics_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// Solves attempted and failed, plus the first few failure descriptions.
struct Outcome {
  long long attempted = 0;
  long long failed = 0;
  bool checksPassed = true;  ///< false when a run-level check failed
  std::vector<std::string> messages;

  void solve(bool ok, const std::string& what);
  void check(bool ok, const std::string& what);
};

/// Everything a workload produces.
struct RunResult {
  Report report;
  Outcome outcome;
};

// ---- statistics ----------------------------------------------------------

[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// A deterministic 64-bit mix of the run seed with up to two indices; every
/// rank computes the same stream from it.
[[nodiscard]] std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t a,
                                    std::uint64_t b = 0);

// ---- timing --------------------------------------------------------------

/// Barrier, run `fn` inside a span, return the maximum elapsed seconds over
/// the ranks of `comm`.  Collective.
template <class Fn>
double timedMax(const lisi::comm::Comm& comm, const char* span, Fn&& fn) {
  comm.barrier();
  const lisi::WallTimer timer;
  {
    const trace::Span s(span);
    fn();
  }
  const double local = timer.seconds();
  return comm.allreduceValue(local, lisi::comm::ReduceOp::kMax);
}

/// Rank 0 decides whether the timed loop goes on; every rank gets the same
/// answer.  Collective.
[[nodiscard]] bool keepGoing(const lisi::comm::Comm& comm,
                             const lisi::WallTimer& loop, double seconds,
                             int samplesDone);

/// Process-wide library counters whose deltas the benchmark reports.
struct Counters {
  long long tuneProbes = 0;
  long long tuneCacheHits = 0;
  long long bytesHigh = 0;
  long long haloPlanBuilds = 0;
  long long valueUpdates = 0;
  long long sluSymbolic = 0;
  long long sluNumeric = 0;

  [[nodiscard]] static Counters now();
  [[nodiscard]] Counters minus(const Counters& earlier) const;
  Counters& operator+=(const Counters& other);
};

/// Bracket a region of a collective loop for Counters: all ranks are
/// between the same two barriers when rank 0 reads the counters.
/// Collective.
void snapshotCounters(const lisi::comm::Comm& comm, Counters& out);

/// Peak resident set size of the process in MB.
[[nodiscard]] double peakRssMb();

/// Return the heap the last set-up repetition freed to the system, so the
/// peak resident set is one set-up's footprint and not the allocator's
/// history: each repetition's rank threads may draw on other malloc arenas.
void releaseFreedMemory();

// ---- correctness oracle -------------------------------------------------

/// Relative residual ||b - A x|| / ||b|| through DistCsrMatrix::spmv.
/// Collective.
[[nodiscard]] double relResidual(const lisi::sparse::DistCsrMatrix& a,
                                 std::span<const double> b,
                                 std::span<const double> x);

/// max|x - y| / max|y| over all ranks.  Collective.
[[nodiscard]] double relDiff(const lisi::comm::Comm& comm,
                             std::span<const double> x,
                             std::span<const double> y);

/// Oracle limits.  Iterative backends stop on rtol 1e-6 of their own
/// residual measure, so the true residual is allowed a margin; port and
/// native runs of one package must agree far more tightly than that.
inline constexpr double kIterativeResidualLimit = 1e-4;
inline constexpr double kDirectResidualLimit = 1e-10;
inline constexpr double kAgreementLimit = 1e-6;

}  // namespace lisibench
