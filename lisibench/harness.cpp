#include "harness.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>

#include "slu/slu.hpp"
#include "support/prec.hpp"
#include "support/rng.hpp"
#include "tune/tune.hpp"

namespace lisibench {

void Outcome::solve(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (messages.size() < 16) messages.push_back("solve failed: " + what);
  }
}

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  checksPassed = false;
  if (messages.size() < 16) messages.push_back("check failed: " + what);
}

bool setupDone(const std::vector<double>& setupSeconds) {
  double total = 0.0;
  for (const double t : setupSeconds) total += t;
  const auto reps = static_cast<int>(setupSeconds.size());
  return reps >= kMaxSetupReps ||
         (reps >= kMinSetupReps && total >= kSetupBudgetSeconds);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  lisi::Rng rng(seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
                (b * 0xc2b2ae3d27d4eb4fULL));
  return rng.next();
}

bool keepGoing(const lisi::comm::Comm& comm, const lisi::WallTimer& loop,
               double seconds, int samplesDone) {
  int more = 0;
  if (comm.rank() == 0) {
    more = (samplesDone < kCountSamples || loop.seconds() < seconds) ? 1 : 0;
  }
  return comm.bcastValue(more, 0) != 0;
}

Counters Counters::now() {
  Counters c;
  const lisi::tune::Stats tune = lisi::tune::stats();
  c.tuneProbes = tune.probeMeasurements;
  c.tuneCacheHits = tune.cacheHits;
  c.bytesHigh = lisi::prec::stats().bytesHigh;
  c.haloPlanBuilds = lisi::sparse::haloPlanBuilds();
  c.valueUpdates = lisi::sparse::valueUpdates();
  c.sluSymbolic = slu::symbolicFactorizations();
  c.sluNumeric = slu::numericRefactorizations();
  return c;
}

Counters Counters::minus(const Counters& e) const {
  Counters d = *this;
  d.tuneProbes -= e.tuneProbes;
  d.tuneCacheHits -= e.tuneCacheHits;
  d.bytesHigh -= e.bytesHigh;
  d.haloPlanBuilds -= e.haloPlanBuilds;
  d.valueUpdates -= e.valueUpdates;
  d.sluSymbolic -= e.sluSymbolic;
  d.sluNumeric -= e.sluNumeric;
  return d;
}

Counters& Counters::operator+=(const Counters& o) {
  tuneProbes += o.tuneProbes;
  tuneCacheHits += o.tuneCacheHits;
  bytesHigh += o.bytesHigh;
  haloPlanBuilds += o.haloPlanBuilds;
  valueUpdates += o.valueUpdates;
  sluSymbolic += o.sluSymbolic;
  sluNumeric += o.sluNumeric;
  return *this;
}

void snapshotCounters(const lisi::comm::Comm& comm, Counters& out) {
  comm.barrier();
  if (comm.rank() == 0) out = Counters::now();
  comm.barrier();
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void releaseFreedMemory() { malloc_trim(0); }

double relResidual(const lisi::sparse::DistCsrMatrix& a,
                   std::span<const double> b, std::span<const double> x) {
  std::vector<double> r(b.size());
  a.spmv(x, std::span<double>(r));
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  const double rn = lisi::sparse::distNorm2(a.comm(), r);
  const double bn = lisi::sparse::distNorm2(a.comm(), b);
  return bn > 0.0 ? rn / bn : rn;
}

double relDiff(const lisi::comm::Comm& comm, std::span<const double> x,
               std::span<const double> y) {
  std::array<double, 2> local{0.0, 0.0};
  for (std::size_t i = 0; i < x.size() && i < y.size(); ++i) {
    const double d = std::abs(x[i] - y[i]);
    local[0] = std::isnan(d) ? HUGE_VAL : std::max(local[0], d);
    local[1] = std::max(local[1], std::abs(y[i]));
  }
  if (x.size() != y.size()) local[0] = HUGE_VAL;
  std::array<double, 2> global{};
  comm.allreduce(std::span<const double>(local), std::span<double>(global),
                 lisi::comm::ReduceOp::kMax);
  return global[1] > 0.0 ? global[0] / global[1] : global[0];
}

}  // namespace lisibench
