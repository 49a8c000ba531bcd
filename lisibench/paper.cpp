// The paper-style workloads: paired port/native solves of the paper's PDE.
#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "backends.hpp"
#include "probes.hpp"
#include "sparse/dist_csr.hpp"
#include "support/rng.hpp"
#include "tune/tune.hpp"
#include "workloads.hpp"

namespace lisibench {
namespace {

using lisi::comm::Comm;
using lisi::comm::World;

struct Spec {
  int gridN = 0;
  std::vector<Backend> backends;
  bool stepping = false;     ///< persistent components + drifting values
  bool parallelEff = false;  ///< traced run adds a native p=1 reference
};

/// Timings of one sample: one port and one native solve per backend.
struct Sample {
  double port = 0.0;  ///< summed over backends
  double native = 0.0;
  std::array<double, kNumBackends> portB{};
  std::array<double, kNumBackends> nativeB{};
  bool traced = false;
};

/// Filled by rank 0 inside the World, read by the main thread after it.
struct Shared {
  std::vector<double> setupSeconds;
  std::vector<Sample> samples;
  std::array<std::vector<double>, kNumBackends> iterations;
  Counters window;  ///< summed over the first kCountSamples samples
  Counters timed;   ///< over the whole timed loop
  SparseProbe sparse;
  CommProbe comm;
  Outcome outcome;
};

/// One rank's persistent components and warm-start vectors (timestep).
struct Steppers {
  std::array<std::unique_ptr<PortStepper>, kNumBackends> port;
  std::array<std::unique_ptr<NativeStepper>, kNumBackends> native;
  std::array<std::vector<double>, kNumBackends> portX;
  std::array<std::vector<double>, kNumBackends> nativeX;
};

/// Arms of every backend of one sample, kept for the oracle.
struct PairResults {
  std::array<ArmResult, kNumBackends> port;
  std::array<ArmResult, kNumBackends> native;
};

/// The system of time step `step`: matrix values scaled by a seeded factor
/// in [0.95, 1.05] and the right-hand side perturbed by up to +-10% per
/// entry.  `stencil` keeps the base values with the same right-hand side,
/// for hymg, which rediscretizes its own operator.
void makeStep(const LocalSystem& base, std::uint64_t seed, int step,
              LocalSystem& scaled, LocalSystem& stencil) {
  lisi::Rng rng(mixSeed(seed, static_cast<std::uint64_t>(step), 1));
  const double factor = 1.0 + 0.05 * rng.uniform(-1.0, 1.0);
  scaled = base;
  for (double& v : scaled.a.values) v *= factor;
  for (std::size_t i = 0; i < scaled.b.size(); ++i) {
    lisi::Rng e(mixSeed(seed, static_cast<std::uint64_t>(step),
                        2 + static_cast<std::uint64_t>(base.startRow) + i));
    scaled.b[i] = base.b[i] * (1.0 + 0.1 * e.uniform(-1.0, 1.0));
  }
  stencil = base;
  stencil.b = scaled.b;
}

/// Seeded rotation of the backends for sample `k`.
std::vector<Backend> rotation(const Spec& spec, std::uint64_t seed, int k) {
  std::vector<Backend> order = spec.backends;
  lisi::Rng rng(mixSeed(seed, static_cast<std::uint64_t>(k), 0));
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  return order;
}

/// Residual and agreement checks of one backend's pair; outside timing.
/// Returns (port ok, native ok).  Collective.
std::pair<bool, bool> checkPair(const Comm& comm,
                                lisi::sparse::DistCsrMatrix& oracle,
                                const LocalSystem& sys, Backend b,
                                const ArmResult& port,
                                const ArmResult& native) {
  oracle.updateValues(sys.a);
  const double limit = backendInfo(b).iterative ? kIterativeResidualLimit
                                                : kDirectResidualLimit;
  const double rp = relResidual(oracle, sys.b, port.x);
  const double rn = relResidual(oracle, sys.b, native.x);
  const double d = relDiff(comm, port.x, native.x);
  return {port.ok && rp <= limit && d <= kAgreementLimit,
          native.ok && rn <= limit};
}

class PaperRun {
 public:
  PaperRun(const Spec& spec, const Options& opt, int ranks)
      : spec_(spec), opt_(opt), ranks_(ranks) {}

  RunResult run();

 private:
  /// Set-up, then (in the last set-up repetition) the timed loop.
  /// Returns true on every rank when this repetition ran the loop.
  bool rankBody(Comm& comm, int rep, const lisi::WallTimer& setupTimer);
  PairResults runSample(const Comm& comm, int k, cca::Framework& fw,
                        Steppers& steppers, const LocalSystem& scaled,
                        const LocalSystem& stencil, Sample& sample);
  void report(RunResult& out) const;

  const Spec spec_;
  const Options opt_;
  const int ranks_;
  Shared shared_;
  double p1NativeSeconds_ = 0.0;

};

PairResults PaperRun::runSample(const Comm& comm, int k, cca::Framework& fw,
                                Steppers& steppers, const LocalSystem& scaled,
                                const LocalSystem& stencil, Sample& sample) {
  PairResults pr;
  const std::vector<Backend> order = rotation(spec_, opt_.seed, k);
  for (std::size_t slot = 0; slot < order.size(); ++slot) {
    const Backend b = order[slot];
    const auto bi = static_cast<std::size_t>(b);
    const LocalSystem& sys = b == Backend::kHymg ? stencil : scaled;
    const auto portArm = [&] {
      if (!spec_.stepping) return portSolveFresh(comm, fw, b, sys);
      return steppers.port[bi]->step(sys, steppers.portX[bi]);
    };
    const auto nativeArm = [&] {
      if (!spec_.stepping) return nativeSolveFresh(comm, b, sys);
      return steppers.native[bi]->step(sys, steppers.nativeX[bi]);
    };
    const bool portFirst =
        (static_cast<std::uint64_t>(k) + slot + opt_.seed) % 2 == 0;
    if (portFirst) {
      pr.port[bi] = portArm();
      pr.native[bi] = nativeArm();
    } else {
      pr.native[bi] = nativeArm();
      pr.port[bi] = portArm();
    }
    sample.portB[bi] = pr.port[bi].seconds;
    sample.nativeB[bi] = pr.native[bi].seconds;
    sample.port += pr.port[bi].seconds;
    sample.native += pr.native[bi].seconds;
  }
  return pr;
}

bool PaperRun::rankBody(Comm& comm, int rep,
                        const lisi::WallTimer& setupTimer) {
  const bool root = comm.rank() == 0;
  trace::beginGroup(trace::setupGroup(rep), opt_.traced);
  const LocalSystem base = assemblePaper(comm, spec_.gridN);
  lisi::sparse::DistCsrMatrix oracle(comm, base.globalN, base.globalN,
                                     base.startRow, base.a);
  cca::Framework fw;
  Steppers steppers;  // destroyed before fw, which owns the components
  LocalSystem scaled = base;
  LocalSystem stencil = base;

  // Warm-up: one pair per backend builds the halo plans, preconditioners,
  // factors and hierarchies and fills the tuner's cache.
  if (spec_.stepping) {
    for (const Backend b : spec_.backends) {
      const auto bi = static_cast<std::size_t>(b);
      steppers.port[bi] = std::make_unique<PortStepper>(comm, fw, b, base);
      steppers.native[bi] = std::make_unique<NativeStepper>(comm, b, base);
      steppers.portX[bi].assign(static_cast<std::size_t>(base.a.rows), 0.0);
      steppers.nativeX[bi].assign(static_cast<std::size_t>(base.a.rows), 0.0);
    }
  }
  {
    Sample warm;
    const PairResults pr = runSample(comm, -1, fw, steppers, base, base, warm);
    for (const Backend b : spec_.backends) {
      const auto bi = static_cast<std::size_t>(b);
      const auto [pOk, nOk] =
          checkPair(comm, oracle, base, b, pr.port[bi], pr.native[bi]);
      if (root) {
        shared_.outcome.check(pOk && nOk, std::string("warm-up ") +
                                              backendInfo(b).name);
      }
    }
  }
  comm.barrier();
  if (root) shared_.setupSeconds.push_back(setupTimer.seconds());
  const bool last =
      comm.bcastValue(root && setupDone(shared_.setupSeconds) ? 1 : 0, 0) != 0;

  if (last) {
    const lisi::WallTimer loop;
    Counters timedStart;
    snapshotCounters(comm, timedStart);
    int k = 0;
    while (keepGoing(comm, loop, opt_.seconds, k)) {
      Sample sample;
      // Traced and untraced samples alternate in pairs, so each kind sees
      // both arm orders.
      sample.traced = opt_.traced && (k / 2) % 2 == 0;
      trace::beginGroup(k, sample.traced);
      if (spec_.stepping) makeStep(base, opt_.seed, k, scaled, stencil);
      Counters before;
      Counters after;
      if (k < kCountSamples) snapshotCounters(comm, before);
      const PairResults pr =
          runSample(comm, k, fw, steppers, scaled, stencil, sample);
      if (k < kCountSamples) snapshotCounters(comm, after);
      for (const Backend b : spec_.backends) {
        const auto bi = static_cast<std::size_t>(b);
        const LocalSystem& sys = b == Backend::kHymg ? stencil : scaled;
        const auto [pOk, nOk] =
            checkPair(comm, oracle, sys, b, pr.port[bi], pr.native[bi]);
        if (!root) continue;
        const std::string what = std::string(backendInfo(b).name) +
                                 " sample " + std::to_string(k);
        shared_.outcome.solve(pOk, what + " port");
        shared_.outcome.solve(nOk, what + " native");
        if (k < kCountSamples) {
          shared_.iterations[bi].push_back(pr.port[bi].iterations);
        }
      }
      if (root) {
        if (k < kCountSamples) shared_.window += after.minus(before);
        shared_.samples.push_back(sample);
      }
      ++k;
    }
    Counters timedEnd;
    snapshotCounters(comm, timedEnd);
    if (root) shared_.timed = timedEnd.minus(timedStart);

    if (opt_.traced) {
      trace::beginGroup(trace::kProbeGroup, true);
      const SparseProbe sp = probeSparse(comm, base);
      const CommProbe cp = probeComm(comm);
      if (root) {
        shared_.sparse = sp;
        shared_.comm = cp;
      }
    }
  }
  return last;
}

RunResult PaperRun::run() {
  bool timed = false;
  for (int rep = 0; !timed; ++rep) {
    // Every set-up pays the tuner probing a fresh process pays.
    lisi::tune::clearCacheForTest();
    const lisi::WallTimer setupTimer;
    World::run(ranks_, [&](Comm& comm) {
      const bool last = rankBody(comm, rep, setupTimer);
      if (comm.rank() == 0) timed = last;
    });
    releaseFreedMemory();
  }
  if (spec_.parallelEff && opt_.traced) {
    // Native p=1 reference for the parallel efficiency (traced run only:
    // one serial solve of the large grid costs seconds).
    World::run(1, [&](Comm& comm) {
      trace::beginGroup(trace::kProbeGroup, false);
      const LocalSystem sys = assemblePaper(comm, spec_.gridN);
      const ArmResult r = nativeSolveFresh(comm, Backend::kPksp, sys);
      shared_.outcome.check(r.ok, "native p=1 reference solve");
      p1NativeSeconds_ = r.seconds;
    });
  }
  RunResult out;
  out.outcome = shared_.outcome;
  report(out);
  return out;
}

void PaperRun::report(RunResult& out) const {
  Report& r = out.report;
  const auto& samples = shared_.samples;
  std::vector<double> port;
  std::vector<double> native;
  std::vector<double> ratio;
  std::vector<double> tracedPort;
  std::vector<double> throughput;
  const auto nBackends = static_cast<double>(spec_.backends.size());
  for (const Sample& s : samples) {
    if (s.traced) {
      tracedPort.push_back(s.port);
      continue;
    }
    port.push_back(s.port);
    native.push_back(s.native);
    ratio.push_back(s.port / s.native);
    throughput.push_back(nBackends / s.port);
  }
  r.set("solve_s.p50", median(port), "s");
  if (port.size() >= 100) r.set("solve_s.p90", quantile(port, 0.9), "s");
  r.set("native_s.p50", median(native), "s");
  r.set("port_ratio", median(ratio), "ratio");
  r.set("setup_s", median(shared_.setupSeconds), "s");
  r.set("solves_per_s", median(throughput), "1/s");
  r.set("samples", static_cast<double>(port.size()), "count");

  for (const Backend b : spec_.backends) {
    const auto bi = static_cast<std::size_t>(b);
    const std::string name = backendInfo(b).name;
    std::vector<double> br;
    for (const Sample& s : samples) br.push_back(s.portB[bi] / s.nativeB[bi]);
    r.set(name + ".port_ratio", median(br), "ratio");
    if (b == Backend::kHymg) {
      r.set("hymg.cycles", median(shared_.iterations[bi]), "count");
    } else if (b != Backend::kSlu) {
      r.set(name + ".iterations", median(shared_.iterations[bi]), "count");
    }
  }
  const double perSample = 1.0 / kCountSamples;
  const Counters& w = shared_.window;
  r.set("tune.cache_hits", static_cast<double>(w.tuneCacheHits) * perSample,
        "count");
  r.set("prec.bytes_high", static_cast<double>(w.bytesHigh) * perSample,
        "bytes");
  r.set("sparse.halo_plan_builds",
        static_cast<double>(w.haloPlanBuilds) * perSample, "count");
  r.set("sparse.value_updates",
        static_cast<double>(w.valueUpdates) * perSample, "count");
  const bool hasSlu = std::find(spec_.backends.begin(), spec_.backends.end(),
                                Backend::kSlu) != spec_.backends.end();
  if (hasSlu) {
    r.set("slu.symbolic_factorizations",
          static_cast<double>(w.sluSymbolic) * perSample, "count");
    r.set("slu.numeric_refactorizations",
          static_cast<double>(w.sluNumeric) * perSample, "count");
  }
  r.set("tune.probe_measurements",
        static_cast<double>(shared_.timed.tuneProbes), "count");
  out.outcome.check(shared_.timed.tuneProbes == 0,
                    "tuner probed inside the timed region");

  if (opt_.traced) {
    reportProbes(r, shared_.sparse, shared_.comm);
    const double untraced = median(port);
    r.set("trace.overhead_pct",
          100.0 * (median(tracedPort) - untraced) / untraced, "%");
    if (spec_.parallelEff) {
      r.set("pksp.parallel_eff",
            p1NativeSeconds_ / (ranks_ * median(native)), "ratio");
    }
  }
}

}  // namespace

RunResult runPaperLarge(const Options& opt, int ranks) {
  return PaperRun({300, {Backend::kPksp}, false, true}, opt, ranks).run();
}

RunResult runPaperSmall(const Options& opt, int ranks) {
  return PaperRun({63,
                   {Backend::kPksp, Backend::kAztec, Backend::kSlu,
                    Backend::kHymg},
                   false, false},
                  opt, ranks)
      .run();
}

RunResult runTimestep(const Options& opt, int ranks) {
  return PaperRun({127,
                   {Backend::kPksp, Backend::kAztec, Backend::kSlu,
                    Backend::kHymg},
                   true, false},
                  opt, ranks)
      .run();
}

}  // namespace lisibench
