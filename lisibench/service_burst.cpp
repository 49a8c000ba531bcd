// service_burst: a closed-loop client against SolverService, paired with
// the same requests solved natively.
//
// Service arm: one client thread keeps kOutstanding requests in flight
// against a SolverService of two 2-rank sessions (batch window 4); each
// completed request is replaced by the next one of the burst.  Requests
// interleave two operators of different size and pattern — the paper PDE
// on 63^2 and the 5-point Laplacian on 32^2 — with right-hand sides from a
// seeded pool, all on pksp GMRES(30)+ILU(0) at rtol 1e-6.
//
// Native arm: the same burst solved by calling pksp directly, one
// KSPSolve per request on the same two 2-rank session communicators with
// the operator and preconditioner already built.  Its solutions are the
// reference every service lane is checked against.
#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "backends.hpp"
#include "mesh/pde5pt.hpp"
#include "pksp/pksp.hpp"
#include "probes.hpp"
#include "service/service.hpp"
#include "sparse/generate.hpp"
#include "sparse/ops.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace lisibench {
namespace {

using lisi::comm::Comm;
using lisi::comm::ReduceOp;
using lisi::comm::World;
using lisi::service::SolveRequest;
using lisi::service::SolveResult;
using lisi::service::SolverService;

constexpr int kOutstanding = 8;  ///< closed-loop window K
constexpr int kBurst = 32;       ///< requests per sample
constexpr int kRhsPool = 8;      ///< right-hand sides per operator
constexpr int kBatchWindow = 4;
constexpr double kTol = 1e-6;
constexpr int kMaxIts = 10000;
constexpr int kRestart = 30;

struct Operator {
  std::shared_ptr<lisi::sparse::CsrMatrix> a;
  std::vector<std::vector<double>> rhs;
};

struct Request {
  int op = 0;
  int rhs = 0;
};

/// One request's outcome in one arm.
struct Lane {
  double seconds = 0.0;  ///< service: submit to result; native: KSPSolve
  bool ok = false;
  int iterations = 0;
  std::vector<double> x;  ///< global solution
  // Service arm only.
  double queueSeconds = 0.0;
  double serveSeconds = 0.0;
};

struct Burst {
  double wall = 0.0;
  std::vector<Lane> lanes;
};

std::vector<Operator> makeOperators(std::uint64_t seed) {
  std::vector<Operator> ops(2);
  {
    const trace::Span span("mesh.assemble");
    lisi::mesh::Pde5ptSpec spec;
    spec.gridN = 63;
    lisi::mesh::Pde5ptLocalSystem sys = lisi::mesh::assembleGlobal(spec);
    ops[0].a = std::make_shared<lisi::sparse::CsrMatrix>(std::move(sys.localA));
    lisi::Rng rng(mixSeed(seed, 100));
    for (int k = 0; k < kRhsPool; ++k) {
      std::vector<double> b = sys.localB;
      for (double& v : b) v *= 1.0 + 0.1 * rng.uniform(-1.0, 1.0);
      ops[0].rhs.push_back(std::move(b));
    }
  }
  ops[1].a = std::make_shared<lisi::sparse::CsrMatrix>(
      lisi::sparse::laplacian2d(32, 32));
  lisi::Rng rng(mixSeed(seed, 101));
  for (int k = 0; k < kRhsPool; ++k) {
    std::vector<double> b(static_cast<std::size_t>(ops[1].a->rows));
    for (double& v : b) v = rng.uniform(0.5, 1.5);
    ops[1].rhs.push_back(std::move(b));
  }
  return ops;
}

/// A burst: kBurst - kBurst/4 requests on the PDE operator and kBurst/4 on
/// the Laplacian, in a seeded order with seeded right-hand sides.  The
/// fixed 3:1 share keeps the medians inside the PDE's mode instead of
/// letting the seed move them between the two operators' solve times.
std::vector<Request> burstMix(std::uint64_t seed, int burst) {
  lisi::Rng rng(mixSeed(seed, static_cast<std::uint64_t>(burst + 1), 7));
  std::vector<Request> reqs(kBurst);
  for (std::size_t j = 0; j < reqs.size(); ++j) {
    reqs[j].op = j < kBurst / 4 ? 1 : 0;
    reqs[j].rhs = static_cast<int>(rng.below(kRhsPool));
  }
  for (std::size_t i = reqs.size(); i > 1; --i) {
    std::swap(reqs[i - 1], reqs[rng.below(i)]);
  }
  return reqs;
}

SolveRequest makeRequest(const std::vector<Operator>& ops, const Request& r) {
  SolveRequest req;
  req.matrix = ops[static_cast<std::size_t>(r.op)].a;
  req.rhs = ops[static_cast<std::size_t>(r.op)]
                .rhs[static_cast<std::size_t>(r.rhs)];
  req.backend = "pksp";
  req.operatorId = static_cast<std::uint64_t>(r.op) + 1;
  req.stringParams = {{"solver", "gmres"}, {"preconditioner", "ilu"}};
  req.intParams = {{"maxits", kMaxIts}, {"restart", kRestart}};
  req.doubleParams = {{"tol", kTol}};
  return req;
}

Burst serviceBurst(SolverService& svc, const std::vector<Operator>& ops,
                   const std::vector<Request>& reqs) {
  Burst out;
  out.lanes.resize(reqs.size());
  std::deque<std::pair<std::size_t, std::future<SolveResult>>> inflight;
  std::size_t next = 0;
  const auto submitNext = [&] {
    const std::size_t j = next++;
    const trace::Span span("service.submit");
    std::optional<std::future<SolveResult>> f =
        svc.submit(makeRequest(ops, reqs[j]));
    if (f.has_value()) inflight.emplace_back(j, std::move(*f));
  };
  const lisi::WallTimer wall;
  while (next < reqs.size() && inflight.size() < kOutstanding) submitNext();
  while (!inflight.empty()) {
    auto [j, f] = std::move(inflight.front());
    inflight.pop_front();
    SolveResult res;
    {
      const trace::Span span("service.wait");
      res = f.get();
    }
    Lane& lane = out.lanes[j];
    lane.ok = res.ok && res.converged;
    lane.queueSeconds = res.queueSeconds;
    lane.serveSeconds = res.solveSeconds;
    lane.seconds = res.queueSeconds + res.solveSeconds;
    lane.x = std::move(res.x);
    if (next < reqs.size()) submitNext();
  }
  out.wall = wall.seconds();
  return out;
}

/// The near-even block-row partition the service uses for its sessions.
std::pair<int, int> rowRange(int n, int rank, int nranks) {
  const int base = n / nranks;
  const int rem = n % nranks;
  return {rank * base + std::min(rank, rem), base + (rank < rem ? 1 : 0)};
}

lisi::sparse::CsrMatrix sliceRows(const lisi::sparse::CsrMatrix& g, int start,
                                  int count) {
  lisi::sparse::CsrMatrix local;
  local.rows = count;
  local.cols = g.cols;
  const auto s = static_cast<std::size_t>(start);
  const int nzBegin = g.rowPtr[s];
  const int nzEnd = g.rowPtr[s + static_cast<std::size_t>(count)];
  for (int i = 0; i <= count; ++i) {
    local.rowPtr.push_back(g.rowPtr[s + static_cast<std::size_t>(i)] - nzBegin);
  }
  local.colIdx.assign(g.colIdx.begin() + nzBegin, g.colIdx.begin() + nzEnd);
  local.values.assign(g.values.begin() + nzBegin, g.values.begin() + nzEnd);
  return local;
}

struct Sessions {
  int count = 1;
  int ranks = 1;
};

/// One session's share of the native arm: operator and preconditioner
/// built first (untimed), then one timed KSPSolve per request.
/// Trace groups: a timed burst k (group >= 0) gives its operator set-up one
/// group and each request its own, so native spans read per request.
void nativeSession(const Comm& sc, int session, const Sessions& shape,
                   const std::vector<Operator>& ops,
                   const std::vector<Request>& reqs, int group, bool traced,
                   Burst& out) {
  const auto requestGroup = [&](std::size_t j) {
    return group < 0 ? group
                     : group * (kBurst + 1) + 1 + static_cast<int>(j);
  };
  trace::beginGroup(group < 0 ? group : group * (kBurst + 1), traced);
  struct Solver {
    std::optional<lisi::sparse::DistCsrMatrix> a;
    pksp::KSP ksp = nullptr;
    int start = 0;
    int count = 0;
  };
  std::vector<Solver> solvers(ops.size());
  for (std::size_t o = 0; o < ops.size(); ++o) {
    const lisi::sparse::CsrMatrix& g = *ops[o].a;
    Solver& s = solvers[o];
    std::tie(s.start, s.count) = rowRange(g.rows, sc.rank(), sc.size());
    {
      const trace::Span span("pksp.operator");
      s.a.emplace(sc, g.rows, g.cols, s.start,
                  sliceRows(g, s.start, s.count));
      pksp::KSPCreate(sc, &s.ksp);
      pksp::KSPSetOperator(s.ksp, &*s.a);
      pksp::KSPSetType(s.ksp, pksp::PKSP_GMRES);
      pksp::KSPSetPCType(s.ksp, pksp::PKSP_PC_ILU0);
      pksp::KSPSetTolerances(s.ksp, kTol, 1e-50, kMaxIts);
      pksp::KSPSetRestart(s.ksp, kRestart);
    }
    // Untimed warm solve: builds the preconditioner.
    const std::vector<double>& rhs = ops[o].rhs.front();
    std::vector<double> x(static_cast<std::size_t>(s.count), 0.0);
    pksp::KSPSolve(s.ksp,
                   std::span<const double>(rhs.data() + s.start,
                                           static_cast<std::size_t>(s.count)),
                   std::span<double>(x));
  }
  for (std::size_t j = 0; j < reqs.size(); ++j) {
    if (static_cast<int>(j) % shape.count != session) continue;
    trace::beginGroup(requestGroup(j), traced);
    Solver& s = solvers[static_cast<std::size_t>(reqs[j].op)];
    const std::vector<double>& rhs =
        ops[static_cast<std::size_t>(reqs[j].op)]
            .rhs[static_cast<std::size_t>(reqs[j].rhs)];
    const std::span<const double> b(rhs.data() + s.start,
                                    static_cast<std::size_t>(s.count));
    std::vector<double> x(static_cast<std::size_t>(s.count), 0.0);
    int rc = 0;
    const double seconds = timedMax(sc, "pksp.native", [&] {
      const trace::Span span("pksp.ksp_solve");
      rc = pksp::KSPSolve(s.ksp, b, std::span<double>(x));
    });
    int iterations = 0;
    pksp::PkspConvergedReason reason = pksp::PKSP_ITERATING;
    pksp::KSPGetIterationNumber(s.ksp, &iterations);
    pksp::KSPGetConvergedReason(s.ksp, &reason);
    const bool solved = rc == pksp::PKSP_SUCCESS && reason > 0 &&
                        relResidual(*s.a, b, x) <= kIterativeResidualLimit;
    const bool ok =
        sc.allreduceValue(solved ? 1 : 0, ReduceOp::kMin) == 1;
    std::vector<double> xGlobal = sc.gatherv(std::span<const double>(x), 0);
    if (sc.rank() == 0) {
      Lane& lane = out.lanes[j];
      lane.seconds = seconds;
      lane.ok = ok;
      lane.iterations = iterations;
      lane.x = std::move(xGlobal);
    }
  }
  for (Solver& s : solvers) pksp::KSPDestroy(&s.ksp);
}

Burst nativeBurst(const Sessions& shape, const std::vector<Operator>& ops,
                  const std::vector<Request>& reqs, int group, bool traced) {
  Burst out;
  out.lanes.resize(reqs.size());
  const lisi::WallTimer wall;
  World::run(shape.count * shape.ranks, [&](Comm& world) {
    const int session = world.rank() / shape.ranks;
    const Comm sc = world.split(session, world.rank());
    nativeSession(sc, session, shape, ops, reqs, group, traced, out);
  });
  out.wall = wall.seconds();
  return out;
}

/// ||b - A x|| / ||b|| for a global solution (serial check of a lane).
double globalRelResidual(const lisi::sparse::CsrMatrix& a,
                         const std::vector<double>& b,
                         const std::vector<double>& x) {
  if (x.size() != b.size()) return HUGE_VAL;
  std::vector<double> r(b.size());
  lisi::sparse::spmv(a, std::span<const double>(x), std::span<double>(r));
  double rn = 0.0;
  double bn = 0.0;
  for (std::size_t i = 0; i < r.size(); ++i) {
    rn += (b[i] - r[i]) * (b[i] - r[i]);
    bn += b[i] * b[i];
  }
  return std::sqrt(rn) / std::sqrt(bn);
}

double globalRelDiff(const std::vector<double>& x,
                     const std::vector<double>& y) {
  if (x.size() != y.size() || y.empty()) return HUGE_VAL;
  double d = 0.0;
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double e = std::abs(x[i] - y[i]);
    d = std::isnan(e) ? HUGE_VAL : std::max(d, e);
    s = std::max(s, std::abs(y[i]));
  }
  return d / s;
}

}  // namespace

RunResult runServiceBurst(const Options& opt, int ranks) {
  RunResult out;
  Outcome& outcome = out.outcome;
  Sessions shape;
  shape.ranks = ranks >= 2 ? 2 : 1;
  shape.count = std::max(1, ranks / shape.ranks);
  lisi::service::ServiceConfig cfg;
  cfg.sessions = shape.count;
  cfg.ranksPerSession = shape.ranks;
  cfg.queueDepth = 2 * kOutstanding;
  cfg.batchWindow = kBatchWindow;

  std::vector<double> setupSeconds;
  std::unique_ptr<SolverService> svc;
  std::vector<Operator> ops;
  for (int rep = 0; !setupDone(setupSeconds); ++rep) {
    trace::beginGroup(trace::setupGroup(rep), opt.traced);
    svc.reset();
    releaseFreedMemory();
    const lisi::WallTimer setup;
    ops = makeOperators(opt.seed);
    svc = std::make_unique<SolverService>(cfg);
    svc->start();
    // Warm-up: every session builds its pksp component and the native
    // arm its operators; both are checked like timed bursts.
    const std::vector<Request> warm = burstMix(opt.seed, -1);
    const Burst s = serviceBurst(*svc, ops, warm);
    const Burst n = nativeBurst(shape, ops, warm, trace::setupGroup(rep),
                                opt.traced);
    setupSeconds.push_back(setup.seconds());
    for (std::size_t j = 0; j < warm.size(); ++j) {
      outcome.check(s.lanes[j].ok && n.lanes[j].ok, "warm-up request");
    }
  }

  std::vector<double> latency;
  std::vector<double> native;
  std::vector<double> ratio;
  std::vector<double> queueMs;
  std::vector<double> serveMs;
  std::vector<double> tracedLatency;
  std::vector<double> iterations;
  std::vector<double> throughput;  // requests served per second, per burst
  long long served = 0;
  Counters window;
  const long long batches0 = svc->batchesServed();
  const long long rejected0 = svc->rejected();
  const Counters timed0 = Counters::now();
  const lisi::WallTimer loop;
  for (int k = 0; k < kCountSamples || loop.seconds() < opt.seconds; ++k) {
    // Traced and untraced bursts alternate in pairs, so each kind sees both
    // arm orders.
    const bool traced = opt.traced && (k / 2) % 2 == 0;
    trace::beginGroup(k, traced);
    const std::vector<Request> reqs = burstMix(opt.seed, k);
    Burst s;
    Burst n;
    const auto runNative = [&] {
      const Counters before = Counters::now();
      n = nativeBurst(shape, ops, reqs, k, traced);
      if (k < kCountSamples) window += Counters::now().minus(before);
    };
    if ((static_cast<std::uint64_t>(k) + opt.seed) % 2 == 0) {
      s = serviceBurst(*svc, ops, reqs);
      runNative();
    } else {
      runNative();
      s = serviceBurst(*svc, ops, reqs);
    }
    long long burstServed = 0;
    for (std::size_t j = 0; j < reqs.size(); ++j) {
      const Lane& sl = s.lanes[j];
      const Lane& nl = n.lanes[j];
      const Operator& op = ops[static_cast<std::size_t>(reqs[j].op)];
      const std::vector<double>& b =
          op.rhs[static_cast<std::size_t>(reqs[j].rhs)];
      const bool laneOk =
          sl.ok && nl.ok &&
          globalRelResidual(*op.a, b, sl.x) <= kIterativeResidualLimit &&
          globalRelDiff(sl.x, nl.x) <= kAgreementLimit;
      const std::string what = "request " + std::to_string(j) + " of burst " +
                               std::to_string(k);
      outcome.solve(laneOk, what + " service");
      outcome.solve(nl.ok, what + " native");
      if (!sl.ok) continue;
      ++burstServed;
      queueMs.push_back(1e3 * sl.queueSeconds);
      serveMs.push_back(1e3 * sl.serveSeconds);
      if (k < kCountSamples) iterations.push_back(nl.iterations);
      if (traced) {
        tracedLatency.push_back(sl.seconds);
        continue;
      }
      latency.push_back(sl.seconds);
      native.push_back(nl.seconds);
      ratio.push_back(sl.seconds / nl.seconds);
    }
    served += burstServed;
    if (!traced) {
      throughput.push_back(static_cast<double>(burstServed) / s.wall);
    }
  }
  const Counters timed = Counters::now().minus(timed0);
  const long long batches = svc->batchesServed() - batches0;
  const long long rejected = svc->rejected() - rejected0;
  svc->stop();
  outcome.check(timed.tuneProbes == 0,
                "tuner probed inside the timed region");

  Report& r = out.report;
  r.set("solve_s.p50", median(latency), "s");
  if (latency.size() >= 100) r.set("solve_s.p90", quantile(latency, 0.9), "s");
  r.set("native_s.p50", median(native), "s");
  r.set("port_ratio", median(ratio), "ratio");
  r.set("setup_s", median(setupSeconds), "s");
  r.set("solves_per_s", median(throughput), "1/s");
  r.set("samples", static_cast<double>(latency.size()), "count");
  r.set("service.queue_ms.p50", median(queueMs), "ms");
  r.set("service.serve_ms.p50", median(serveMs), "ms");
  if (latency.size() >= 1000) {
    r.set("service.request_ms.p99", 1e3 * quantile(latency, 0.99), "ms");
  }
  r.set("service.batches", static_cast<double>(batches), "count");
  r.set("service.lanes_per_batch",
        batches > 0 ? static_cast<double>(served) / static_cast<double>(batches)
                    : 0.0,
        "lanes");
  r.set("service.rejected", static_cast<double>(rejected), "count");
  r.set("pksp.iterations", median(iterations), "count");
  const double perSample = 1.0 / kCountSamples;
  r.set("tune.cache_hits",
        static_cast<double>(window.tuneCacheHits) * perSample, "count");
  r.set("prec.bytes_high",
        static_cast<double>(window.bytesHigh) * perSample, "bytes");
  r.set("sparse.halo_plan_builds",
        static_cast<double>(window.haloPlanBuilds) * perSample, "count");
  r.set("sparse.value_updates",
        static_cast<double>(window.valueUpdates) * perSample, "count");
  r.set("tune.probe_measurements",
        static_cast<double>(timed.tuneProbes), "count");

  if (opt.traced) {
    const double untraced = median(latency);
    r.set("trace.overhead_pct",
          100.0 * (median(tracedLatency) - untraced) / untraced, "%");
    // Probes on the session communicators, both sessions at once.
    SparseProbe sp;
    CommProbe cp;
    World::run(shape.count * shape.ranks, [&](Comm& world) {
      trace::beginGroup(trace::kProbeGroup, true);
      const int session = world.rank() / shape.ranks;
      const Comm sc = world.split(session, world.rank());
      const lisi::sparse::CsrMatrix& g = *ops[0].a;
      const auto [start, count] = rowRange(g.rows, sc.rank(), sc.size());
      LocalSystem sys;
      sys.globalN = g.rows;
      sys.startRow = start;
      sys.a = sliceRows(g, start, count);
      const SparseProbe s = probeSparse(sc, sys);
      const CommProbe c = probeComm(sc);
      if (world.rank() == 0) {
        sp = s;
        cp = c;
      }
    });
    reportProbes(r, sp, cp);
  }
  return out;
}

}  // namespace lisibench
