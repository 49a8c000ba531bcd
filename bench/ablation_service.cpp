// Service ablation: session-pool throughput vs one serialized World.
//
// The workload is the paper's multi-domain scenario: a burst of L
// independent small solves against one shared operator arrives at once
// (offered load).  Two arms consume the burst:
//
//   * service: a SolverService with two 2-rank sessions.  The burst is
//     queued up front, the session leaders greedily fuse same-operator
//     requests into multi-RHS solves (pksp's blocked kernels), and the
//     two sessions drain the queue concurrently.
//   * serial:  one 4-rank World holding a single pksp component, solving
//     the L requests one setupRHS+solve at a time — the World-bound model
//     the service layer refactors away.
//
// Reported per load level: solves/second and the p50/p99 of per-request
// latency (submit-to-result for the service arm, burst-start-to-result for
// the serial arm — both charge queueing delay to the request).  Results go
// to stdout and BENCH_service.json.
//
// Shape check: the service arm clears >= 1.5x the serialized solves/sec on
// these small systems once the load offers any batching at all — two
// sessions overlap their communication stalls, and each blocked batch pays
// one operator setup + one fused collective stream for up to four lanes.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "service/service.hpp"
#include "sparse/generate.hpp"
#include "support/timer.hpp"

namespace {

using lisi::comm::Comm;
using lisi::comm::World;

constexpr int kGridN = 16;       // 256 unknowns: small on purpose
constexpr double kTol = 1e-8;
constexpr int kSessions = 2;
constexpr int kRanksPerSession = 2;
constexpr int kBatchWindow = 4;

struct ArmStats {
  double solvesPerSec = 0.0;
  double p50Ms = 0.0;
  double p99Ms = 0.0;
  bool ok = true;
};

double percentileMs(std::vector<double>& latenciesSec, double q) {
  std::sort(latenciesSec.begin(), latenciesSec.end());
  const auto n = latenciesSec.size();
  if (n == 0) return 0.0;
  const auto idx = std::min(n - 1, static_cast<std::size_t>(
                                       q * static_cast<double>(n - 1) + 0.5));
  return latenciesSec[idx] * 1e3;
}

lisi::service::SolveRequest makeRequest(
    const std::shared_ptr<lisi::sparse::CsrMatrix>& a,
    const std::vector<double>& rhs) {
  lisi::service::SolveRequest req;
  req.matrix = a;
  req.rhs = rhs;
  req.backend = "pksp";
  req.operatorId = 1;  // one shared operator: the whole burst is batchable
  req.stringParams = {{"solver", "cg"}, {"preconditioner", "jacobi"}};
  req.doubleParams = {{"tol", kTol}};
  return req;
}

/// Service arm: queue the burst, start the pool, drain.
ArmStats runService(const std::shared_ptr<lisi::sparse::CsrMatrix>& a,
                    const std::vector<double>& rhs, int load) {
  lisi::service::ServiceConfig cfg;
  cfg.sessions = kSessions;
  cfg.ranksPerSession = kRanksPerSession;
  cfg.queueDepth = load;  // the whole burst must be admitted
  cfg.batchWindow = kBatchWindow;
  lisi::service::SolverService svc(cfg);

  std::vector<std::future<lisi::service::SolveResult>> futures;
  futures.reserve(static_cast<std::size_t>(load));
  for (int k = 0; k < load; ++k) {
    auto f = svc.submit(makeRequest(a, rhs));
    if (!f.has_value()) return {0.0, 0.0, 0.0, false};
    futures.push_back(std::move(*f));
  }

  lisi::WallTimer timer;
  svc.start();
  ArmStats stats;
  std::vector<double> latencies;
  latencies.reserve(futures.size());
  for (auto& f : futures) {
    const lisi::service::SolveResult res = f.get();
    stats.ok = stats.ok && res.ok;
    latencies.push_back(res.queueSeconds + res.solveSeconds);
  }
  const double wall = timer.seconds();
  svc.stop();
  stats.solvesPerSec = static_cast<double>(load) / wall;
  stats.p50Ms = percentileMs(latencies, 0.50);
  stats.p99Ms = percentileMs(latencies, 0.99);
  return stats;
}

/// Serial arm: one 4-rank World, one component, one solve per request.
ArmStats runSerial(const lisi::sparse::CsrMatrix& g,
                   const std::vector<double>& rhs, int load) {
  ArmStats stats;
  std::vector<double> latencies;
  const int worldRanks = kSessions * kRanksPerSession;
  World::run(worldRanks, [&](Comm& c) {
    const int n = g.rows;
    const int base = n / c.size();
    const int rem = n % c.size();
    const int m = base + (c.rank() < rem ? 1 : 0);
    const int start = c.rank() * base + std::min(c.rank(), rem);
    lisi::sparse::CsrMatrix local;
    local.rows = m;
    local.cols = n;
    local.rowPtr.resize(static_cast<std::size_t>(m) + 1);
    const int nzB = g.rowPtr[static_cast<std::size_t>(start)];
    const int nzE = g.rowPtr[static_cast<std::size_t>(start + m)];
    for (int i = 0; i <= m; ++i) {
      local.rowPtr[static_cast<std::size_t>(i)] =
          g.rowPtr[static_cast<std::size_t>(start + i)] - nzB;
    }
    local.colIdx.assign(g.colIdx.begin() + nzB, g.colIdx.begin() + nzE);
    local.values.assign(g.values.begin() + nzB, g.values.begin() + nzE);

    lisi::registerSolverComponents();
    cca::Framework fw;
    const long h = lisi::comm::registerHandle(c);
    fw.instantiate("s", lisi::kPkspComponentClass);
    auto s = fw.getProvidesPortAs<lisi::SparseSolver>(
        "s", lisi::kSparseSolverPortName);
    int rc = s->initialize(h);
    if (rc == 0) rc = s->setStartRow(start);
    if (rc == 0) rc = s->setLocalRows(m);
    if (rc == 0) rc = s->setGlobalCols(n);
    if (rc == 0) rc = s->set("solver", "cg");
    if (rc == 0) rc = s->set("preconditioner", "jacobi");
    if (rc == 0) rc = s->setDouble("tol", kTol);

    c.barrier();
    lisi::WallTimer timer;
    for (int k = 0; k < load && rc == 0; ++k) {
      rc = s->setupMatrix(
          lisi::RArray<const double>(local.values.data(), local.nnz()),
          lisi::RArray<const int>(local.rowPtr.data(), m + 1),
          lisi::RArray<const int>(local.colIdx.data(), local.nnz()),
          lisi::SparseStruct::kCsr, m + 1, local.nnz());
      std::vector<double> b(rhs.begin() + start, rhs.begin() + start + m);
      if (rc == 0) {
        rc = s->setupRHS(lisi::RArray<const double>(b.data(), m), m, 1);
      }
      std::vector<double> x(static_cast<std::size_t>(m), 0.0);
      std::vector<double> st(lisi::kStatusLength, 0.0);
      if (rc == 0) {
        rc = s->solve(lisi::RArray<double>(x.data(), m),
                      lisi::RArray<double>(st.data(), lisi::kStatusLength), m,
                      lisi::kStatusLength);
      }
      if (c.rank() == 0) {
        // Burst semantics: every request arrived at t0, so request k's
        // latency is the time until its serialized turn finished.
        latencies.push_back(timer.seconds());
      }
    }
    const double wall = timer.seconds();
    if (c.rank() == 0) {
      stats.ok = rc == 0;
      stats.solvesPerSec = static_cast<double>(load) / wall;
    }
    lisi::comm::releaseHandle(h);
  });
  stats.p50Ms = percentileMs(latencies, 0.50);
  stats.p99Ms = percentileMs(latencies, 0.99);
  return stats;
}

struct Row {
  int load = 0;
  ArmStats service;
  ArmStats serial;
  [[nodiscard]] double speedup() const {
    return serial.solvesPerSec > 0 ? service.solvesPerSec / serial.solvesPerSec
                                   : 0.0;
  }
  [[nodiscard]] bool ok() const { return service.ok && serial.ok; }
};

}  // namespace

int main() {
  const int reps = bench::repetitions(3);
  auto a = std::make_shared<lisi::sparse::CsrMatrix>(
      lisi::sparse::laplacian2d(kGridN, kGridN));
  std::vector<double> rhs(static_cast<std::size_t>(a->rows));
  for (int i = 0; i < a->rows; ++i) {
    rhs[static_cast<std::size_t>(i)] = 1.0 + 0.25 * (i % 5);
  }

  std::printf(
      "# Service ablation: %dx%d-rank session pool vs one serialized "
      "%d-rank World,\n"
      "# %dx%d grid (n=%d), cg+jacobi rtol %g, batch window %d, "
      "best of %d runs per load.\n",
      kSessions, kRanksPerSession, kSessions * kRanksPerSession, kGridN,
      kGridN, a->rows, kTol, kBatchWindow, reps);
  std::printf("%6s %18s %18s %9s %9s %9s %9s %9s\n", "load", "svc(solve/s)",
              "serial(solve/s)", "speedup", "svc p50", "svc p99", "ser p50",
              "ser p99");

  std::vector<Row> rows;
  for (const int load : {4, 8, 16}) {
    Row best;
    best.load = load;
    // Keep the best run per arm: on an oversubscribed CI host the slow
    // tail is scheduler noise, and the arms are noisy independently.
    for (int rep = 0; rep < reps; ++rep) {
      const ArmStats svc = runService(a, rhs, load);
      const ArmStats ser = runSerial(*a, rhs, load);
      if (svc.solvesPerSec > best.service.solvesPerSec) best.service = svc;
      if (ser.solvesPerSec > best.serial.solvesPerSec) best.serial = ser;
      best.service.ok = best.service.ok && svc.ok;
      best.serial.ok = best.serial.ok && ser.ok;
    }
    rows.push_back(best);
    std::printf("%6d %18.1f %18.1f %8.2fx %7.2fms %7.2fms %7.2fms %7.2fms%s\n",
                load, best.service.solvesPerSec, best.serial.solvesPerSec,
                best.speedup(), best.service.p50Ms, best.service.p99Ms,
                best.serial.p50Ms, best.serial.p99Ms,
                best.ok() ? "" : "  SOLVE FAILED");
  }
  std::printf("# shape check: speedup >= 1.5x once load >= 2x batch window "
              "(two sessions, batched lanes).\n");

  std::FILE* f = std::fopen("BENCH_service.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_service.json for writing\n");
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"service\",\n  \"grid_n\": %d,\n"
               "  \"sessions\": %d,\n  \"ranks_per_session\": %d,\n"
               "  \"batch_window\": %d,\n  \"loads\": [\n",
               kGridN, kSessions, kRanksPerSession, kBatchWindow);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"load\": %d, \"ok\": %s, \"speedup\": %.3f,\n"
        "     \"service\": {\"solves_per_sec\": %.2f, \"p50_ms\": %.3f, "
        "\"p99_ms\": %.3f},\n"
        "     \"serial\": {\"solves_per_sec\": %.2f, \"p50_ms\": %.3f, "
        "\"p99_ms\": %.3f}}%s\n",
        r.load, r.ok() ? "true" : "false", r.speedup(),
        r.service.solvesPerSec, r.service.p50Ms, r.service.p99Ms,
        r.serial.solvesPerSec, r.serial.p50Ms, r.serial.p99Ms,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return 0;
}
