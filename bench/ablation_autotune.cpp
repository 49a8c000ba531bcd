// Autotune ablation: tuned (LISI_TUNE=auto, the shipped policy) vs default
// (LISI_TUNE=off) solve time across a matrix zoo, at 1 and 4 ranks.
//
// Protocol per (matrix, procs, arm): one untimed warmup solve — for the
// tuned arm this is where the one-off probe runs and the decision enters
// the fingerprint cache; entries under the kAuto size gate stay on the
// default schedule by design — then repeated solves of the SAME operator
// (kSameOperator replays), timed as one region.  Replay must be free: the
// probe-measurement counter is sampled around the timed region and any
// nonzero delta fails the run loudly.  Arms alternate order every rep so
// warmup and host-speed drift hit both equally.
//
// The solver is PKSP CG + Jacobi (every zoo entry is SPD), whose iteration
// cost is SpMV-dominated.  Both arms run the one DistCsrMatrix SpMV path;
// the tuner's only decision is the collective schedule family, which it
// probes at p > 1.  The default arm's times are therefore also the zoo
// record for that SpMV path.  Results go to stdout and BENCH_autotune.json.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sparse/generate.hpp"
#include "sparse/matrix_market.hpp"
#include "support/rng.hpp"
#include "tune/tune.hpp"

#ifndef LISI_BENCH_DATA_DIR
#define LISI_BENCH_DATA_DIR "tests/data"
#endif

namespace {

using lisi::comm::Comm;
using lisi::comm::World;
using lisi::sparse::CsrMatrix;

/// Timed replay solves per region: more for small matrices so the region
/// stays measurable (a 64-row-per-rank solve takes well under a
/// millisecond; 3 of them would drown in scheduler noise).
int timedSolves(long long nnz) {
  const long long n = 2'000'000 / (nnz > 0 ? nnz : 1);
  return static_cast<int>(n < 3 ? 3 : (n > 40 ? 40 : n));
}

struct ZooEntry {
  std::string name;
  std::string cls;  ///< matrix class for the per-class geomean
  CsrMatrix a;
};

std::vector<ZooEntry> buildZoo() {
  std::vector<ZooEntry> zoo;
  zoo.push_back({"lap5_160", "stencil5", lisi::sparse::laplacian2d(160, 160)});
  zoo.push_back({"lap9_140", "stencil9", lisi::sparse::laplacian2d9(140, 140)});
  lisi::Rng prng(2026);
  zoo.push_back({"perm9_120", "permuted_fem",
                 lisi::sparse::permuteSymmetric(
                     lisi::sparse::laplacian2d9(120, 120), prng)});
  zoo.push_back(
      {"block4_64", "block_fem", lisi::sparse::blockLaplacian2d(64, 64, 4)});
  zoo.push_back({"perm9pt16_mtx", "mtx_import",
                 lisi::sparse::readMatrixMarket(std::string(LISI_BENCH_DATA_DIR) +
                                                "/perm9pt16.mtx")});
  return zoo;
}

/// Rows [start, start+m) of `global` as a local CSR block, global columns.
CsrMatrix rowSlice(const CsrMatrix& global, int start, int m) {
  CsrMatrix a;
  a.rows = m;
  a.cols = global.cols;
  a.rowPtr.assign(static_cast<std::size_t>(m) + 1, 0);
  for (int i = 0; i < m; ++i) {
    const int b = global.rowPtr[static_cast<std::size_t>(start + i)];
    const int e = global.rowPtr[static_cast<std::size_t>(start + i) + 1];
    a.rowPtr[static_cast<std::size_t>(i) + 1] =
        a.rowPtr[static_cast<std::size_t>(i)] + (e - b);
    for (int k = b; k < e; ++k) {
      a.colIdx.push_back(global.colIdx[static_cast<std::size_t>(k)]);
      a.values.push_back(global.values[static_cast<std::size_t>(k)]);
    }
  }
  return a;
}

void myShare(int n, int rank, int size, int& start, int& m) {
  const int base = n / size;
  const int rem = n % size;
  start = rank * base + (rank < rem ? rank : rem);
  m = base + (rank < rem ? 1 : 0);
}

struct ArmResult {
  double seconds = 0.0;  ///< timed region (kTimedSolves solves), rank 0
  bool ok = true;
  bool replayFree = true;  ///< zero probe measurements in the timed region
};

/// One arm: fresh component, feed the operator once, warm solve, then the
/// timed replay solves.
ArmResult runArm(const Comm& c, const CsrMatrix& global, bool tuned) {
  lisi::registerSolverComponents();
  cca::Framework fw;
  const long h = lisi::comm::registerHandle(c);
  ArmResult res;
  int start = 0, m = 0;
  myShare(global.rows, c.rank(), c.size(), start, m);
  const CsrMatrix a = rowSlice(global, start, m);

  static int counter = 0;
  const std::string name = "at" + std::to_string(counter++);
  fw.instantiate(name, lisi::kPkspComponentClass);
  auto s = fw.getProvidesPortAs<lisi::SparseSolver>(
      name, lisi::kSparseSolverPortName);
  int rc = s->initialize(h);
  if (rc == 0) rc = s->setStartRow(start);
  if (rc == 0) rc = s->setLocalRows(m);
  if (rc == 0) rc = s->setGlobalCols(global.cols);
  if (rc == 0) rc = s->set("solver", "cg");
  if (rc == 0) rc = s->set("preconditioner", "jacobi");
  if (rc == 0) rc = s->setDouble("tol", bench::kTol);
  if (rc == 0) rc = s->setInt("maxits", bench::kMaxIts);
  if (rc == 0) rc = s->set("tune", tuned ? "auto" : "off");
  if (rc == 0) {
    rc = s->setupMatrix(
        lisi::RArray<const double>(a.values.data(), a.nnz()),
        lisi::RArray<const int>(a.rowPtr.data(), m + 1),
        lisi::RArray<const int>(a.colIdx.data(), a.nnz()),
        lisi::SparseStruct::kCsr, m + 1, a.nnz());
  }
  const std::vector<double> b(static_cast<std::size_t>(m), 1.0);
  if (rc == 0) {
    rc = s->setupRHS(lisi::RArray<const double>(b.data(), m), m, 1);
  }
  std::vector<double> x(static_cast<std::size_t>(m), 0.0);
  std::vector<double> st(lisi::kStatusLength, 0.0);
  const auto solveOnce = [&] {
    return s->solve(lisi::RArray<double>(x.data(), m),
                    lisi::RArray<double>(st.data(), lisi::kStatusLength), m,
                    lisi::kStatusLength);
  };
  // Warmup: the tuned arm probes and caches here, outside the timed region.
  if (rc == 0) rc = solveOnce();

  c.barrier();
  const long long probes0 = lisi::tune::stats().probeMeasurements;
  c.barrier();
  const int nSolves = timedSolves(global.nnz());
  lisi::WallTimer timer;
  for (int rep = 0; rep < nSolves && rc == 0; ++rep) rc = solveOnce();
  c.barrier();
  res.seconds = timer.seconds();
  const long long probes1 = lisi::tune::stats().probeMeasurements;
  c.barrier();
  res.replayFree = probes1 == probes0;
  res.ok = rc == 0 && st[lisi::kStatusConverged] == 1.0;
  lisi::comm::releaseHandle(h);
  return res;
}

struct Row {
  std::string name;
  std::string cls;
  int procs = 0;
  long long nnz = 0;
  double defaultSec = 0.0;
  double tunedSec = 0.0;
  bool ok = true;
  bool replayFree = true;
  [[nodiscard]] double speedup() const {
    return tunedSec > 0 ? defaultSec / tunedSec : 0.0;
  }
};

Row runCase(const ZooEntry& z, int procs, int reps) {
  Row row;
  row.name = z.name;
  row.cls = z.cls;
  row.procs = procs;
  row.nnz = z.a.nnz();
  lisi::RunStats defStats, tunedStats;
  for (int rep = 0; rep < reps; ++rep) {
    World::run(procs, [&](Comm& c) {
      ArmResult def, tun;
      if (rep % 2 == 0) {
        def = runArm(c, z.a, /*tuned=*/false);
        tun = runArm(c, z.a, /*tuned=*/true);
      } else {
        tun = runArm(c, z.a, /*tuned=*/true);
        def = runArm(c, z.a, /*tuned=*/false);
      }
      if (c.rank() == 0) {
        defStats.add(def.seconds);
        tunedStats.add(tun.seconds);
        row.ok = row.ok && def.ok && tun.ok;
        row.replayFree = row.replayFree && tun.replayFree;
      }
    });
  }
  // Best-of-reps: both arms run identical work per region, so the minimum
  // is the least-scheduler-noise estimate on an oversubscribed host (same
  // discipline as the tuner's own probes).
  row.defaultSec = defStats.min();
  row.tunedSec = tunedStats.min();
  return row;
}

}  // namespace

int main() {
  const int reps = bench::repetitions();
  const std::vector<ZooEntry> zoo = buildZoo();
  std::printf(
      "# Autotune ablation: tuned (LISI_TUNE=auto) vs default solve time,\n"
      "# PKSP CG+Jacobi, 3-40 replay solves per timed region (more for\n"
      "# small matrices), best of %d reps.  Probes run in an untimed\n"
      "# warmup solve; a probe inside the timed region marks the row\n"
      "# PROBED-IN-TIMED-REGION and fails the run.  The tuner picks only\n"
      "# the collective schedule; entries under the kAuto size gate\n"
      "# (%lld nnz) keep the default schedule by design.\n",
      reps, lisi::tune::kAutoMinGlobalNnz);
  std::printf("%-14s %-12s %6s %9s %12s %12s %9s\n", "matrix", "class",
              "procs", "nnz", "default(s)", "tuned(s)", "speedup");

  std::vector<Row> rows;
  for (const ZooEntry& z : zoo) {
    for (const int procs : {1, 4}) {
      rows.push_back(runCase(z, procs, reps));
    }
  }

  bool allOk = true;
  for (const Row& r : rows) {
    allOk = allOk && r.ok && r.replayFree;
    std::printf("%-14s %-12s %6d %9lld %12.6f %12.6f %8.3fx%s%s\n",
                r.name.c_str(), r.cls.c_str(), r.procs, r.nnz, r.defaultSec,
                r.tunedSec, r.speedup(), r.ok ? "" : "  SOLVE FAILED",
                r.replayFree ? "" : "  PROBED-IN-TIMED-REGION");
  }

  // Per-class geomean at p=4, where the schedule probe runs: a tuned
  // schedule must never cost a class more than noise.
  std::printf("# geomean tuned speedup by class at procs=4:\n");
  for (const ZooEntry& z : zoo) {
    double logSum = 0.0;
    int n = 0;
    for (const Row& r : rows) {
      if (r.cls == z.cls && r.procs == 4 && r.speedup() > 0) {
        logSum += std::log(r.speedup());
        ++n;
      }
    }
    if (n > 0) {
      std::printf("#   %-12s %.3fx\n", z.cls.c_str(),
                  std::exp(logSum / n));
    }
  }

  std::FILE* f = std::fopen("BENCH_autotune.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_autotune.json for writing\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"ablation_autotune\",\n");
  std::fprintf(f, "  \"rtol\": %g,\n  \"reps\": %d,\n", bench::kTol, reps);
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"matrix\": \"%s\", \"class\": \"%s\", \"procs\": %d, "
        "\"nnz\": %lld, \"timed_solves\": %d, \"default_s\": %.6f, "
        "\"tuned_s\": %.6f, \"speedup\": %.3f, \"replay_free\": %s, "
        "\"ok\": %s}%s\n",
        r.name.c_str(), r.cls.c_str(), r.procs, r.nnz, timedSolves(r.nnz),
        r.defaultSec, r.tunedSec, r.speedup(),
        r.replayFree ? "true" : "false", r.ok ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("# wrote BENCH_autotune.json\n");
  return allOk ? 0 : 1;
}
