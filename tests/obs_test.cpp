// Tests for the lisi::obs observability layer.
//
// The suite is built in both configurations:
//   - LISI_OBS=ON:  spans/counters record, collect() aggregates across the
//     rank threads of a World::run, JSON/trace exports carry the data.
//   - LISI_OBS=OFF: the hot-path API compiles to no-ops; the reporting API
//     still links and runs but reports an empty, disabled registry.
// Tests that assert on recorded data skip themselves when obs::enabled()
// is false; the compile-out test asserts the opposite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cca/cca.hpp"
#include "comm/comm.hpp"
#include "comm/comm_handle.hpp"
#include "lisi/sparse_solver.hpp"
#include "mesh/pde5pt.hpp"
#include "obs/obs.hpp"

namespace lisi {
namespace {

using comm::Comm;
using comm::World;

#define SKIP_IF_DISABLED()                                        \
  if (!obs::enabled()) {                                          \
    GTEST_SKIP() << "built without LISI_OBS=ON";                  \
  }                                                               \
  static_assert(true, "")

const obs::SpanStat* findSpan(const obs::Report& r, const std::string& name) {
  for (const obs::SpanStat& s : r.spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const obs::CounterStat* findCounter(const obs::Report& r,
                                    const std::string& name) {
  for (const obs::CounterStat& c : r.counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

TEST(Obs, SpanNestingRecordsBothLevels) {
  SKIP_IF_DISABLED();
  obs::reset();
  World::run(1, [](Comm&) {
    for (int i = 0; i < 3; ++i) {
      obs::Span outer("obs_test.outer");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      {
        obs::Span inner("obs_test.inner");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });
  const obs::Report r = obs::collect();
  EXPECT_TRUE(r.enabled);
  const obs::SpanStat* outer = findSpan(r, "obs_test.outer");
  const obs::SpanStat* inner = findSpan(r, "obs_test.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 3);
  EXPECT_EQ(inner->count, 3);
  // The outer span contains the inner one, so its total must dominate.
  EXPECT_GE(outer->totalSeconds, inner->totalSeconds);
  EXPECT_GE(outer->minSeconds, 0.0);
  EXPECT_GE(outer->maxSeconds, outer->minSeconds);

  // The raw timeline keeps the nesting depth for the trace export.
  const std::vector<obs::TraceEvent> events = obs::traceEvents();
  bool sawOuterAtDepth0 = false;
  bool sawInnerAtDepth1 = false;
  for (const obs::TraceEvent& e : events) {
    if (e.name == "obs_test.outer" && e.depth == 0) sawOuterAtDepth0 = true;
    if (e.name == "obs_test.inner" && e.depth == 1) sawInnerAtDepth1 = true;
  }
  EXPECT_TRUE(sawOuterAtDepth0);
  EXPECT_TRUE(sawInnerAtDepth1);
}

TEST(Obs, TraceTimestampsCountFromTimeZero) {
  // Event starts are offsets from a time zero taken before the first span,
  // so none is negative (an unsigned offset would wrap to ~1.8e16 us and
  // keep only a few microseconds of resolution in a double).
  SKIP_IF_DISABLED();
  obs::reset();
  World::run(2, [](Comm& c) {
    obs::Span span("obs_test.time_zero");
    c.barrier();
  });
  const std::vector<obs::TraceEvent> events = obs::traceEvents();
  ASSERT_FALSE(events.empty());
  for (const obs::TraceEvent& e : events) {
    EXPECT_GE(e.startUs, 0.0) << e.name;
    EXPECT_LT(e.startUs, 1e12) << e.name;  // under 12 days of process time
  }
}

TEST(Obs, CountersAggregateAcrossRanks) {
  SKIP_IF_DISABLED();
  obs::reset();
  World::run(4, [](Comm& c) {
    // Rank r contributes r+1, so the cross-rank totals are exact and
    // asymmetric: total 10, min 1, max 4, mean 2.5.
    obs::count("obs_test.per_rank", c.rank() + 1);
    c.barrier();
  });
  const obs::Report r = obs::collect();
  const obs::CounterStat* c = findCounter(r, "obs_test.per_rank");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->total, 10);
  EXPECT_EQ(c->ranks, 4);
  EXPECT_EQ(c->rankMin, 1);
  EXPECT_EQ(c->rankMax, 4);
  EXPECT_DOUBLE_EQ(c->rankMean, 2.5);

  // The instrumented barrier shows up too, attributed to all four ranks.
  const obs::SpanStat* barrier = findSpan(r, "coll.barrier.star");
  if (barrier == nullptr) barrier = findSpan(r, "coll.barrier.tree");
  ASSERT_NE(barrier, nullptr);
  EXPECT_EQ(barrier->ranks, 4);
  EXPECT_GE(barrier->imbalance, 1.0);
}

TEST(Obs, CompileOutBuildReportsDisabledAndEmpty) {
  if (obs::enabled()) {
    GTEST_SKIP() << "built with LISI_OBS=ON; compile-out path not active";
  }
  obs::reset();
  World::run(2, [](Comm& c) {
    // Exercise the instrumented paths and the public no-op API: none of
    // this may record anything in an OFF build.
    obs::Span span("obs_test.should_not_exist");
    obs::count("obs_test.should_not_exist");
    (void)c.allreduceValue(1.0, comm::ReduceOp::kSum);
    c.barrier();
  });
  const obs::Report r = obs::collect();
  EXPECT_FALSE(r.enabled);
  EXPECT_TRUE(r.spans.empty());
  EXPECT_TRUE(r.counters.empty());
  EXPECT_EQ(r.droppedEvents, 0u);
  EXPECT_TRUE(obs::traceEvents().empty());
  // The JSON export still works so OFF-build tooling degrades gracefully.
  const std::string json = obs::toJson(r);
  EXPECT_NE(json.find("\"lisi-obs-v2\""), std::string::npos);
  EXPECT_NE(json.find("\"enabled\": false"), std::string::npos);
}

TEST(Obs, JsonSchemaIsStable) {
  SKIP_IF_DISABLED();
  obs::reset();
  World::run(2, [](Comm& c) {
    obs::Span span("obs_test.schema", 128);
    obs::count("obs_test.schema_counter", 2);
    c.barrier();
  });
  const std::string json = obs::toJson(obs::collect());
  // Top-level schema: versioned, with the four fixed keys in order.
  const std::vector<std::string> keysInOrder = {
      "\"schema\": \"lisi-obs-v2\"", "\"enabled\": true",
      "\"dropped_events\":",         "\"spans\":",
      "\"counters\":",               "\"session_spans\":",
      "\"session_counters\":",
  };
  std::size_t pos = 0;
  for (const std::string& key : keysInOrder) {
    const std::size_t at = json.find(key, pos);
    ASSERT_NE(at, std::string::npos) << "missing or out of order: " << key
                                     << "\n" << json;
    pos = at;
  }
  // Per-span and per-counter rows carry the documented fields.
  for (const char* field :
       {"\"count\":", "\"total_s\":", "\"min_s\":", "\"max_s\":",
        "\"mean_s\":", "\"detail_total\":", "\"ranks\":",
        "\"rank_total_min_s\":", "\"rank_total_max_s\":",
        "\"rank_total_mean_s\":", "\"imbalance\":"}) {
    EXPECT_NE(json.find(field), std::string::npos) << "missing " << field;
  }
  for (const char* field :
       {"\"total\":", "\"rank_min\":", "\"rank_max\":", "\"rank_mean\":"}) {
    EXPECT_NE(json.find(field), std::string::npos) << "missing " << field;
  }
  // Two ranks each opened the span with detail=128, so the merged sum is 256.
  EXPECT_NE(json.find("\"detail_total\": 256"), std::string::npos);
}

TEST(Obs, ChromeTraceExportContainsRankEvents) {
  SKIP_IF_DISABLED();
  obs::reset();
  World::run(2, [](Comm& c) {
    obs::Span span("obs_test.trace_me");
    c.barrier();
  });
  const std::string path = ::testing::TempDir() + "lisi_obs_trace.json";
  ASSERT_TRUE(obs::writeChromeTrace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string trace = buf.str();
  std::remove(path.c_str());
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("obs_test.trace_me"), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
  // Events carry the rank as tid so the viewer shows one row per rank.
  EXPECT_NE(trace.find("\"tid\": 0"), std::string::npos);
  EXPECT_NE(trace.find("\"tid\": 1"), std::string::npos);
}

TEST(Obs, ResetClearsEverything) {
  SKIP_IF_DISABLED();
  obs::reset();
  World::run(1, [](Comm&) { obs::count("obs_test.reset_me"); });
  ASSERT_NE(findCounter(obs::collect(), "obs_test.reset_me"), nullptr);
  obs::reset();
  const obs::Report r = obs::collect();
  EXPECT_EQ(findCounter(r, "obs_test.reset_me"), nullptr);
  EXPECT_TRUE(obs::traceEvents().empty());
}

// ---- the port's set-up runs one agreement collective ---------------------

/// Allreduces rank `rank` runs between the start of the span named `call`
/// and the start of the lisi.backend_solve inside it; -1 when the call or
/// its backend solve is missing.  An allreduce inside another collective
/// (the tree allgatherv agrees on its counts with one) is that collective's
/// part, not a call of its own.  `sawSetup` reports whether a lisi.setup
/// span started in that window.
int allreducesBeforeBackend(const std::vector<obs::TraceEvent>& events,
                            int rank, const std::string& call,
                            bool& sawSetup) {
  const obs::TraceEvent* outer = nullptr;
  for (const obs::TraceEvent& e : events) {
    if (e.rank == rank && e.name == call) outer = &e;
  }
  if (outer == nullptr) return -1;
  const double begin = outer->startUs;
  double backend = -1.0;
  for (const obs::TraceEvent& e : events) {
    if (e.rank == rank && e.name == "lisi.backend_solve" &&
        e.startUs >= begin && e.startUs <= begin + outer->durUs) {
      backend = e.startUs;
      break;
    }
  }
  if (backend < 0.0) return -1;
  const auto inWindow = [&](const obs::TraceEvent& e) {
    return e.rank == rank && e.startUs >= begin && e.startUs < backend;
  };
  const auto isColl = [](const obs::TraceEvent& e) {
    return e.name.rfind("coll.", 0) == 0;
  };
  int n = 0;
  sawSetup = false;
  for (const obs::TraceEvent& e : events) {
    if (!inWindow(e)) continue;
    if (e.name == "lisi.setup") sawSetup = true;
    if (e.name.rfind("coll.allreduce", 0) != 0) continue;
    const bool nested = std::any_of(
        events.begin(), events.end(), [&](const obs::TraceEvent& o) {
          return &o != &e && inWindow(o) && isColl(o) && o.depth < e.depth &&
                 o.startUs <= e.startUs &&
                 e.startUs + e.durUs <= o.startUs + o.durUs;
        });
    if (!nested) ++n;
  }
  return n;
}

TEST(ObsLisi, PortSetupRunsOneAllreduceBeforeTheBackend) {
  // DESIGN.md "Operator change contract": one sum-allreduce agrees on the
  // pattern, the values, the global shape and the operator's validity.  A
  // fresh pksp solve on an operator below the tuner's kAuto gate and a
  // same-structure re-solve each run exactly that one before the backend;
  // a re-solve without setupMatrix runs none.
  SKIP_IF_DISABLED();
  obs::reset();
  const int p = 4;
  World::run(p, [](Comm& c) {
    registerSolverComponents();
    mesh::Pde5ptSpec spec;
    spec.gridN = 15;  // 225 rows, ~1.1k nonzeros: far below the kAuto gate
    const auto sys = mesh::assembleLocal(spec, c.rank(), c.size());
    const int m = sys.localA.rows;
    const int nnz = sys.localA.nnz();
    cca::Framework fw;
    fw.instantiate("s", kPkspComponentClass);
    auto s = fw.getProvidesPortAs<SparseSolver>("s", kSparseSolverPortName);
    const long h = comm::registerHandle(c);
    ASSERT_EQ(s->initialize(h), 0);
    ASSERT_EQ(s->setStartRow(sys.startRow), 0);
    ASSERT_EQ(s->setLocalRows(m), 0);
    ASSERT_EQ(s->setGlobalCols(sys.globalN), 0);
    ASSERT_EQ(s->set("solver", "gmres"), 0);
    ASSERT_EQ(s->set("preconditioner", "ilu"), 0);
    ASSERT_EQ(s->set("tune", "auto"), 0);
    ASSERT_EQ(s->set("precision", "double"), 0);
    ASSERT_EQ(s->setupRHS(RArray<const double>(sys.localB.data(), m), m, 1), 0);
    std::vector<double> scaled = sys.localA.values;
    for (double& v : scaled) v *= 1.25;
    std::vector<double> x(static_cast<std::size_t>(m));
    double st[kStatusLength];
    const auto solve = [&] {
      EXPECT_EQ(s->solve(RArray<double>(x.data(), m),
                         RArray<double>(st, kStatusLength), m, kStatusLength),
                0);
    };
    const auto setup = [&](const std::vector<double>& values) {
      EXPECT_EQ(s->setupMatrix(
                    RArray<const double>(values.data(), nnz),
                    RArray<const int>(sys.localA.rowPtr.data(), m + 1),
                    RArray<const int>(sys.localA.colIdx.data(), nnz),
                    SparseStruct::kCsr, m + 1, nnz),
                0);
    };
    {
      obs::Span call("obs_test.fresh");
      setup(sys.localA.values);
      solve();
    }
    {
      obs::Span call("obs_test.same_structure");
      setup(scaled);
      solve();
    }
    {
      obs::Span call("obs_test.resolve");
      solve();
    }
    s.reset();
    fw.destroy("s");
    comm::releaseHandle(h);
  });
  const std::vector<obs::TraceEvent> events = obs::traceEvents();
  ASSERT_EQ(obs::collect().droppedEvents, 0u);
  for (int r = 0; r < p; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    bool sawSetup = false;
    EXPECT_EQ(allreducesBeforeBackend(events, r, "obs_test.fresh", sawSetup),
              1);
    EXPECT_TRUE(sawSetup);
    EXPECT_EQ(allreducesBeforeBackend(events, r, "obs_test.same_structure",
                                      sawSetup),
              1);
    EXPECT_TRUE(sawSetup);
    EXPECT_EQ(allreducesBeforeBackend(events, r, "obs_test.resolve", sawSetup),
              0);
    EXPECT_FALSE(sawSetup);
  }
}

}  // namespace
}  // namespace lisi
