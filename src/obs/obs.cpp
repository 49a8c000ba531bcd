#include "obs/obs.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>

#include "support/thread_annotations.hpp"

namespace lisi::obs {
namespace {

/// Raw timeline events kept per thread; the oldest are overwritten when a
/// thread records more (drops are counted, aggregates stay exact).
constexpr std::size_t kRingCapacity = std::size_t{1} << 14;

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Time zero for trace timestamps, anchored when the first thread stream
/// is created.
std::uint64_t processStartNs() {
  static const std::uint64_t t0 = nowNs();
  return t0;
}

/// Exact per-(name, session) aggregate on one thread.  The session is
/// captured at record time so a thread relabeled mid-stream (service rank
/// threads record world-setup work before their session exists) attributes
/// each event to the session current when it happened.
struct SpanAgg {
  const char* name = nullptr;
  int session = -1;
  std::uint64_t count = 0;
  std::uint64_t totalNs = 0;
  std::uint64_t minNs = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t maxNs = 0;
  std::uint64_t detailTotal = 0;
};

struct CounterAgg {
  const char* name = nullptr;
  int session = -1;
  long long total = 0;
};

struct RawEvent {
  const char* name = nullptr;
  std::uint64_t startNs = 0;
  std::uint64_t durNs = 0;
  int depth = 0;
  int session = -1;
};

/// One thread's private stream.  The owning thread writes without locks;
/// collect()/reset() read/clear from another thread only while no rank
/// threads are live (documented contract).
struct ThreadStream {
  ThreadStream() {
    // Reserve up front so steady-state recording never reallocates: the
    // instrumented hot paths (spmv, collectives) are covered by
    // allocation-free tests that must hold with LISI_OBS=ON too.
    spans.reserve(64);
    counters.reserve(64);
    ring.reserve(kRingCapacity);
    // Anchor trace time zero before this thread's first span starts:
    // anchored at export instead, it lies after every event, and the
    // unsigned start offsets wrap.
    (void)processStartNs();
  }

  int rank = -1;
  int session = -1;
  int depth = 0;
  std::vector<SpanAgg> spans;
  std::vector<CounterAgg> counters;
  std::vector<RawEvent> ring;
  std::size_t ringNext = 0;  ///< wraps at kRingCapacity once the ring is full
  std::uint64_t dropped = 0;

  SpanAgg& spanAggFor(const char* name) {
    // Pointer identity is the fast path (string literals); content equality
    // is the fallback so the same name from two TUs still merges here
    // rather than only at collect time.  Aggregates split per session: a
    // thread with a stable session (the common case) still hits one entry.
    for (SpanAgg& agg : spans) {
      if (agg.session == session &&
          (agg.name == name || std::strcmp(agg.name, name) == 0)) {
        return agg;
      }
    }
    spans.push_back(SpanAgg{name, session, 0, 0,
                            std::numeric_limits<std::uint64_t>::max(), 0, 0});
    return spans.back();
  }

  CounterAgg& counterAggFor(const char* name) {
    for (CounterAgg& agg : counters) {
      if (agg.session == session &&
          (agg.name == name || std::strcmp(agg.name, name) == 0)) {
        return agg;
      }
    }
    counters.push_back(CounterAgg{name, session, 0});
    return counters.back();
  }

  void clear() {
    spans.clear();
    counters.clear();
    ring.clear();
    ringNext = 0;
    dropped = 0;
  }
};

/// Global registry of every thread's stream.  Streams are shared_ptr so a
/// thread's data survives its exit (World::run joins its rank threads long
/// before the post-run aggregation happens).  Leaked deliberately: rank
/// threads may still be unwinding their thread_local destructors while the
/// process exits.
struct Registry {
  support::AnnotatedMutex mutex;
  /// Stream registration order is rank-arrival order; collect()/reset()
  /// additionally require quiescence (no rank inside a span) — a property
  /// the mutex cannot express and obs_test enforces behaviourally.
  std::vector<std::shared_ptr<ThreadStream>> streams LISI_GUARDED_BY(mutex);
};

Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

#ifdef LISI_OBS_ENABLED
ThreadStream& stream() {
  thread_local std::shared_ptr<ThreadStream> s = [] {
    auto p = std::make_shared<ThreadStream>();
    Registry& reg = registry();
    support::MutexLock lock(reg.mutex);
    reg.streams.push_back(p);
    return p;
  }();
  return *s;
}
#endif

// ---- JSON helpers ------------------------------------------------------

void appendEscaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c; break;
    }
  }
}

void appendDouble(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

}  // namespace

bool enabled() {
#ifdef LISI_OBS_ENABLED
  return true;
#else
  return false;
#endif
}

#ifdef LISI_OBS_ENABLED

namespace detail {

// lisi-lint: zero-alloc-begin(span/counter recording steady state)
// The ThreadStream constructor reserves every container (spans, counters,
// ring) precisely so this region never touches the heap once warm; the
// obs_test allocation-free assertions are the behavioural twin of these
// markers.

std::uint64_t spanBegin() {
  ++stream().depth;
  return nowNs();
}

void spanEnd(const char* name, std::uint64_t startNs, std::uint64_t detail) {
  const std::uint64_t endNs = nowNs();
  const std::uint64_t durNs = endNs - startNs;
  ThreadStream& s = stream();
  const int depth = --s.depth;
  SpanAgg& agg = s.spanAggFor(name);
  ++agg.count;
  agg.totalNs += durNs;
  agg.minNs = std::min(agg.minNs, durNs);
  agg.maxNs = std::max(agg.maxNs, durNs);
  agg.detailTotal += detail;
  const RawEvent event{name, startNs, durNs, depth, s.session};
  if (s.ring.size() < kRingCapacity) {
    // lisi-lint: allow(hot-alloc) ring.reserve(kRingCapacity) ran in the ThreadStream constructor; this push_back never reallocates
    s.ring.push_back(event);
  } else {
    s.ring[s.ringNext] = event;
    s.ringNext = (s.ringNext + 1) % kRingCapacity;
    ++s.dropped;
  }
}

}  // namespace detail

void setThreadRank(int rank) { stream().rank = rank; }

void setThreadSession(int session) { stream().session = session; }

void count(const char* name, long long delta) {
  stream().counterAggFor(name).total += delta;
}

// lisi-lint: zero-alloc-end

#endif  // LISI_OBS_ENABLED

Report collect() {
  Report report;
  report.enabled = enabled();
  // Merge per-thread exact aggregates: first per (name, rank), then across
  // ranks.  Multiple streams can share a rank (every World::run spawns
  // fresh threads), so per-rank totals accumulate across worlds.
  struct SpanMerge {
    std::uint64_t count = 0;
    std::uint64_t totalNs = 0;
    std::uint64_t minNs = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t maxNs = 0;
    std::uint64_t detailTotal = 0;
    std::map<int, std::uint64_t> rankTotalNs;
  };
  std::map<std::string, SpanMerge> spanByName;
  std::map<std::string, std::map<int, long long>> counterByName;
  // Session slices: (session, name) -> per-rank data, sessions >= 0 only.
  // The global maps above deliberately merge across sessions so the
  // whole-run stats are unchanged by session labeling.
  struct SessionSpanMerge {
    std::uint64_t count = 0;
    std::uint64_t totalNs = 0;
    std::map<int, char> ranks;
  };
  struct SessionCounterMerge {
    long long total = 0;
    std::map<int, char> ranks;
  };
  std::map<std::pair<int, std::string>, SessionSpanMerge> spanBySession;
  std::map<std::pair<int, std::string>, SessionCounterMerge> counterBySession;
  {
    Registry& reg = registry();
    support::MutexLock lock(reg.mutex);
    for (const auto& s : reg.streams) {
      report.droppedEvents += s->dropped;
      for (const SpanAgg& agg : s->spans) {
        SpanMerge& m = spanByName[agg.name];
        m.count += agg.count;
        m.totalNs += agg.totalNs;
        m.minNs = std::min(m.minNs, agg.minNs);
        m.maxNs = std::max(m.maxNs, agg.maxNs);
        m.detailTotal += agg.detailTotal;
        m.rankTotalNs[s->rank] += agg.totalNs;
        if (agg.session >= 0) {
          SessionSpanMerge& sm =
              spanBySession[std::make_pair(agg.session, std::string(agg.name))];
          sm.count += agg.count;
          sm.totalNs += agg.totalNs;
          sm.ranks[s->rank] = 1;
        }
      }
      for (const CounterAgg& agg : s->counters) {
        counterByName[agg.name][s->rank] += agg.total;
        if (agg.session >= 0) {
          SessionCounterMerge& cm = counterBySession[std::make_pair(
              agg.session, std::string(agg.name))];
          cm.total += agg.total;
          cm.ranks[s->rank] = 1;
        }
      }
    }
  }
  const auto toSeconds = [](std::uint64_t ns) {
    return static_cast<double>(ns) * 1e-9;
  };
  for (const auto& [name, m] : spanByName) {
    SpanStat stat;
    stat.name = name;
    stat.count = m.count;
    stat.totalSeconds = toSeconds(m.totalNs);
    stat.minSeconds = toSeconds(m.minNs);
    stat.maxSeconds = toSeconds(m.maxNs);
    stat.detailTotal = m.detailTotal;
    stat.ranks = static_cast<int>(m.rankTotalNs.size());
    std::uint64_t rankMin = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t rankMax = 0;
    std::uint64_t rankSum = 0;
    for (const auto& [rank, totalNs] : m.rankTotalNs) {
      rankMin = std::min(rankMin, totalNs);
      rankMax = std::max(rankMax, totalNs);
      rankSum += totalNs;
    }
    stat.rankTotalMin = toSeconds(rankMin);
    stat.rankTotalMax = toSeconds(rankMax);
    stat.rankTotalMean =
        toSeconds(rankSum) / static_cast<double>(stat.ranks);
    stat.imbalance = stat.rankTotalMean > 0.0
                         ? stat.rankTotalMax / stat.rankTotalMean
                         : 1.0;
    report.spans.push_back(std::move(stat));
  }
  for (const auto& [name, byRank] : counterByName) {
    CounterStat stat;
    stat.name = name;
    stat.ranks = static_cast<int>(byRank.size());
    long long rankMin = std::numeric_limits<long long>::max();
    long long rankMax = std::numeric_limits<long long>::min();
    for (const auto& [rank, total] : byRank) {
      stat.total += total;
      rankMin = std::min(rankMin, total);
      rankMax = std::max(rankMax, total);
    }
    stat.rankMin = rankMin;
    stat.rankMax = rankMax;
    stat.rankMean =
        static_cast<double>(stat.total) / static_cast<double>(stat.ranks);
    report.counters.push_back(std::move(stat));
  }
  for (const auto& [key, m] : spanBySession) {
    SessionSpanStat stat;
    stat.session = key.first;
    stat.name = key.second;
    stat.count = m.count;
    stat.totalSeconds = toSeconds(m.totalNs);
    stat.ranks = static_cast<int>(m.ranks.size());
    report.sessionSpans.push_back(std::move(stat));
  }
  for (const auto& [key, m] : counterBySession) {
    SessionCounterStat stat;
    stat.session = key.first;
    stat.name = key.second;
    stat.total = m.total;
    stat.ranks = static_cast<int>(m.ranks.size());
    report.sessionCounters.push_back(std::move(stat));
  }
  return report;
}

std::vector<TraceEvent> traceEvents() {
  std::vector<TraceEvent> events;
  const std::uint64_t t0 = processStartNs();
  Registry& reg = registry();
  support::MutexLock lock(reg.mutex);
  for (const auto& s : reg.streams) {
    for (const RawEvent& e : s->ring) {
      TraceEvent out;
      out.name = e.name;
      out.rank = s->rank;
      out.session = e.session;
      out.startUs = static_cast<double>(e.startNs - t0) * 1e-3;
      out.durUs = static_cast<double>(e.durNs) * 1e-3;
      out.depth = e.depth;
      events.push_back(std::move(out));
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.startUs < b.startUs;
            });
  return events;
}

void reset() {
  Registry& reg = registry();
  support::MutexLock lock(reg.mutex);
  for (const auto& s : reg.streams) s->clear();
}

std::string toJson(const Report& report) {
  std::string out;
  out += "{\n  \"schema\": \"lisi-obs-v2\",\n  \"enabled\": ";
  out += report.enabled ? "true" : "false";
  out += ",\n  \"dropped_events\": " + std::to_string(report.droppedEvents);
  out += ",\n  \"spans\": [";
  bool first = true;
  for (const SpanStat& s : report.spans) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"";
    appendEscaped(out, s.name);
    out += "\", \"count\": " + std::to_string(s.count);
    out += ", \"total_s\": ";
    appendDouble(out, s.totalSeconds);
    out += ", \"min_s\": ";
    appendDouble(out, s.minSeconds);
    out += ", \"max_s\": ";
    appendDouble(out, s.maxSeconds);
    out += ", \"mean_s\": ";
    appendDouble(out, s.count > 0
                          ? s.totalSeconds / static_cast<double>(s.count)
                          : 0.0);
    out += ", \"detail_total\": " + std::to_string(s.detailTotal);
    out += ", \"ranks\": " + std::to_string(s.ranks);
    out += ", \"rank_total_min_s\": ";
    appendDouble(out, s.rankTotalMin);
    out += ", \"rank_total_max_s\": ";
    appendDouble(out, s.rankTotalMax);
    out += ", \"rank_total_mean_s\": ";
    appendDouble(out, s.rankTotalMean);
    out += ", \"imbalance\": ";
    appendDouble(out, s.imbalance);
    out += "}";
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"counters\": [";
  first = true;
  for (const CounterStat& c : report.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"";
    appendEscaped(out, c.name);
    out += "\", \"total\": " + std::to_string(c.total);
    out += ", \"ranks\": " + std::to_string(c.ranks);
    out += ", \"rank_min\": " + std::to_string(c.rankMin);
    out += ", \"rank_max\": " + std::to_string(c.rankMax);
    out += ", \"rank_mean\": ";
    appendDouble(out, c.rankMean);
    out += "}";
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"session_spans\": [";
  first = true;
  for (const SessionSpanStat& s : report.sessionSpans) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"session\": " + std::to_string(s.session) + ", \"name\": \"";
    appendEscaped(out, s.name);
    out += "\", \"count\": " + std::to_string(s.count);
    out += ", \"total_s\": ";
    appendDouble(out, s.totalSeconds);
    out += ", \"ranks\": " + std::to_string(s.ranks);
    out += "}";
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"session_counters\": [";
  first = true;
  for (const SessionCounterStat& c : report.sessionCounters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"session\": " + std::to_string(c.session) + ", \"name\": \"";
    appendEscaped(out, c.name);
    out += "\", \"total\": " + std::to_string(c.total);
    out += ", \"ranks\": " + std::to_string(c.ranks);
    out += "}";
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

bool writeChromeTrace(const std::string& path) {
  const std::vector<TraceEvent> events = traceEvents();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\": [", f);
  bool first = true;
  for (const TraceEvent& e : events) {
    std::string line = first ? "\n" : ",\n";
    first = false;
    line += "  {\"name\": \"";
    appendEscaped(line, e.name);
    line += "\", \"ph\": \"X\", \"pid\": 0, \"tid\": " +
            std::to_string(e.rank) + ", \"ts\": ";
    appendDouble(line, e.startUs);
    line += ", \"dur\": ";
    appendDouble(line, e.durUs);
    line += ", \"args\": {\"depth\": " + std::to_string(e.depth);
    if (e.session >= 0) {
      line += ", \"session\": " + std::to_string(e.session);
    }
    line += "}}";
    std::fputs(line.c_str(), f);
  }
  std::fputs(first ? "]}\n" : "\n]}\n", f);
  const bool ok = std::fclose(f) == 0;
  return ok;
}

}  // namespace lisi::obs
