#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

namespace lisibench::trace {
namespace {

using Clock = std::chrono::steady_clock;

struct Record {
  const char* name;
  double start;
  double end;
  int parent;  ///< index in the same thread's buffer, -1 for a root
  int group;
};

struct ThreadLog {
  int tid = 0;
  std::vector<Record> records;
  std::vector<int> open;  ///< stack of open record indices
  int group = kProbeGroup;
  bool traced = false;
};

std::atomic<bool> g_enabled{false};
const Clock::time_point g_epoch = Clock::now();
std::mutex g_mutex;
std::vector<std::unique_ptr<ThreadLog>> g_logs;  // guarded by g_mutex
thread_local ThreadLog* t_log = nullptr;

double now() {
  return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

ThreadLog& threadLog() {
  if (t_log == nullptr) {
    const std::lock_guard<std::mutex> lock(g_mutex);
    g_logs.push_back(std::make_unique<ThreadLog>());
    g_logs.back()->tid = static_cast<int>(g_logs.size()) - 1;
    t_log = g_logs.back().get();
  }
  return *t_log;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

void enable() { g_enabled.store(true); }
bool enabled() { return g_enabled.load(); }

void beginGroup(int group, bool traced) {
  if (!enabled()) return;
  ThreadLog& log = threadLog();
  log.group = group;
  log.traced = traced;
}

Span::Span(const char* name) {
  if (!enabled()) return;
  ThreadLog& log = threadLog();
  if (!log.traced) return;
  const int parent = log.open.empty() ? -1 : log.open.back();
  index_ = static_cast<int>(log.records.size());
  log.records.push_back({name, now(), 0.0, parent, log.group});
  log.open.push_back(index_);
}

Span::~Span() {
  if (index_ < 0) return;
  ThreadLog& log = *t_log;
  log.records[static_cast<std::size_t>(index_)].end = now();
  log.open.pop_back();
}

std::map<std::string, Aggregate> aggregate() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  // (name, group) -> per-thread sums.
  using Key = std::tuple<std::string, int>;
  std::map<Key, std::map<int, std::pair<double, double>>> perThread;
  for (const auto& log : g_logs) {
    std::vector<double> childTime(log->records.size(), 0.0);
    for (const Record& r : log->records) {
      if (r.parent >= 0) {
        childTime[static_cast<std::size_t>(r.parent)] += r.end - r.start;
      }
    }
    for (std::size_t i = 0; i < log->records.size(); ++i) {
      const Record& r = log->records[i];
      auto& sums = perThread[{r.name, r.group}][log->tid];
      sums.first += r.end - r.start;
      sums.second += r.end - r.start - childTime[i];
    }
  }
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      perGroup;
  for (const auto& [key, threads] : perThread) {
    double incl = 0.0;
    double self = 0.0;
    for (const auto& [tid, sums] : threads) {
      incl = std::max(incl, sums.first);
      self = std::max(self, sums.second);
    }
    auto& lists = perGroup[std::get<0>(key)];
    lists.first.push_back(incl);
    lists.second.push_back(self);
  }
  std::map<std::string, Aggregate> out;
  for (const auto& [name, lists] : perGroup) {
    out[name] = {median(lists.first), median(lists.second)};
  }
  return out;
}

bool writeChromeTrace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::lock_guard<std::mutex> lock(g_mutex);
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  for (const auto& log : g_logs) {
    for (std::size_t i = 0; i < log->records.size(); ++i) {
      const Record& r = log->records[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"group\":%d}}",
                   first ? "" : ",", r.name, log->tid, r.start * 1e6,
                   (r.end - r.start) * 1e6, i, r.parent, r.group);
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace lisibench::trace
