// In-memory span recorder for the benchmark's traced mode.
//
// The benchmark opens one span around each call it makes into a library
// layer (the LISI port methods, the native package APIs, DistCsrMatrix,
// Comm, SolverService).  Spans live in per-thread buffers owned by the
// recorder, so they outlive the MiniMPI rank threads that wrote them; each
// carries its parent span (the enclosing span on the same thread) and the
// group it belongs to (one timed sample, one set-up repetition, or the
// probe phase).  Nothing is written until the run ends.
//
// Recording is off unless enable() was called, and each thread records
// only while its current group is traced, so the untraced samples of a
// traced run measure the tracing overhead by difference.
#pragma once

#include <map>
#include <string>

namespace lisibench::trace {

/// Group ids: samples are >= 0; set-up repetition r is setupGroup(r).
inline constexpr int kProbeGroup = -1;
[[nodiscard]] constexpr int setupGroup(int rep) { return -2 - rep; }

/// Turn the recorder on for the whole process (traced mode).
void enable();
[[nodiscard]] bool enabled();

/// Start a group on the calling thread; spans opened until the next call
/// belong to it and are recorded only if `traced` (and enable() was called).
void beginGroup(int group, bool traced);

/// RAII span.  `name` must be a string with static storage duration.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_ = -1;  ///< record slot in this thread's buffer; -1 = inactive
};

/// Per-name aggregate over recorded spans: for every group, each thread's
/// spans of that name are summed, the maximum over threads (ranks) is
/// taken, and the result is the median over groups.  `self` subtracts the
/// time covered by child spans.
struct Aggregate {
  double inclusiveSeconds = 0.0;
  double selfSeconds = 0.0;
};
[[nodiscard]] std::map<std::string, Aggregate> aggregate();

/// Write every recorded span as Chrome trace JSON (chrome://tracing or
/// ui.perfetto.dev); args carry span id, parent id and group.  Returns
/// false if the file cannot be written.
bool writeChromeTrace(const std::string& path);

}  // namespace lisibench::trace
