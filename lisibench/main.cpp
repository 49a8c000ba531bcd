// lisibench — the LISI benchmark program.
//
//   lisibench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-file PATH]
//
// Runs one workload (see workloads.hpp) for S seconds of timed samples,
// checks every answer, and prints as its last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// holding every metric the run measured.  --trace 1 adds the per-layer
// metrics: spans around each library call (trace.hpp), layer probes
// (probes.hpp) and the tracing overhead.  Exit status 0 only when every
// solve and every check passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "harness.hpp"
#include "lisi/sparse_solver.hpp"
#include "obs/obs.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using namespace lisibench;

int usage(const char* why) {
  std::fprintf(stderr,
               "lisibench: %s\nusage: lisibench --workload "
               "paper_large|paper_small|timestep|service_burst --seed N "
               "--seconds S --trace 0|1 [--trace-file PATH]\n",
               why);
  return 2;
}

/// Runtime knobs change what is measured (tuning, precision, service
/// shape, tag windows, plugins, repetitions): refuse them all.
bool knobSet(std::string& name) {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "LISI_", 5) == 0) {
      name = std::string(*e).substr(0, std::string(*e).find('='));
      return true;
    }
  }
  return false;
}

/// Span name -> per-layer metric.  Arm spans report their whole duration;
/// the spans inside an arm report self time.
void reportSpans(Report& report) {
  static const char* const kArm[] = {
      "pksp.port", "pksp.native", "aztec.port", "aztec.native",
      "slu.port",  "slu.native",  "hymg.port",  "hymg.native"};
  static const char* const kSelf[] = {
      "lisi.config",     "lisi.setup_matrix", "lisi.setup_rhs",
      "lisi.solve_call", "cca.instantiate",   "cca.get_port",
      "mesh.assemble",   "pksp.ksp_solve",    "pksp.operator",
      "aztec.iterate",   "aztec.operator",    "slu.factor",
      "slu.gather",      "hymg.setup",        "hymg.solve"};
  const auto agg = trace::aggregate();
  for (const char* name : kArm) {
    const auto it = agg.find(name);
    if (it != agg.end()) {
      report.set(std::string(name) + "_s", it->second.inclusiveSeconds, "s");
    }
  }
  for (const char* name : kSelf) {
    const auto it = agg.find(name);
    if (it != agg.end()) {
      report.set(std::string(name) + "_s", it->second.selfSeconds, "s");
    }
  }
}

void printResult(const RunResult& r, bool correct) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", r.outcome.attempted,
              r.outcome.failed);
  bool first = true;
  for (const auto& [name, m] : r.report.metrics()) {
    if (std::isfinite(m.first)) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), m.first, m.second.c_str());
    } else {
      std::printf("%s\"%s\": {\"value\": null, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), m.second.c_str());
    }
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool haveSeed = false;
  bool haveSeconds = false;
  bool haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      haveSeed = *end == '\0';
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      haveSeconds = *end == '\0' && opt.seconds > 0.0 && opt.seconds <= 120.0;
    } else if (arg == "--trace") {
      haveTrace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      opt.traced = std::strcmp(value, "1") == 0;
    } else if (arg == "--trace-file") {
      opt.traceFile = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!haveSeed || !haveSeconds || !haveTrace) {
    return usage("--seed, --seconds (0, 120] and --trace 0|1 are required");
  }
  RunResult (*workload)(const Options&, int) = nullptr;
  if (opt.workload == "paper_large") workload = &runPaperLarge;
  if (opt.workload == "paper_small") workload = &runPaperSmall;
  if (opt.workload == "timestep") workload = &runTimestep;
  if (opt.workload == "service_burst") workload = &runServiceBurst;
  if (workload == nullptr) return usage("unknown workload");

  std::string knob;
  if (knobSet(knob)) {
    std::fprintf(stderr, "lisibench: refusing to run with %s set\n",
                 knob.c_str());
    return 2;
  }
  if (std::strcmp(LISIBENCH_BUILD_TYPE, "Release") != 0 ||
      lisi::obs::enabled()) {
    std::fprintf(stderr,
                 "lisibench: refusing a %s build with observability %s; "
                 "build Release with LISI_OBS=OFF\n",
                 LISIBENCH_BUILD_TYPE, lisi::obs::enabled() ? "on" : "off");
    return 2;
  }

  const unsigned nproc = std::max(1U, std::thread::hardware_concurrency());
  const int ranks = static_cast<int>(std::min(4U, nproc));
  std::printf("# lisibench workload=%s seed=%llu seconds=%g trace=%d "
              "nproc=%u ranks=%d build=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.traced ? 1 : 0, nproc, ranks,
              LISIBENCH_BUILD_TYPE);
  std::fflush(stdout);

  lisi::registerSolverComponents();
  if (opt.traced) trace::enable();
  RunResult result;
  try {
    result = workload(opt, ranks);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lisibench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  result.report.set("peak_rss_mb", peakRssMb(), "MB");
  if (opt.traced) {
    reportSpans(result.report);
    if (!opt.traceFile.empty() && !trace::writeChromeTrace(opt.traceFile)) {
      std::fprintf(stderr, "lisibench: cannot write %s\n",
                   opt.traceFile.c_str());
    }
  }
  const Outcome& o = result.outcome;
  const bool correct = o.checksPassed && o.failed == 0 && o.attempted > 0;
  for (const std::string& m : o.messages) {
    std::fprintf(stderr, "lisibench: %s\n", m.c_str());
  }
  const auto samples = result.report.metrics().find("samples");
  if (samples != result.report.metrics().end()) {
    std::printf("# samples=%.0f\n", samples->second.first);
  }
  printResult(result, correct);
  return correct ? 0 : 1;
}
