// The benchmark's workloads.  Each runs in one process on `ranks` rank
// threads (at most the host's core count) and fills a RunResult with
// every metric it measures; main.cpp selects what a mode prints.
//
//   paper_large    300^2 paper PDE, pksp GMRES(30)+ILU(0): local-compute
//                  bound (SpMV, ILU apply, vector ops).
//   paper_small    63^2 paper PDE on all four backends: collective-latency
//                  bound, where per-call port costs are largest.
//   timestep       127^2, persistent components, same-pattern values each
//                  step: the value-refresh (kSameStructure) paths.
//   service_burst  SolverService, two 2-rank sessions, closed loop: queue,
//                  batching, blocked multi-RHS solves, concurrent comms.
#pragma once

#include "harness.hpp"

namespace lisibench {

[[nodiscard]] RunResult runPaperLarge(const Options& opt, int ranks);
[[nodiscard]] RunResult runPaperSmall(const Options& opt, int ranks);
[[nodiscard]] RunResult runTimestep(const Options& opt, int ranks);
[[nodiscard]] RunResult runServiceBurst(const Options& opt, int ranks);

}  // namespace lisibench
