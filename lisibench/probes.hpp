// Layer probes of the traced run: short loops that time one library call
// in isolation on the workload's own operator and communicator, so a
// change to SpMV or to the MiniMPI transport shows up by name even where
// it moves a solve by less than the noise.
#pragma once

#include "backends.hpp"
#include "comm/comm.hpp"
#include "harness.hpp"

namespace lisibench {

struct SparseProbe {
  double spmvUs = 0.0;          ///< p50 of one DistCsrMatrix::spmv
  double spmvGbpsComputed = 0.0;  ///< array bytes one spmv touches / time
  double planBuildS = 0.0;      ///< p50 of DistCsrMatrix construction
  double updateValuesS = 0.0;   ///< p50 of DistCsrMatrix::updateValues
  double haloBytes = 0.0;       ///< sum over ranks of numGhosts() * 8
};

struct CommProbe {
  double allreduceUs = 0.0;    ///< one double
  double allreduce2kUs = 0.0;  ///< 256 doubles
  double barrierUs = 0.0;
  double pingpongUs = 0.0;     ///< one-way, half a rank 0 <-> 1 round trip
};

/// Collective over `comm`; the result is valid on every rank.
[[nodiscard]] SparseProbe probeSparse(const lisi::comm::Comm& comm,
                                      const LocalSystem& sys);
[[nodiscard]] CommProbe probeComm(const lisi::comm::Comm& comm);

void reportProbes(Report& report, const SparseProbe& sp, const CommProbe& cp);

}  // namespace lisibench
