#include "probes.hpp"

#include <optional>
#include <vector>

#include "sparse/dist_csr.hpp"

namespace lisibench {
namespace {

using lisi::comm::Comm;
using lisi::comm::ReduceOp;

constexpr int kBlocks = 21;
constexpr int kPingpongTag = 11;

/// p50 over kBlocks of the per-call time of `op` (max over ranks).
template <class Fn>
double perCallP50(const Comm& comm, int callsPerBlock, Fn&& op) {
  op();  // warm
  std::vector<double> perCall;
  for (int k = 0; k < kBlocks; ++k) {
    comm.barrier();
    const lisi::WallTimer timer;
    for (int i = 0; i < callsPerBlock; ++i) op();
    const double local = timer.seconds() / callsPerBlock;
    perCall.push_back(comm.allreduceValue(local, ReduceOp::kMax));
  }
  return median(perCall);
}

}  // namespace

SparseProbe probeSparse(const Comm& comm, const LocalSystem& sys) {
  SparseProbe p;
  std::vector<double> plan;
  std::optional<lisi::sparse::DistCsrMatrix> a;
  for (int k = 0; k < 5; ++k) {
    plan.push_back(timedMax(comm, "sparse.plan_build", [&] {
      a.emplace(comm, sys.globalN, sys.globalN, sys.startRow, sys.a);
    }));
  }
  p.planBuildS = median(plan);

  std::vector<double> update;
  for (int k = 0; k < 21; ++k) {
    update.push_back(timedMax(comm, "sparse.update_values",
                              [&] { a->updateValues(sys.a); }));
  }
  p.updateValuesS = median(update);

  const auto m = static_cast<std::size_t>(a->localRows());
  std::vector<double> x(m, 1.0);
  std::vector<double> y(m, 0.0);
  {
    const trace::Span span("sparse.spmv_probe");
    p.spmvUs = 1e6 * perCallP50(comm, 40, [&] {
                 a->spmv(std::span<const double>(x), std::span<double>(y));
               });
  }
  const auto nnz = static_cast<double>(sys.a.nnz());
  const auto rows = static_cast<double>(m);
  const double ghosts = a->numGhosts();
  // values + column indices + row pointers + owned and ghost x + y.
  const double bytes = nnz * 12.0 + (rows + 1.0) * 4.0 +
                       (rows + ghosts) * 8.0 + rows * 8.0;
  const double totalBytes = comm.allreduceValue(bytes, ReduceOp::kSum);
  p.spmvGbpsComputed = totalBytes / (p.spmvUs * 1e-6) / 1e9;
  p.haloBytes = comm.allreduceValue(ghosts * 8.0, ReduceOp::kSum);
  return p;
}

CommProbe probeComm(const Comm& comm) {
  const trace::Span span("comm.probe");
  CommProbe p;
  double one = 1.0;
  double oneOut = 0.0;
  p.allreduceUs = 1e6 * perCallP50(comm, 200, [&] {
                    comm.allreduce(std::span<const double>(&one, 1),
                                   std::span<double>(&oneOut, 1),
                                   ReduceOp::kSum);
                  });
  std::vector<double> in(256, 1.0);
  std::vector<double> out(256, 0.0);
  p.allreduce2kUs = 1e6 * perCallP50(comm, 100, [&] {
                      comm.allreduce(std::span<const double>(in),
                                     std::span<double>(out), ReduceOp::kSum);
                    });
  p.barrierUs = 1e6 * perCallP50(comm, 200, [&] { comm.barrier(); });
  if (comm.size() >= 2) {
    const int r = comm.rank();
    double v = 0.0;
    const double roundTrip = perCallP50(comm, 200, [&] {
      if (r == 0) {
        comm.sendValue(v, 1, kPingpongTag);
        v = comm.recvValue<double>(1, kPingpongTag);
      } else if (r == 1) {
        v = comm.recvValue<double>(0, kPingpongTag);
        comm.sendValue(v, 0, kPingpongTag);
      }
    });
    p.pingpongUs = 1e6 * roundTrip / 2.0;
  }
  return p;
}

void reportProbes(Report& report, const SparseProbe& sp, const CommProbe& cp) {
  report.set("sparse.spmv_us", sp.spmvUs, "us");
  report.set("sparse.spmv_gbps_computed", sp.spmvGbpsComputed, "GB/s");
  report.set("sparse.plan_build_s", sp.planBuildS, "s");
  report.set("sparse.update_values_s", sp.updateValuesS, "s");
  report.set("sparse.halo_bytes", sp.haloBytes, "bytes");
  report.set("comm.allreduce_us", cp.allreduceUs, "us");
  report.set("comm.allreduce_2k_us", cp.allreduce2kUs, "us");
  report.set("comm.barrier_us", cp.barrierUs, "us");
  if (cp.pingpongUs > 0.0) report.set("comm.pingpong_us", cp.pingpongUs, "us");
}

}  // namespace lisibench
