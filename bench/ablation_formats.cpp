// Ablation for §5.3/§7.2: what does setupMatrix's format adaptation cost?
//
// The LISI adapter accepts CSR, COO/FEM, MSR, and VBR and converts to the
// backend's internal structure, "freeing users from doing it on their own".
// This bench measures the adaptation cost per input format for the paper's
// PDE matrix, plus the raw library-level conversion kernels.
#include <benchmark/benchmark.h>

#include <vector>

#include "cca/cca.hpp"
#include "comm/comm.hpp"
#include "comm/comm_handle.hpp"
#include "lisi/sparse_solver.hpp"
#include "mesh/pde5pt.hpp"
#include "sparse/convert.hpp"

namespace {

using lisi::RArray;
using lisi::SparseStruct;

/// Run setupMatrix with a given format repeatedly through a real component.
template <class FeedFn>
void runSetupBench(benchmark::State& state, int gridN, FeedFn&& feed) {
  lisi::registerSolverComponents();
  lisi::comm::World::run(1, [&](lisi::comm::Comm& comm) {
    lisi::mesh::Pde5ptSpec spec;
    spec.gridN = gridN;
    const auto sys = lisi::mesh::assembleGlobal(spec);
    cca::Framework fw;
    fw.instantiate("s", lisi::kPkspComponentClass);
    auto port = fw.getProvidesPortAs<lisi::SparseSolver>(
        "s", lisi::kSparseSolverPortName);
    const long h = lisi::comm::registerHandle(comm);
    port->initialize(h);
    port->setStartRow(0);
    port->setLocalRows(sys.localA.rows);
    port->setGlobalCols(sys.globalN);
    for (auto _ : state) {
      const int rc = feed(*port, sys);
      if (rc != 0) state.SkipWithError("setupMatrix failed");
      benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * sys.localA.nnz());
    lisi::comm::releaseHandle(h);
  });
}

void BM_SetupMatrixCsr(benchmark::State& state) {
  runSetupBench(state, static_cast<int>(state.range(0)),
                [](lisi::SparseSolver& s,
                   const lisi::mesh::Pde5ptLocalSystem& sys) {
                  const int m = sys.localA.rows;
                  return s.setupMatrix(
                      RArray<const double>(sys.localA.values.data(),
                                           sys.localA.nnz()),
                      RArray<const int>(sys.localA.rowPtr.data(), m + 1),
                      RArray<const int>(sys.localA.colIdx.data(),
                                        sys.localA.nnz()),
                      SparseStruct::kCsr, m + 1, sys.localA.nnz());
                });
}
BENCHMARK(BM_SetupMatrixCsr)->Arg(50)->Arg(100)->Arg(200);

void BM_SetupMatrixCoo(benchmark::State& state) {
  const int gridN = static_cast<int>(state.range(0));
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = gridN;
  const auto sys0 = lisi::mesh::assembleGlobal(spec);
  const auto coo = lisi::sparse::csrToCoo(sys0.localA);
  runSetupBench(state, gridN,
                [&coo](lisi::SparseSolver& s,
                       const lisi::mesh::Pde5ptLocalSystem&) {
                  return s.setupMatrix(
                      RArray<const double>(coo.values.data(), coo.nnz()),
                      RArray<const int>(coo.rowIdx.data(), coo.nnz()),
                      RArray<const int>(coo.colIdx.data(), coo.nnz()),
                      coo.nnz());
                });
}
BENCHMARK(BM_SetupMatrixCoo)->Arg(50)->Arg(100)->Arg(200);

void BM_SetupMatrixMsr(benchmark::State& state) {
  const int gridN = static_cast<int>(state.range(0));
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = gridN;
  const auto sys0 = lisi::mesh::assembleGlobal(spec);
  const auto& a = sys0.localA;
  const int m = a.rows;
  // LISI MSR input: values = [diagonal, pad, off-diagonals], rows = the
  // pointer section into that array, columns = off-diagonal column indices.
  std::vector<double> values(static_cast<std::size_t>(m) + 1, 0.0);
  std::vector<int> pointers{m + 1};
  std::vector<int> columns;
  for (int i = 0; i < m; ++i) {
    for (int k = a.rowPtr[static_cast<std::size_t>(i)];
         k < a.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      const int j = a.colIdx[static_cast<std::size_t>(k)];
      if (j == i) {
        values[static_cast<std::size_t>(i)] =
            a.values[static_cast<std::size_t>(k)];
      } else {
        values.push_back(a.values[static_cast<std::size_t>(k)]);
        columns.push_back(j);
      }
    }
    pointers.push_back(static_cast<int>(values.size()));
  }
  const int nnz = static_cast<int>(values.size());
  runSetupBench(
      state, gridN,
      [&](lisi::SparseSolver& s, const lisi::mesh::Pde5ptLocalSystem&) {
        return s.setupMatrix(
            RArray<const double>(values.data(), nnz),
            RArray<const int>(pointers.data(), m + 1),
            RArray<const int>(columns.data(),
                              static_cast<int>(columns.size())),
            SparseStruct::kMsr, m + 1, nnz);
      });
}
BENCHMARK(BM_SetupMatrixMsr)->Arg(50)->Arg(100)->Arg(200);

// Raw conversion kernels, for reference against the component path.
void BM_RawCooToCsr(benchmark::State& state) {
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = static_cast<int>(state.range(0));
  const auto sys = lisi::mesh::assembleGlobal(spec);
  const auto coo = lisi::sparse::csrToCoo(sys.localA);
  for (auto _ : state) {
    auto csr = lisi::sparse::cooToCsr(coo);
    benchmark::DoNotOptimize(csr.values.data());
  }
  state.SetItemsProcessed(state.iterations() * coo.nnz());
}
BENCHMARK(BM_RawCooToCsr)->Arg(50)->Arg(100)->Arg(200);

void BM_RawCsrToCsc(benchmark::State& state) {
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = static_cast<int>(state.range(0));
  const auto sys = lisi::mesh::assembleGlobal(spec);
  for (auto _ : state) {
    auto csc = lisi::sparse::csrToCsc(sys.localA);
    benchmark::DoNotOptimize(csc.values.data());
  }
  state.SetItemsProcessed(state.iterations() * sys.localA.nnz());
}
BENCHMARK(BM_RawCsrToCsc)->Arg(50)->Arg(100)->Arg(200);

}  // namespace

BENCHMARK_MAIN();
