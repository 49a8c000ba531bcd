// Mixed-precision tests (the "precision" parameter / LISI_PRECISION knob):
//
//   * precision=mixed must converge to the SAME tolerance as float64 on
//     every backend, at 1 and 4 ranks — float32 is a speed path for the
//     error-correction side (preconditioner applies, MG cycles, LU
//     factors), never an accuracy downgrade, because every outer
//     iteration, residual, and convergence decision stays float64
//     (iterative refinement / defect correction).
//   * precision=double must be BITWISE identical to the pre-knob path
//     (the parameter unset): the knob is opt-in and the default solves
//     nothing differently.
//   * The lisi::prec counters must prove the float32 kernels actually ran
//     (bytesLow, lowApplies, refineSweeps) — a silent fallback to float64
//     would pass any accuracy assertion.
//
// Counter multiplicity: prec::Stats counters are process-wide (MiniMPI
// ranks are threads of one process), so per-rank events bump them by p per
// world; samples are taken inside barrier sandwiches, tune-test style.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "comm/comm.hpp"
#include "comm/comm_handle.hpp"
#include "lisi/sparse_solver.hpp"
#include "mesh/pde5pt.hpp"
#include "sparse/dist_csr.hpp"
#include "sparse/ops.hpp"
#include "support/prec.hpp"

namespace lisi {
namespace {

using comm::Comm;
using comm::World;

constexpr const char* kBackendClasses[] = {
    kPkspComponentClass, kAztecComponentClass, kSluComponentClass,
    kHymgComponentClass};
constexpr const char* kBackendNames[] = {"pksp", "aztec", "slu", "hymg"};

/// Backends with a float32 speed path; aztec accepts the knob but runs
/// float64 throughout (the LISI contract: a backend without the path must
/// still take the parameter).
bool hasLowPath(int backendIdx) { return backendIdx != 1; }

/// Apply backend-appropriate parameters for the paper PDE at gridN.
void configure(SparseSolver& s, const std::string& cls, int gridN) {
  if (cls == kHymgComponentClass) {
    ASSERT_EQ(s.setInt("mg_grid_n", gridN), 0);
    ASSERT_EQ(s.setDouble("mg_bx", 3.0), 0);
    ASSERT_EQ(s.setDouble("tol", 1e-10), 0);
    ASSERT_EQ(s.setInt("maxits", 200), 0);
  } else if (cls == kSluComponentClass) {
    ASSERT_EQ(s.set("ordering", "rcm"), 0);
  } else {
    ASSERT_EQ(s.set("solver", "gmres"), 0);
    ASSERT_EQ(s.set("preconditioner", "ilu"), 0);
    ASSERT_EQ(s.setDouble("tol", 1e-10), 0);
    ASSERT_EQ(s.setInt("maxits", 10000), 0);
  }
}

/// Wire a fresh component of `cls` over this rank's share of the paper PDE,
/// optionally setting the "precision" parameter, then solve.  Returns the
/// local solution; asserts convergence to the backend tolerance.
std::vector<double> solvePde(const Comm& c, const std::string& cls, int gridN,
                             const std::string& precision) {
  registerSolverComponents();
  mesh::Pde5ptSpec spec;
  spec.gridN = gridN;
  const auto sys = mesh::assembleLocal(spec, c.rank(), c.size());
  const int m = sys.localA.rows;

  cca::Framework fw;
  static std::atomic<int> counter{0};  // rank threads name components
  const std::string name = "prec" + std::to_string(counter++);
  fw.instantiate(name, cls);
  auto s = fw.getProvidesPortAs<SparseSolver>(name, kSparseSolverPortName);
  const long h = comm::registerHandle(c);
  EXPECT_EQ(s->initialize(h), 0);
  EXPECT_EQ(s->setStartRow(sys.startRow), 0);
  EXPECT_EQ(s->setLocalRows(m), 0);
  EXPECT_EQ(s->setGlobalCols(sys.globalN), 0);
  configure(*s, cls, gridN);
  if (!precision.empty()) {
    EXPECT_EQ(s->set("precision", precision), 0);
  }
  EXPECT_EQ(s->setupMatrix(
                RArray<const double>(sys.localA.values.data(), sys.localA.nnz()),
                RArray<const int>(sys.localA.rowPtr.data(), m + 1),
                RArray<const int>(sys.localA.colIdx.data(), sys.localA.nnz()),
                SparseStruct::kCsr, m + 1, sys.localA.nnz()),
            0);
  EXPECT_EQ(s->setupRHS(RArray<const double>(sys.localB.data(), m), m, 1), 0);
  std::vector<double> x(static_cast<std::size_t>(m), 0.0);
  std::vector<double> st(kStatusLength, 0.0);
  EXPECT_EQ(s->solve(RArray<double>(x.data(), m),
                     RArray<double>(st.data(), kStatusLength), m,
                     kStatusLength),
            0);
  EXPECT_DOUBLE_EQ(st[kStatusConverged], 1.0) << cls << " " << precision;
  // Same accuracy bar for every precision mode: the true relative residual.
  const double bnorm = sparse::distNorm2(c, std::span<const double>(sys.localB));
  EXPECT_LT(st[kStatusResidualNorm] / bnorm, 1e-8) << cls << " " << precision;
  comm::releaseHandle(h);
  return x;
}

/// Clears LISI_PRECISION for the test body and restores it on exit:
/// "parameter unset" must mean the pre-knob default even when the verify
/// flow runs this whole binary with the knob forced (LISI_PRECISION=mixed).
class ScopedClearPrecisionEnv {
 public:
  ScopedClearPrecisionEnv() {
    const char* prev = std::getenv("LISI_PRECISION");
    had_ = prev != nullptr;
    if (had_) prev_ = prev;
    unsetenv("LISI_PRECISION");
  }
  ~ScopedClearPrecisionEnv() {
    if (had_) setenv("LISI_PRECISION", prev_.c_str(), 1);
  }
  ScopedClearPrecisionEnv(const ScopedClearPrecisionEnv&) = delete;
  ScopedClearPrecisionEnv& operator=(const ScopedClearPrecisionEnv&) = delete;

 private:
  bool had_ = false;
  std::string prev_;
};

/// prec::stats() inside a barrier sandwich (counters are process-wide).
prec::Stats sampleStats(const Comm& c) {
  c.barrier();
  const prec::Stats s = prec::stats();
  c.barrier();
  return s;
}

using BackendRanks = std::tuple<int, int>;  // backend index, world size

class PrecisionBackends : public ::testing::TestWithParam<BackendRanks> {};

TEST_P(PrecisionBackends, MixedConvergesToSameRtolAsDouble) {
  const auto [backendIdx, p] = GetParam();
  const std::string cls = kBackendClasses[backendIdx];
  const int gridN = 15;  // odd: hymg-compatible
  World::run(p, [&](Comm& c) {
    (void)solvePde(c, cls, gridN, "double");

    const prec::Stats s0 = sampleStats(c);
    (void)solvePde(c, cls, gridN, "mixed");
    const prec::Stats s1 = sampleStats(c);

    // The solve resolved to kMixed on every rank...
    EXPECT_EQ(s1.mixedSolves - s0.mixedSolves, p);
    if (hasLowPath(backendIdx)) {
      // ...and the float32 kernels actually ran: value bytes moved through
      // float32 storage, and at least one low-precision apply per rank.
      EXPECT_GT(s1.bytesLow - s0.bytesLow, 0) << cls;
      EXPECT_GT(s1.lowApplies - s0.lowApplies, 0) << cls;
    } else {
      // Aztec takes the knob but has no float32 path: all-float64 traffic.
      EXPECT_EQ(s1.bytesLow - s0.bytesLow, 0) << cls;
    }
    if (cls == kSluComponentClass) {
      // Direct solves under mixed wrap the float32 triangular solves in
      // float64 iterative refinement; the sweeps must be visible.
      EXPECT_GT(s1.refineSweeps - s0.refineSweeps, 0);
    }
  });
}

TEST_P(PrecisionBackends, DoubleIsBitwiseIdenticalToUnset) {
  // precision=double IS the pre-knob code path: identical solutions to the
  // last bit, not merely to a tolerance.  Indexed by rank: each rank-thread
  // writes only its own slot.
  const auto [backendIdx, p] = GetParam();
  const std::string cls = kBackendClasses[backendIdx];
  const int gridN = 15;
  const ScopedClearPrecisionEnv noEnv;
  std::vector<std::vector<double>> xUnset(static_cast<std::size_t>(p));
  World::run(p, [&](Comm& c) {
    xUnset[static_cast<std::size_t>(c.rank())] = solvePde(c, cls, gridN, "");
  });
  World::run(p, [&](Comm& c) {
    const std::vector<double> xDouble = solvePde(c, cls, gridN, "double");
    const std::vector<double>& mine =
        xUnset[static_cast<std::size_t>(c.rank())];
    ASSERT_EQ(xDouble.size(), mine.size());
    for (std::size_t i = 0; i < xDouble.size(); ++i) {
      EXPECT_EQ(xDouble[i], mine[i])
          << kBackendNames[backendIdx] << " rank " << c.rank() << " row " << i;
    }
  });
}

std::string backendRanksName(
    const ::testing::TestParamInfo<BackendRanks>& info) {
  return std::string(kBackendNames[std::get<0>(info.param)]) + "_ranks" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, PrecisionBackends,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(1, 4)),
                         backendRanksName);

// ---- the environment knob and the auto policy ----------------------------

TEST(PrecisionEnv, EnvKnobSelectsMixedAndParamOverrides) {
  // LISI_PRECISION=mixed spells precision=mixed without touching the
  // application ("change the numerics of a deployed binary from the
  // launch script"); an explicit parameter still wins.  The previous value
  // is restored afterwards — the verify flow runs this binary with
  // LISI_PRECISION forced and later tests must still see that setting.
  const int p = 2;
  const char* prevEnv = std::getenv("LISI_PRECISION");
  const std::string prev = prevEnv != nullptr ? prevEnv : "";
  ASSERT_EQ(setenv("LISI_PRECISION", "mixed", 1), 0);
  World::run(p, [&](Comm& c) {
    const prec::Stats s0 = sampleStats(c);
    (void)solvePde(c, kPkspComponentClass, 15, "");  // env decides: mixed
    const prec::Stats s1 = sampleStats(c);
    EXPECT_EQ(s1.mixedSolves - s0.mixedSolves, p);
    EXPECT_GT(s1.bytesLow - s0.bytesLow, 0);

    (void)solvePde(c, kPkspComponentClass, 15, "double");  // param wins
    const prec::Stats s2 = sampleStats(c);
    EXPECT_EQ(s2.mixedSolves - s1.mixedSolves, 0);
    EXPECT_EQ(s2.bytesLow - s1.bytesLow, 0);
  });
  if (prevEnv != nullptr) {
    ASSERT_EQ(setenv("LISI_PRECISION", prev.c_str(), 1), 0);
  } else {
    ASSERT_EQ(unsetenv("LISI_PRECISION"), 0);
  }
}

TEST(PrecisionAuto, AutoResolvesByOperatorSize) {
  // precision=auto goes mixed only above the global-nnz gate: the float32
  // mirrors and refinement overhead must have enough bandwidth savings to
  // pay for themselves.  gridN=15 (~1k nnz) stays double; gridN=90
  // (~40k nnz) crosses kAutoMinGlobalNnz and goes mixed.
  const int p = 2;
  World::run(p, [&](Comm& c) {
    const prec::Stats s0 = sampleStats(c);
    (void)solvePde(c, kPkspComponentClass, 15, "auto");
    const prec::Stats s1 = sampleStats(c);
    EXPECT_EQ(s1.mixedSolves - s0.mixedSolves, 0);
    EXPECT_EQ(s1.bytesLow - s0.bytesLow, 0);

    (void)solvePde(c, kPkspComponentClass, 90, "auto");
    const prec::Stats s2 = sampleStats(c);
    EXPECT_EQ(s2.mixedSolves - s1.mixedSolves, p);
    EXPECT_GT(s2.bytesLow - s1.bytesLow, 0);
  });
}

}  // namespace
}  // namespace lisi
