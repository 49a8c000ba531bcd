// The two arms of every paired sample, for each of the four backends.
//
//   port:   the lisi::SparseSolver port of a lisi.* CCA component — the
//           call sequence an application makes (paper §7).
//   native: the same package called through its own API on the same
//           local system, as an application without LISI would (§8).
//
// Both arms receive identical inputs and solve to the same tolerance with
// the same method: GMRES(30) + ILU(0) at rtol 1e-6 for pksp and aztec, RCM
// ordered LU for slu, V-cycles to rtol 1e-6 for hymg.  Every arm call is
// timed with the barrier-start / max-over-ranks-end protocol.
#pragma once

#include <memory>
#include <vector>

#include "cca/cca.hpp"
#include "comm/comm.hpp"
#include "lisi/sparse_solver.hpp"
#include "sparse/formats.hpp"

namespace lisibench {

enum class Backend { kPksp = 0, kAztec = 1, kSlu = 2, kHymg = 3 };
inline constexpr int kNumBackends = 4;

struct BackendInfo {
  const char* name;        ///< "pksp", ...
  const char* component;   ///< LISI component class
  const char* portSpan;    ///< span around the whole port arm
  const char* nativeSpan;  ///< span around the whole native arm
  bool iterative;
};
[[nodiscard]] const BackendInfo& backendInfo(Backend b);

/// This rank's block of a workload system.
struct LocalSystem {
  int gridN = 0;
  int globalN = 0;
  int startRow = 0;
  lisi::sparse::CsrMatrix a;  ///< owned rows, global column indices
  std::vector<double> b;
};

/// The paper's 5-point operator u_xx + u_yy - 3 u_x = f on a gridN^2 grid,
/// this rank's block (mesh::assembleLocal, inside a mesh.assemble span).
[[nodiscard]] LocalSystem assemblePaper(const lisi::comm::Comm& comm,
                                        int gridN);

/// One arm of one sample.
struct ArmResult {
  double seconds = 0.0;  ///< barrier start to the last rank's end
  int iterations = 0;    ///< Krylov iterations / V-cycles (0 for slu)
  bool ok = false;       ///< rc 0 and converged, on every rank
  std::vector<double> x;
};

/// Port arm on a fresh component: instantiate, get the port, initialize
/// and configure, setupMatrix, setupRHS, solve, destroy.  Collective.
[[nodiscard]] ArmResult portSolveFresh(const lisi::comm::Comm& comm,
                                       cca::Framework& fw, Backend backend,
                                       const LocalSystem& sys);

/// Native arm on fresh package objects (operator built inside the timed
/// region, as the port arm builds it).  Collective.
[[nodiscard]] ArmResult nativeSolveFresh(const lisi::comm::Comm& comm,
                                         Backend backend,
                                         const LocalSystem& sys);

/// A port component kept across time steps.  Iterative backends start
/// each step from the previous solution ("use_initial_guess").
class PortStepper {
 public:
  /// Instantiate and configure (untimed set-up).  Collective.
  PortStepper(const lisi::comm::Comm& comm, cca::Framework& fw,
              Backend backend, const LocalSystem& sys);
  ~PortStepper();
  PortStepper(const PortStepper&) = delete;
  PortStepper& operator=(const PortStepper&) = delete;

  /// setupMatrix(values of `sys`), setupRHS, solve into `x`.  Timed.
  [[nodiscard]] ArmResult step(const LocalSystem& sys, std::vector<double>& x);

 private:
  lisi::comm::Comm comm_;
  cca::Framework& fw_;
  Backend backend_;
  std::string instance_;
  long handle_ = 0;
  std::shared_ptr<lisi::SparseSolver> port_;
};

/// Native package objects kept across time steps: a same-pattern value
/// refresh per step (DistCsrMatrix::updateValues + SAME_NONZERO_PATTERN for
/// pksp, CrsMatrix::replaceValues for aztec, numeric refactorize for slu,
/// refreshOperator for hymg), warm-started like the port.
class NativeStepper {
 public:
  NativeStepper(const lisi::comm::Comm& comm, Backend backend,
                const LocalSystem& sys);
  ~NativeStepper();
  NativeStepper(const NativeStepper&) = delete;
  NativeStepper& operator=(const NativeStepper&) = delete;

  [[nodiscard]] ArmResult step(const LocalSystem& sys, std::vector<double>& x);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace lisibench
