// Adapter from a lisi_abi_v1 function table to the LISI SparseSolver port.
//
// The adapter subclasses detail::SolverComponentBase, so everything the
// built-in backends get — input-format adaptation, the operator-change
// contract, the precision/tune policy resolution, status reporting, obs
// spans — works unchanged for plugins.  Only backendSolve differs: instead
// of calling a C++ library it walks the plugin's C function table, and the
// distributed pieces (SpMV, reductions) flow BACK across the boundary
// through the host callback struct, so the plugin runs on the host's
// deterministic kernels and schedules.  That is what makes a plugin solve
// bitwise comparable to a built-in one (tests/plugin_test.cpp holds the
// refsolver to exactly that).
#include <cstdint>
#include <span>

#include "lisi/solver_base.hpp"
#include "plugin/plugin.hpp"
#include "support/error.hpp"

namespace lisi::plugin {
namespace {

// Unqualified `detail::` would find lisi::plugin::detail (the factory hook
// in plugin.hpp), not the solver-base machinery this adapter extends.
namespace base = ::lisi::detail;

/// Callback context: points at the SolveContext for the duration of one
/// backendSolve (the ABI restricts callback use to solve(); outside a solve
/// ctx is null and the callbacks fail with LISI_ABI_ERR_STATE).
struct HostBridge {
  const base::SolveContext* ctx = nullptr;
};

extern "C" int32_t lisiPluginHostApply(void* p, const double* x, double* y,
                                       int32_t localRows) {
  auto* bridge = static_cast<HostBridge*>(p);
  if (bridge == nullptr || bridge->ctx == nullptr ||
      bridge->ctx->matrix == nullptr) {
    return LISI_ABI_ERR_STATE;
  }
  if (x == nullptr || y == nullptr || localRows != bridge->ctx->localRows) {
    return LISI_ABI_ERR_ARG;
  }
  // No exception may cross the C boundary: translate to an error code.
  try {
    const auto n = static_cast<std::size_t>(localRows);
    bridge->ctx->matrix->spmv(std::span<const double>(x, n),
                              std::span<double>(y, n));
  } catch (...) {
    return LISI_ABI_ERR_INTERNAL;
  }
  return LISI_ABI_OK;
}

extern "C" int32_t lisiPluginHostAllreduce(void* p, const double* in,
                                           double* out, int32_t n) {
  auto* bridge = static_cast<HostBridge*>(p);
  if (bridge == nullptr || bridge->ctx == nullptr) return LISI_ABI_ERR_STATE;
  if (in == nullptr || out == nullptr || n < 0) return LISI_ABI_ERR_ARG;
  try {
    const auto count = static_cast<std::size_t>(n);
    bridge->ctx->comm->allreduce(std::span<const double>(in, count),
                                 std::span<double>(out, count),
                                 comm::ReduceOp::kSum);
  } catch (...) {
    return LISI_ABI_ERR_INTERNAL;
  }
  return LISI_ABI_OK;
}

/// ABI codes mirror lisi::ErrorCode values; anything out of range (a buggy
/// plugin inventing codes) degrades to the given fallback.
int mapAbiError(int32_t rc, ErrorCode fallback) {
  switch (rc) {
    case LISI_ABI_ERR_ARG:
      return static_cast<int>(ErrorCode::kInvalidArgument);
    case LISI_ABI_ERR_STATE:
      return static_cast<int>(ErrorCode::kBadState);
    case LISI_ABI_ERR_UNSUPPORTED:
      return static_cast<int>(ErrorCode::kUnsupported);
    case LISI_ABI_ERR_NUMERIC:
      return static_cast<int>(ErrorCode::kNumericFailure);
    case LISI_ABI_ERR_INTERNAL:
      return static_cast<int>(ErrorCode::kInternal);
    default:
      return static_cast<int>(fallback);
  }
}

class PluginSolverPort final : public base::SolverComponentBase {
 public:
  explicit PluginSolverPort(std::shared_ptr<const LoadedPlugin> plugin)
      : plugin_(std::move(plugin)) {}
  ~PluginSolverPort() override {
    if (inst_ != nullptr) plugin_->table->destroy(inst_);
  }

 protected:
  const char* backendName() const override {
    return plugin_->table->solver_name;
  }

  // String-keyed options are the plugin's to judge (the LIS idiom): accept
  // everything here and let set_option return LISI_ABI_ERR_UNSUPPORTED for
  // keys the plugin does not know — the host-side keys (tune, precision,
  // multi_rhs, ...) land there too and are skipped by design.
  bool acceptsParam(const std::string&) const override { return true; }

  int backendSolve(const base::SolveContext& ctx, std::span<const double> b,
                   std::span<double> x, base::BackendStats& stats) override {
    if (ctx.matrix == nullptr) {
      // ABI v1 has no matrix-free shape: apply_operator serves the plugin,
      // not the other way around (documented limitation, docs/PLUGIN_ABI.md).
      return static_cast<int>(ErrorCode::kUnsupported);
    }
    bridge_.ctx = &ctx;
    struct BridgeReset {
      HostBridge* bridge;
      ~BridgeReset() { bridge->ctx = nullptr; }
    } reset{&bridge_};

    const lisi_abi_v1* t = plugin_->table;
    if (inst_ == nullptr) {
      host_.ctx = &bridge_;
      host_.rank = ctx.comm->rank();
      host_.nranks = ctx.comm->size();
      host_.apply_operator = &lisiPluginHostApply;
      host_.allreduce_sum = &lisiPluginHostAllreduce;
      const int32_t rc = t->create(&host_, &inst_);
      if (rc != LISI_ABI_OK || inst_ == nullptr) {
        inst_ = nullptr;
        return mapAbiError(rc, ErrorCode::kInternal);
      }
    }

    // Forward the whole parameter table every solve (options are cheap and
    // the plugin sees updates made between solves).  The resolved precision
    // mode rides along as a read-only hint.
    for (const auto& [key, value] : paramTable()) {
      const int32_t rc = t->set_option(inst_, key.c_str(), value.c_str());
      if (rc != LISI_ABI_OK && rc != LISI_ABI_ERR_UNSUPPORTED) {
        return mapAbiError(rc, ErrorCode::kInvalidArgument);
      }
    }
    {
      const char* mode =
          ctx.precision == prec::Mode::kMixed ? "mixed" : "double";
      const int32_t rc = t->set_option(inst_, "lisi_precision", mode);
      if (rc != LISI_ABI_OK && rc != LISI_ABI_ERR_UNSUPPORTED) {
        return mapAbiError(rc, ErrorCode::kInvalidArgument);
      }
    }

    // Push the operator on structure or value change; kSameOperator replays
    // whatever the plugin kept (its factorization/preconditioner stays
    // valid, mirroring the built-in reuse contract).  ABI v1 has no
    // separate value-refresh entry: re-sending the same pattern IS the
    // kSameStructure path, and the plugin may diff it against what it kept.
    if (ctx.change != base::OperatorChange::kSameOperator ||
        !operatorPushed_) {
      static_assert(sizeof(int) == sizeof(int32_t),
                    "lisi_abi_v1 assumes 32-bit int indices");
      // The ABI takes global column indices: hand over a global copy.
      const sparse::CsrMatrix a = ctx.matrix->globalBlock();
      const int32_t rc = t->set_operator(
          inst_, static_cast<int32_t>(ctx.localRows),
          static_cast<int32_t>(ctx.globalRows),
          static_cast<int32_t>(ctx.startRow),
          reinterpret_cast<const int32_t*>(a.rowPtr.data()),
          reinterpret_cast<const int32_t*>(a.colIdx.data()),
          a.values.data());
      if (rc != LISI_ABI_OK) {
        return mapAbiError(rc, ErrorCode::kInvalidArgument);
      }
      operatorPushed_ = true;
    }

    lisi_abi_solve_info_v1 info{};
    const int32_t rc = t->solve(inst_, b.data(), x.data(),
                                static_cast<int32_t>(ctx.localRows), &info);
    if (rc != LISI_ABI_OK && rc != LISI_ABI_ERR_NUMERIC) {
      return mapAbiError(rc, ErrorCode::kInternal);
    }
    stats.iterations = info.iterations;
    stats.residualNorm = info.residual_norm;
    // Numeric failure and non-convergence both flow through stats.converged
    // so the base still fills the status array (the built-in contract).
    stats.converged = rc == LISI_ABI_OK && info.converged != 0;
    return static_cast<int>(ErrorCode::kOk);
  }

 private:
  std::shared_ptr<const LoadedPlugin> plugin_;
  void* inst_ = nullptr;
  lisi_abi_host_v1 host_{};  ///< stable address for the instance lifetime
  HostBridge bridge_;
  bool operatorPushed_ = false;
};

class PluginSolverComponent final : public cca::Component {
 public:
  explicit PluginSolverComponent(std::shared_ptr<const LoadedPlugin> plugin)
      : plugin_(std::move(plugin)) {}

  void setServices(cca::Services& services) override {
    auto port = std::make_shared<PluginSolverPort>(plugin_);
    port->attachServices(&services);
    services.addProvidesPort(port, kSparseSolverPortName,
                             kSparseSolverPortType);
    services.registerUsesPort(kMatrixFreePortName, kMatrixFreePortType);
  }

 private:
  std::shared_ptr<const LoadedPlugin> plugin_;
};

}  // namespace

namespace detail {
std::shared_ptr<cca::Component> makePluginComponent(
    std::shared_ptr<const LoadedPlugin> plugin) {
  return std::make_shared<PluginSolverComponent>(std::move(plugin));
}
}  // namespace detail

}  // namespace lisi::plugin
