// Session-scoped solver service (the tentpole of the service layer).
//
// The paper's components bind a solver to one communicator for the life of
// the application.  This layer refactors that World-bound model into a
// *service*: the World is split once into a pool of fixed-size session
// sub-communicators, each running its own solver components, and clients
// submit independent solve requests to a shared admission-controlled queue.
// Session leaders pull requests, greedily batch requests against the same
// operator into one multi-RHS solve (the "multi_rhs=blocked" backend path),
// and resolve each request's future with its lane of the block solution.
// A leader prefers requests on the operator its session served last (its
// component is already set up for it); the queue's front request may be
// passed over once that way, never twice.
//
// Concurrency model: SolverService owns one background thread running
// comm::World::run(sessions * ranksPerSession).  Each rank thread splits
// into its session sub-communicator, labels it for the message checker
// (Comm::setLabel) and the observability layer (obs::setThreadSession), and
// loops: the session leader pops a batch from the shared queue and
// broadcasts a work/shutdown token to its peers; all session ranks then
// execute the solve collectively.  Sessions never communicate with each
// other — per-Comm tag windows and collective-schedule pins keep their
// message streams and schedules independent.
//
// Admission control: the queue is bounded (ServiceConfig::queueDepth);
// submit() on a full queue is rejected immediately (returns nullopt)
// instead of blocking the client — the §5.2 "don't wedge the application
// inside the solver" rule applied to scheduling.  submit() before start()
// is allowed and makes rejection and batching deterministic to test: queue
// first, then let the sessions drain.
//
// Runtime knobs (read by configFromEnv, all overridable in code):
//   LISI_SERVICE_SESSIONS     number of session sub-communicators
//   LISI_SERVICE_RANKS        ranks per session
//   LISI_SERVICE_QUEUE_DEPTH  admission-control queue bound
//   LISI_SERVICE_BATCH_WINDOW max same-operator requests fused per solve
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>

#include "support/thread_annotations.hpp"
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sparse/formats.hpp"

namespace lisi::comm {
class Comm;
}

namespace lisi::service {

/// Pool shape and scheduling limits.  Defaults are small on purpose: the
/// service targets many small independent systems (the paper's multi-domain
/// scenario), not one large one.
struct ServiceConfig {
  int sessions = 2;         ///< session sub-communicators in the pool
  int ranksPerSession = 2;  ///< ranks per session
  int queueDepth = 16;      ///< submit() rejects beyond this many queued
  int batchWindow = 4;      ///< max lanes fused into one multi-RHS solve
};

/// ServiceConfig with each field overridden by its LISI_SERVICE_* knob
/// when set (invalid or non-positive values fall back to the default).
[[nodiscard]] ServiceConfig configFromEnv();

/// One solve: a shared global operator, this request's right-hand side,
/// and the backend/parameter selection.  Requests are batchable into one
/// blocked multi-RHS solve when operatorId, matrix, backend, and every
/// parameter list compare equal.
struct SolveRequest {
  /// Global square operator with global column indices.  shared_ptr so a
  /// client can enqueue many requests against one assembled matrix without
  /// copies; pointer identity doubles as part of the batch key.
  std::shared_ptr<const sparse::CsrMatrix> matrix;
  std::vector<double> rhs;      ///< global right-hand side (matrix->rows)
  /// "pksp" | "aztec" | "slu" | "hymg", or a dlopen-loaded backend's CCA
  /// class name ("plugin.<name>", see src/plugin).
  std::string backend = "pksp";
  std::uint64_t operatorId = 0; ///< client-chosen operator identity
  std::vector<std::pair<std::string, std::string>> stringParams;
  std::vector<std::pair<std::string, int>> intParams;
  std::vector<std::pair<std::string, double>> doubleParams;
};

/// Outcome delivered through the request's future.
struct SolveResult {
  bool ok = false;           ///< solve ran and the backend returned success
  std::string error;         ///< failure description when !ok
  std::vector<double> x;     ///< global solution (matrix->rows entries)
  int iterations = 0;        ///< batch aggregate (lane maximum)
  double residualNorm = 0.0; ///< batch aggregate (lane maximum)
  bool converged = false;
  int session = -1;          ///< session that served the request
  int batchLanes = 1;        ///< lanes fused into the carrying solve
  long long batchIndex = -1; ///< service-wide order of the carrying solve
  double queueSeconds = 0.0; ///< submit -> dequeue wait
  double solveSeconds = 0.0; ///< dequeue -> futures-resolved service time
};

/// The service.  Lifecycle: construct (accepts submissions immediately),
/// start() the session pool, stop() to drain and join.  The destructor
/// stops.  Thread-safe: submit() may be called from any thread.
class SolverService {
 public:
  explicit SolverService(ServiceConfig cfg = configFromEnv());
  ~SolverService();

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Enqueue a request.  Returns the result future, or nullopt when
  /// admission control rejects it (queue full, or the service is
  /// stopping).  A malformed request (no matrix, size mismatch, unknown
  /// backend) is *accepted* and resolves immediately with ok = false so
  /// the caller gets the diagnostic through the normal channel.
  [[nodiscard]] std::optional<std::future<SolveResult>> submit(
      SolveRequest req);

  /// Launch the session pool (idempotent).  Requests queued before start()
  /// are served as soon as the sessions come up.
  void start();

  /// Drain every queued request, shut the sessions down, join the pool
  /// thread.  Requests submitted after stop() begins are rejected.  If the
  /// pool was never started, queued requests resolve with ok = false.
  void stop();

  [[nodiscard]] bool running() const;
  [[nodiscard]] const ServiceConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t queuedRequests() const;

  // Lifetime statistics (monotonic, readable at any time).  Relaxed loads:
  // pure counters — no reader infers the state of any other memory from
  // them, so ordering buys nothing (pairs with the relaxed fetch_adds).
  [[nodiscard]] long long accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] long long rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  /// Multi-RHS solves executed (each serves >= 1 requests).
  [[nodiscard]] long long batchesServed() const {
    return batches_.load(std::memory_order_relaxed);
  }

 private:
  struct Pending;
  struct Batch;
  struct SessionWorker;

  void rankBody(comm::Comm& world);
  void serveBatch(const comm::Comm& sc, int session, SessionWorker& worker,
                  Batch& batch);
  /// Next batch for a session whose previous batch was `last` (null for
  /// none); null once stopping and drained.
  [[nodiscard]] std::shared_ptr<Batch> popBatch(const Batch* last);
  void failAllQueued(const std::string& reason);

  ServiceConfig cfg_;
  mutable support::AnnotatedMutex mutex_;
  std::condition_variable cv_;
  std::deque<std::unique_ptr<Pending>> queue_ LISI_GUARDED_BY(mutex_);
  bool accepting_ LISI_GUARDED_BY(mutex_) = true;
  bool stopping_ LISI_GUARDED_BY(mutex_) = false;

  /// Leader -> peer batch handoff, one slot per session.
  support::AnnotatedMutex slotMutex_;
  std::vector<std::shared_ptr<Batch>> slots_ LISI_GUARDED_BY(slotMutex_);

  std::thread pool_;
  std::atomic<bool> running_{false};
  std::atomic<long long> accepted_{0};
  std::atomic<long long> rejected_{0};
  std::atomic<long long> batches_{0};
};

}  // namespace lisi::service
