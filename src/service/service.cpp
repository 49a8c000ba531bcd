#include "service/service.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <map>

#include "cca/cca.hpp"
#include "comm/comm.hpp"
#include "comm/comm_handle.hpp"
#include "lisi/sparse_solver.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"

namespace lisi::service {
namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

int envInt(const char* name, int fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  char* end = nullptr;
  const long v = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0' || v <= 0 || v > 1 << 20) return fallback;
  return static_cast<int>(v);
}

/// Component class for a backend name; empty when unknown.  Besides the
/// four built-in short names, any "plugin.<name>" class the dlopen registry
/// (src/plugin) has registered is a valid backend — per-session backend
/// selection reaches plugins exactly like built-ins.
std::string backendClass(const std::string& backend) {
  if (backend == "pksp") return kPkspComponentClass;
  if (backend == "aztec") return kAztecComponentClass;
  if (backend == "slu") return kSluComponentClass;
  if (backend == "hymg") return kHymgComponentClass;
  if (backend.rfind("plugin.", 0) == 0 &&
      cca::Framework::isClassRegistered(backend)) {
    return backend;
  }
  return {};
}

/// Two requests may share one blocked multi-RHS solve: same operator (by
/// declared id AND by pointer), same backend, identical parameter lists,
/// compatible sizes.
bool batchable(const SolveRequest& a, const SolveRequest& b) {
  return a.operatorId == b.operatorId && a.matrix.get() == b.matrix.get() &&
         a.backend == b.backend && a.rhs.size() == b.rhs.size() &&
         a.stringParams == b.stringParams && a.intParams == b.intParams &&
         a.doubleParams == b.doubleParams;
}

/// This rank's block of the near-even block-row partition of n rows over
/// p ranks — the same partition mesh::assembleLocal uses.
struct RowRange {
  int start = 0;
  int count = 0;
};

RowRange rowRange(int n, int rank, int nranks) {
  const int base = n / nranks;
  const int rem = n % nranks;
  RowRange rr;
  rr.count = base + (rank < rem ? 1 : 0);
  rr.start = rank * base + std::min(rank, rem);
  return rr;
}

/// Copy rows [rr.start, rr.start + rr.count) of a global CSR operator into
/// a local block (column indices stay global, as setupMatrix expects).
sparse::CsrMatrix sliceRows(const sparse::CsrMatrix& g, RowRange rr) {
  sparse::CsrMatrix local;
  local.rows = rr.count;
  local.cols = g.cols;
  local.rowPtr.resize(static_cast<std::size_t>(rr.count) + 1);
  const int nzBegin = g.rowPtr[static_cast<std::size_t>(rr.start)];
  const int nzEnd = g.rowPtr[static_cast<std::size_t>(rr.start + rr.count)];
  for (int i = 0; i <= rr.count; ++i) {
    local.rowPtr[static_cast<std::size_t>(i)] =
        g.rowPtr[static_cast<std::size_t>(rr.start + i)] - nzBegin;
  }
  local.colIdx.assign(g.colIdx.begin() + nzBegin, g.colIdx.begin() + nzEnd);
  local.values.assign(g.values.begin() + nzBegin, g.values.begin() + nzEnd);
  return local;
}

}  // namespace

ServiceConfig configFromEnv() {
  ServiceConfig cfg;
  cfg.sessions = envInt("LISI_SERVICE_SESSIONS", cfg.sessions);
  cfg.ranksPerSession = envInt("LISI_SERVICE_RANKS", cfg.ranksPerSession);
  cfg.queueDepth = envInt("LISI_SERVICE_QUEUE_DEPTH", cfg.queueDepth);
  cfg.batchWindow = envInt("LISI_SERVICE_BATCH_WINDOW", cfg.batchWindow);
  return cfg;
}

/// One queued request: payload, its future's feeding end, submit time.
struct SolverService::Pending {
  SolveRequest req;
  std::promise<SolveResult> promise;
  Clock::time_point enqueued;
  bool bypassed = false;  ///< passed over once at the queue front
};

/// One unit of session work: the lanes of a blocked multi-RHS solve.
struct SolverService::Batch {
  std::vector<std::unique_ptr<Pending>> lanes;
  Clock::time_point dequeued;
};

/// Per-rank, per-session solver state.  Components are cached by backend
/// so consecutive batches against the same backend reuse the component
/// (and its operator-change detection: a repeated matrix degenerates to a
/// value-only or no-op setup).
struct SolverService::SessionWorker {
  cca::Framework fw;
  long handle = 0;
  std::map<std::string, std::shared_ptr<SparseSolver>> solvers;

  std::shared_ptr<SparseSolver> solver(const std::string& backend) {
    const auto it = solvers.find(backend);
    if (it != solvers.end()) return it->second;
    const std::string cls = backendClass(backend);
    if (cls.empty()) return nullptr;
    const std::string name = "svc_" + backend;
    fw.instantiate(name, cls);
    auto s = fw.getProvidesPortAs<SparseSolver>(name, kSparseSolverPortName);
    if (s->initialize(handle) != 0) return nullptr;
    solvers.emplace(backend, s);
    return s;
  }
};

SolverService::SolverService(ServiceConfig cfg) : cfg_(cfg) {
  LISI_CHECK(cfg_.sessions >= 1 && cfg_.ranksPerSession >= 1 &&
                 cfg_.queueDepth >= 1 && cfg_.batchWindow >= 1,
             "SolverService: every ServiceConfig field must be positive");
  registerSolverComponents();
  slots_.assign(static_cast<std::size_t>(cfg_.sessions), nullptr);
}

SolverService::~SolverService() { stop(); }

std::optional<std::future<SolveResult>> SolverService::submit(
    SolveRequest req) {
  // Structural validation happens here, on the client thread, so sessions
  // never see a request they cannot partition.
  std::string bad;
  if (req.matrix == nullptr) {
    bad = "request has no matrix";
  } else if (req.matrix->rows != req.matrix->cols) {
    bad = "matrix is not square";
  } else if (req.rhs.size() != static_cast<std::size_t>(req.matrix->rows)) {
    bad = "rhs length does not match matrix rows";
  } else if (backendClass(req.backend).empty()) {
    bad = "unknown backend \"" + req.backend + "\"";
  } else if (req.matrix->rows < cfg_.ranksPerSession) {
    bad = "matrix has fewer rows than ranks per session";
  }

  auto pending = std::make_unique<Pending>();
  pending->req = std::move(req);
  pending->enqueued = Clock::now();
  std::future<SolveResult> future = pending->promise.get_future();

  if (!bad.empty()) {
    // Malformed requests are "accepted" and resolve immediately: the
    // diagnostic arrives through the same channel as a backend failure.
    SolveResult res;
    res.error = std::move(bad);
    pending->promise.set_value(std::move(res));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    return future;
  }

  {
    support::MutexLock lock(mutex_);
    if (!accepting_ ||
        queue_.size() >= static_cast<std::size_t>(cfg_.queueDepth)) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;  // admission control: reject, never block
    }
    queue_.push_back(std::move(pending));
    accepted_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_.notify_one();
  return future;
}

void SolverService::start() {
  support::MutexLock lock(mutex_);
  if (running_.load() || stopping_) return;
  running_.store(true);
  const int nranks = cfg_.sessions * cfg_.ranksPerSession;
  pool_ = std::thread([this, nranks] {
    comm::World::run(nranks, [this](comm::Comm& world) { rankBody(world); });
  });
}

void SolverService::stop() {
  {
    support::MutexLock lock(mutex_);
    if (stopping_ && !pool_.joinable()) return;
    accepting_ = false;
    stopping_ = true;
  }
  cv_.notify_all();
  if (pool_.joinable()) pool_.join();
  running_.store(false);
  // Leaders drain the queue before shutting down, so anything left here
  // means the pool never started.
  failAllQueued("service stopped before serving this request");
}

bool SolverService::running() const { return running_.load(); }

std::size_t SolverService::queuedRequests() const {
  support::MutexLock lock(mutex_);
  return queue_.size();
}

void SolverService::failAllQueued(const std::string& reason) {
  std::deque<std::unique_ptr<Pending>> orphans;
  {
    support::MutexLock lock(mutex_);
    orphans.swap(queue_);
  }
  for (auto& p : orphans) {
    SolveResult res;
    res.error = reason;
    p->promise.set_value(std::move(res));
  }
}

std::shared_ptr<SolverService::Batch> SolverService::popBatch(
    const Batch* last) {
  support::CondLock lock(mutex_);
  // Manual wait loop rather than the predicate overload: the analysis
  // cannot see the capability inside a predicate lambda, and the loop body
  // reads guarded state directly under the held lock.
  while (!stopping_ && queue_.empty()) cv_.wait(lock.native());
  if (queue_.empty()) return nullptr;  // stopping and fully drained

  // Operator affinity: start from the first request that can share the
  // operator this session served last, so its component keeps its setup
  // instead of re-adapting on every switch.  The front request may be
  // passed over once; after that it is served next, whatever it holds.
  auto first = queue_.begin();
  if (last != nullptr && !(*first)->bypassed) {
    const SolveRequest& prev = last->lanes.front()->req;
    const auto affine =
        std::find_if(queue_.begin(), queue_.end(),
                     [&](const auto& q) { return batchable(prev, q->req); });
    if (affine != queue_.end() && affine != first) {
      (*first)->bypassed = true;
      first = affine;
    }
  }

  auto batch = std::make_shared<Batch>();
  batch->dequeued = Clock::now();
  batch->lanes.push_back(std::move(*first));
  auto it = queue_.erase(first);
  // Greedy same-operator batching: pull every later queued request that
  // can share this solve, up to the batch window, preserving the relative
  // order of everything left behind.  (Requests ahead of an affine start
  // cannot share it: batchable is an equivalence.)
  const SolveRequest& key = batch->lanes.front()->req;
  for (;
       it != queue_.end() &&
       batch->lanes.size() < static_cast<std::size_t>(cfg_.batchWindow);) {
    if (batchable(key, (*it)->req)) {
      batch->lanes.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  return batch;
}

/// Everything the session does for one batch once all its ranks hold the
/// Batch pointer.  Collective over `sc`; the leader (session rank 0)
/// resolves the futures.
void SolverService::serveBatch(const comm::Comm& sc, int session,
                               SessionWorker& worker, Batch& batch) {
  const int nv = static_cast<int>(batch.lanes.size());
  obs::Span span("service.batch", static_cast<std::uint64_t>(nv));
  const SolveRequest& req0 = batch.lanes.front()->req;
  const int n = req0.matrix->rows;
  const RowRange rr = rowRange(n, sc.rank(), sc.size());
  const auto m = static_cast<std::size_t>(rr.count);

  int rc = 0;
  std::shared_ptr<SparseSolver> solver = worker.solver(req0.backend);
  if (solver == nullptr) rc = 1;

  if (rc == 0) {
    const sparse::CsrMatrix local = sliceRows(*req0.matrix, rr);
    rc = solver->setStartRow(rr.start);
    if (rc == 0) rc = solver->setLocalRows(rr.count);
    if (rc == 0) rc = solver->setGlobalCols(n);
    // The batched path is the point of the service; a request may still
    // override multi_rhs (e.g. "sequential" for A/B runs) via its params.
    if (rc == 0) rc = solver->set("multi_rhs", "blocked");
    for (const auto& [k, v] : req0.stringParams) {
      if (rc == 0) rc = solver->set(k, v);
    }
    for (const auto& [k, v] : req0.intParams) {
      if (rc == 0) rc = solver->setInt(k, v);
    }
    for (const auto& [k, v] : req0.doubleParams) {
      if (rc == 0) rc = solver->setDouble(k, v);
    }
    if (rc == 0) {
      rc = solver->setupMatrix(
          RArray<const double>(local.values.data(), local.nnz()),
          RArray<const int>(local.rowPtr.data(), local.rows + 1),
          RArray<const int>(local.colIdx.data(), local.nnz()),
          SparseStruct::kCsr, local.rows + 1, local.nnz());
    }
    if (rc == 0) {
      std::vector<double> b(m * static_cast<std::size_t>(nv));
      for (int k = 0; k < nv; ++k) {
        const auto& rhs = batch.lanes[static_cast<std::size_t>(k)]->req.rhs;
        std::copy(rhs.begin() + rr.start, rhs.begin() + rr.start + rr.count,
                  b.begin() + static_cast<std::ptrdiff_t>(
                                  static_cast<std::size_t>(k) * m));
      }
      rc = solver->setupRHS(
          RArray<const double>(b.data(), static_cast<int>(b.size())),
          rr.count, nv);
    }
  }
  // Agree on the outcome so every rank takes the same collective path even
  // if only one rank's setup failed.
  rc = sc.allreduceValue(rc, comm::ReduceOp::kMax);

  std::vector<double> x(m * static_cast<std::size_t>(nv), 0.0);
  std::array<double, kStatusLength> st{};
  if (rc == 0) {
    const int solveRc =
        solver->solve(RArray<double>(x.data(), static_cast<int>(x.size())),
                      RArray<double>(st.data(), kStatusLength), rr.count,
                      kStatusLength);
    rc = sc.allreduceValue(solveRc, comm::ReduceOp::kMax);
  }

  // One gatherv carries every lane: the leader receives each rank's
  // vector-major block (lane k's rows at [k*count, (k+1)*count)) and
  // scatters the lanes into global solutions by the known row partition.
  std::vector<std::vector<double>> gathered;
  if (rc == 0) {
    const std::vector<double> all = sc.gatherv(std::span<const double>(x), 0);
    if (sc.rank() == 0) {
      gathered.assign(static_cast<std::size_t>(nv),
                      std::vector<double>(static_cast<std::size_t>(n)));
      const double* src = all.data();
      for (int r = 0; r < sc.size(); ++r) {
        const RowRange rrR = rowRange(n, r, sc.size());
        for (auto& lane : gathered) {
          std::copy_n(src, rrR.count, lane.begin() + rrR.start);
          src += rrR.count;
        }
      }
    }
  }

  if (sc.rank() != 0) return;
  const long long index = batches_.fetch_add(1, std::memory_order_relaxed);
  obs::count("service.batches");
  obs::count("service.lanes", nv);
  const Clock::time_point done = Clock::now();
  for (int k = 0; k < nv; ++k) {
    Pending& lane = *batch.lanes[static_cast<std::size_t>(k)];
    SolveResult res;
    res.session = session;
    res.batchLanes = nv;
    res.batchIndex = index;
    res.queueSeconds = secondsSince(lane.enqueued, batch.dequeued);
    res.solveSeconds = secondsSince(batch.dequeued, done);
    if (rc == 0) {
      res.ok = true;
      res.x = std::move(gathered[static_cast<std::size_t>(k)]);
      res.iterations = static_cast<int>(st[kStatusIterations]);
      res.residualNorm = st[kStatusResidualNorm];
      res.converged = st[kStatusConverged] != 0.0;
    } else {
      res.error = "backend \"" + req0.backend + "\" failed (rc=" +
                  std::to_string(rc) + ")";
    }
    lane.promise.set_value(std::move(res));
  }
}

void SolverService::rankBody(comm::Comm& world) {
  const int session = world.rank() / cfg_.ranksPerSession;
  comm::Comm sc = world.split(session, world.rank() % cfg_.ranksPerSession);
  sc.setLabel("service.session" + std::to_string(session));
  obs::setThreadSession(session);

  SessionWorker worker;
  worker.handle = comm::registerHandle(sc);
  std::shared_ptr<Batch> batch;  // the session's last batch between pops
  for (;;) {
    int token = 0;
    if (sc.rank() == 0) {
      batch = popBatch(batch.get());
      {
        support::MutexLock lock(slotMutex_);
        slots_[static_cast<std::size_t>(session)] = batch;
      }
      // lisi-lint: allow(rank-branch) both arms issue the same bcastValue; signatures match and LISI_COMM_CHECK verifies it at runtime
      token = sc.bcastValue(batch ? 1 : 0, 0);
    } else {
      // lisi-lint: allow(rank-branch) leader/peer arms of one lockstep bcast (see above)
      token = sc.bcastValue(0, 0);
      support::MutexLock lock(slotMutex_);
      batch = slots_[static_cast<std::size_t>(session)];
    }
    if (token == 0 || batch == nullptr) break;  // shutdown token
    try {
      serveBatch(sc, session, worker, *batch);
    } catch (const std::exception& e) {
      // A thrown batch is fatal for its lanes but not for the session.
      // (Exceptions out of a *collective* would desynchronize the session;
      // the backends return codes instead of throwing on those paths.)
      if (sc.rank() == 0) {
        for (auto& lane : batch->lanes) {
          SolveResult res;
          res.session = session;
          res.error = std::string("batch threw: ") + e.what();
          try {
            lane->promise.set_value(std::move(res));
          } catch (const std::future_error&) {
            // already resolved before the throw
          }
        }
      }
    }
  }
  comm::releaseHandle(worker.handle);
  obs::setThreadSession(-1);
}

}  // namespace lisi::service
