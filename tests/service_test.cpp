// Tests for the session-scoped solver service: admission control,
// same-operator batching into blocked multi-RHS solves, cross-backend
// session pools, per-session observability attribution, and a concurrent
// stress shape meant to run under TSan (scripts/verify.sh service stage).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "service/service.hpp"
#include "sparse/generate.hpp"

namespace lisi::service {
namespace {

/// Shared global operator for requests: an SPD 2-D Laplacian (CG-friendly;
/// every session rank re-slices its own block rows).
struct Problem {
  std::shared_ptr<sparse::CsrMatrix> a;
  std::vector<double> b;
  int n = 0;
};

Problem makeProblem(int gridN) {
  Problem p;
  p.a = std::make_shared<sparse::CsrMatrix>(
      sparse::laplacian2d(gridN, gridN));
  p.n = p.a->rows;
  p.b.resize(static_cast<std::size_t>(p.n));
  for (int i = 0; i < p.n; ++i) {
    p.b[static_cast<std::size_t>(i)] = 1.0 + 0.25 * (i % 5);
  }
  return p;
}

/// Max-norm of A x - b, computed serially against the global operator.
double residualInf(const sparse::CsrMatrix& a, const std::vector<double>& x,
                   const std::vector<double>& b) {
  double worst = 0.0;
  for (int i = 0; i < a.rows; ++i) {
    double yi = 0.0;
    for (int j = a.rowPtr[static_cast<std::size_t>(i)];
         j < a.rowPtr[static_cast<std::size_t>(i) + 1]; ++j) {
      yi += a.values[static_cast<std::size_t>(j)] *
            x[static_cast<std::size_t>(a.colIdx[static_cast<std::size_t>(j)])];
    }
    worst = std::max(worst, std::abs(yi - b[static_cast<std::size_t>(i)]));
  }
  return worst;
}

SolveRequest cgRequest(const Problem& p, std::uint64_t operatorId) {
  SolveRequest req;
  req.matrix = p.a;
  req.rhs = p.b;
  req.backend = "pksp";
  req.operatorId = operatorId;
  req.stringParams = {{"solver", "cg"}, {"preconditioner", "jacobi"}};
  req.doubleParams = {{"tol", 1e-10}};
  return req;
}

TEST(ServiceConfig, EnvOverridesWithFallback) {
  ::setenv("LISI_SERVICE_SESSIONS", "3", 1);
  ::setenv("LISI_SERVICE_RANKS", "4", 1);
  ::setenv("LISI_SERVICE_QUEUE_DEPTH", "7", 1);
  ::setenv("LISI_SERVICE_BATCH_WINDOW", "not-a-number", 1);
  const ServiceConfig cfg = configFromEnv();
  EXPECT_EQ(cfg.sessions, 3);
  EXPECT_EQ(cfg.ranksPerSession, 4);
  EXPECT_EQ(cfg.queueDepth, 7);
  EXPECT_EQ(cfg.batchWindow, ServiceConfig{}.batchWindow);  // bad -> default
  ::unsetenv("LISI_SERVICE_SESSIONS");
  ::unsetenv("LISI_SERVICE_RANKS");
  ::unsetenv("LISI_SERVICE_QUEUE_DEPTH");
  ::unsetenv("LISI_SERVICE_BATCH_WINDOW");
  const ServiceConfig defaults = configFromEnv();
  EXPECT_EQ(defaults.sessions, ServiceConfig{}.sessions);
  EXPECT_EQ(defaults.ranksPerSession, ServiceConfig{}.ranksPerSession);
}

TEST(Service, ServesOneRequest) {
  const Problem p = makeProblem(12);
  ServiceConfig cfg;
  cfg.sessions = 1;
  cfg.ranksPerSession = 2;
  SolverService svc(cfg);
  auto future = svc.submit(cgRequest(p, 1));
  ASSERT_TRUE(future.has_value());
  svc.start();
  SolveResult res = future->get();
  svc.stop();
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.session, 0);
  ASSERT_EQ(res.x.size(), static_cast<std::size_t>(p.n));
  EXPECT_LT(residualInf(*p.a, res.x, p.b), 1e-6);
  EXPECT_EQ(svc.accepted(), 1);
  EXPECT_EQ(svc.rejected(), 0);
}

TEST(Service, BatchesSameOperatorRequests) {
  const Problem p = makeProblem(10);
  ServiceConfig cfg;
  cfg.sessions = 1;
  cfg.ranksPerSession = 2;
  cfg.batchWindow = 4;
  SolverService svc(cfg);
  // Queue four batchable requests (same operator/backend/params, distinct
  // right-hand sides) BEFORE starting: the session leader must fuse all
  // four into one blocked multi-RHS solve.
  std::vector<std::future<SolveResult>> futures;
  for (int k = 0; k < 4; ++k) {
    SolveRequest req = cgRequest(p, 7);
    for (double& v : req.rhs) v *= static_cast<double>(k + 1);
    auto f = svc.submit(std::move(req));
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  svc.start();
  for (int k = 0; k < 4; ++k) {
    SolveResult res = futures[static_cast<std::size_t>(k)].get();
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.batchLanes, 4);
    // Each lane got ITS solution, not a neighbor's: check against the
    // scaled right-hand side it submitted.
    std::vector<double> b = p.b;
    for (double& v : b) v *= static_cast<double>(k + 1);
    EXPECT_LT(residualInf(*p.a, res.x, b), 1e-5);
  }
  svc.stop();
  EXPECT_EQ(svc.batchesServed(), 1);
}

// A leader starts from a request on the operator its session served last,
// but passes over the queue's front request at most once.  Queued before
// start() with one session and one lane per batch, the service order is
// deterministic: A1 (nothing served yet), A2 (affine; B1 passed over
// once), B1 (passed over already, so served), A3.
TEST(Service, OperatorAffinityBypassesTheFrontAtMostOnce) {
  const Problem pa = makeProblem(8);
  const Problem pb = makeProblem(9);
  ServiceConfig cfg;
  cfg.sessions = 1;
  cfg.ranksPerSession = 2;
  cfg.batchWindow = 1;
  SolverService svc(cfg);
  const std::vector<const Problem*> order = {&pa, &pb, &pa, &pa};
  std::vector<std::future<SolveResult>> futures;
  for (const Problem* p : order) {
    auto f = svc.submit(cgRequest(*p, p == &pa ? 1 : 2));
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  svc.start();
  std::vector<long long> served;
  for (std::size_t k = 0; k < futures.size(); ++k) {
    SolveResult res = futures[k].get();
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_LT(residualInf(*order[k]->a, res.x, order[k]->b), 1e-6);
    served.push_back(res.batchIndex);
  }
  svc.stop();
  // Submission order A1 B1 A2 A3 is served as A1 A2 B1 A3.
  EXPECT_EQ(served, (std::vector<long long>{0, 2, 1, 3}));
}

TEST(Service, AdmissionControlRejectsWhenFull) {
  const Problem p = makeProblem(8);
  ServiceConfig cfg;
  cfg.sessions = 1;
  cfg.ranksPerSession = 2;
  cfg.queueDepth = 2;
  SolverService svc(cfg);  // never started: the queue cannot drain
  auto f1 = svc.submit(cgRequest(p, 1));
  auto f2 = svc.submit(cgRequest(p, 2));
  auto f3 = svc.submit(cgRequest(p, 3));
  EXPECT_TRUE(f1.has_value());
  EXPECT_TRUE(f2.has_value());
  EXPECT_FALSE(f3.has_value());  // rejected, not blocked
  EXPECT_EQ(svc.rejected(), 1);
  EXPECT_EQ(svc.queuedRequests(), 2u);
  svc.stop();  // pool never ran: queued requests resolve with an error
  SolveResult r1 = f1->get();
  EXPECT_FALSE(r1.ok);
  EXPECT_FALSE(r1.error.empty());
  // After stop, submissions are rejected outright.
  EXPECT_FALSE(svc.submit(cgRequest(p, 4)).has_value());
}

TEST(Service, MalformedRequestsResolveWithDiagnostics) {
  const Problem p = makeProblem(8);
  SolverService svc;
  SolveRequest noMatrix;
  auto f1 = svc.submit(std::move(noMatrix));
  ASSERT_TRUE(f1.has_value());
  EXPECT_FALSE(f1->get().ok);

  SolveRequest badRhs = cgRequest(p, 1);
  badRhs.rhs.pop_back();
  auto f2 = svc.submit(std::move(badRhs));
  ASSERT_TRUE(f2.has_value());
  EXPECT_NE(f2->get().error.find("rhs length"), std::string::npos);

  SolveRequest badBackend = cgRequest(p, 1);
  badBackend.backend = "petsc";
  auto f3 = svc.submit(std::move(badBackend));
  ASSERT_TRUE(f3.has_value());
  EXPECT_NE(f3->get().error.find("unknown backend"), std::string::npos);
  svc.stop();
}

TEST(Service, CrossBackendSessionsShareOneWorld) {
  const Problem p = makeProblem(12);
  ServiceConfig cfg;
  cfg.sessions = 2;
  cfg.ranksPerSession = 2;  // 4 ranks total
  cfg.queueDepth = 32;
  SolverService svc(cfg);
  svc.start();
  std::vector<std::future<SolveResult>> futures;
  for (int k = 0; k < 4; ++k) {
    // Alternate backends; different operator ids keep them unbatchable, so
    // the two sessions pick up work independently.
    SolveRequest req;
    req.matrix = p.a;
    req.rhs = p.b;
    req.operatorId = static_cast<std::uint64_t>(k);
    if (k % 2 == 0) {
      req.backend = "pksp";
      req.stringParams = {{"solver", "gmres"}, {"preconditioner", "ilu"}};
      req.doubleParams = {{"tol", 1e-10}};
    } else {
      req.backend = "aztec";
      req.stringParams = {{"solver", "gmres"}, {"preconditioner", "ilu"}};
      req.doubleParams = {{"tol", 1e-10}};
    }
    auto f = svc.submit(std::move(req));
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  for (auto& f : futures) {
    SolveResult res = f.get();
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_GE(res.session, 0);
    EXPECT_LT(res.session, 2);
    EXPECT_LT(residualInf(*p.a, res.x, p.b), 1e-5);
  }
  svc.stop();
  EXPECT_EQ(svc.accepted(), 4);
}

TEST(Service, PerSessionObsAttribution) {
  if (!obs::enabled()) {
    GTEST_SKIP() << "built without LISI_OBS=ON";
  }
  obs::reset();
  const Problem p = makeProblem(10);
  ServiceConfig cfg;
  cfg.sessions = 2;
  cfg.ranksPerSession = 2;
  cfg.queueDepth = 32;
  SolverService svc(cfg);
  // Two unbatchable requests per session's worth of load, queued up front
  // so both sessions have work waiting the moment they come up.
  std::vector<std::future<SolveResult>> futures;
  for (int k = 0; k < 4; ++k) {
    auto f = svc.submit(cgRequest(p, static_cast<std::uint64_t>(k)));
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  svc.start();
  std::set<int> served;
  for (auto& f : futures) {
    const SolveResult res = f.get();
    ASSERT_TRUE(res.ok) << res.error;
    served.insert(res.session);
  }
  svc.stop();

  const obs::Report report = obs::collect();
  // Every service batch span carries a session label, and the labeled
  // sessions must be exactly the ones the results say did the serving
  // (which sessions grab which request is a scheduling race; the
  // attribution of whoever served is not).
  std::set<int> sessions;
  std::uint64_t serviceSpans = 0;
  for (const auto& s : report.sessionSpans) {
    if (s.name == "service.batch") {
      sessions.insert(s.session);
      serviceSpans += s.count;
    }
  }
  // Every session rank records the batch span: 4 batches x 2 ranks.
  EXPECT_EQ(serviceSpans, 8u);
  EXPECT_EQ(sessions, served);
  long long lanes = 0;
  for (const auto& c : report.sessionCounters) {
    if (c.name == "service.lanes") lanes += c.total;
  }
  EXPECT_EQ(lanes, 4);
}

TEST(Service, ConcurrentSubmittersStress) {
  // TSan target: two client threads hammer a two-session pool while it is
  // serving; exercises the queue, the slot handoff, the shared tune cache,
  // and the process-global schedule fallback concurrently.
  const Problem p = makeProblem(8);
  ServiceConfig cfg;
  cfg.sessions = 2;
  cfg.ranksPerSession = 2;
  cfg.queueDepth = 8;  // small on purpose: the reject path must be hit-safe
  cfg.batchWindow = 3;
  SolverService svc(cfg);
  svc.start();
  std::atomic<int> solved{0};
  std::atomic<int> rejectedLocal{0};
  auto client = [&](int seed) {
    for (int k = 0; k < 12; ++k) {
      SolveRequest req = cgRequest(p, static_cast<std::uint64_t>(k % 3));
      for (double& v : req.rhs) v *= 1.0 + 0.1 * static_cast<double>(seed);
      auto f = svc.submit(std::move(req));
      if (!f.has_value()) {
        rejectedLocal.fetch_add(1);
        continue;
      }
      const SolveResult res = f->get();
      ASSERT_TRUE(res.ok) << res.error;
      solved.fetch_add(1);
    }
  };
  std::thread t1(client, 1);
  std::thread t2(client, 2);
  t1.join();
  t2.join();
  svc.stop();
  EXPECT_EQ(solved.load() + rejectedLocal.load(), 24);
  EXPECT_EQ(svc.accepted(), solved.load());
  EXPECT_EQ(svc.rejected(), rejectedLocal.load());
  EXPECT_GT(solved.load(), 0);
}

}  // namespace
}  // namespace lisi::service
