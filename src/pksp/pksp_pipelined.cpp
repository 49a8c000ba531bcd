// Communication-hiding (pipelined) Krylov kernels for PKSP.
//
// Both loops restructure the iteration so every global reduction is a
// split-phase distDotsBegin/End whose wait is overlapped with the SpMV and
// preconditioner applications of the same iteration — on the wire while the
// FLOPs run, instead of serializing after them.  MiniMPI has no progress
// thread, so the overlap region pokes PendingDots::test() between work
// items to drive the middle schedule rounds.
//
// Pipelined CG follows Ghysels & Vanroose (single fused three-lane
// reduction per iteration); pipelined BiCGStab is a two-phase
// reformulation in the style of Cools & Vanroose where each of the two
// reductions hides behind one of the iteration's two operator
// applications.  Iterates match the classic loops in exact arithmetic but
// are produced by different recurrences, so finite-precision results agree
// to rounding, not bitwise.  Convergence criterion and monitor cadence are
// identical to the classic loops: iteration k reports the preconditioned
// residual norm of iterate x_k.
#include <array>
#include <cmath>

#include "pksp/pksp_internal.hpp"
#include "sparse/dist_csr.hpp"

namespace pksp::detail {
namespace {

using lisi::comm::Comm;
using lisi::sparse::distDotsBegin;
using lisi::sparse::distDotsEnd;
using lisi::sparse::DotArgs;
using lisi::sparse::PendingDots;

using Vec = std::vector<double>;

std::span<const double> cspan(const Vec& v) {
  return std::span<const double>(v);
}

}  // namespace

SolveReport runPipelinedCg(const Comm& comm, const LinearOperator& a,
                           const Preconditioner& m, std::span<const double> b,
                           std::span<double> x, const Tolerances& tol) {
  // Ghysels–Vanroose pipelined preconditioned CG.  Invariants entering the
  // reduction of iteration k (all for the current iterate x_k):
  //   r = b - A x,   u = M^{-1} r,   w = A u
  // One fused reduction delivers { <u,u>, <r,u>, <w,u> } and overlaps with
  //   mm = M^{-1} w,  nn = A mm,
  // after which the recurrences
  //   z <- nn + beta z   (= A M^{-1} A p direction chain)
  //   q <- mm + beta q   (= M^{-1} A p)
  //   s <- w  + beta s   (= A p)
  //   p <- u  + beta p
  // advance x, r, u, w without any further communication.  <u,u> rides
  // along so the monitored norm is available from the same reduction.
  const std::size_t n = x.size();
  Vec r(n), u(n), w(n), mm(n), nn(n), z(n), q(n), s(n), p(n);
  applyResidual(a, b, x, r);
  m.apply(cspan(r), std::span<double>(u));
  a.apply(cspan(u), std::span<double>(w));

  Monitor mon;
  SolveReport rep;
  double gammaOld = 0.0;  // <r,u> of the previous iteration
  double alphaOld = 0.0;

  for (int it = 0; it <= tol.maxits; ++it) {
    const std::array<DotArgs, 3> lanes{DotArgs{cspan(u), cspan(u)},
                                       DotArgs{cspan(r), cspan(u)},
                                       DotArgs{cspan(w), cspan(u)}};
    PendingDots pending = distDotsBegin(comm, std::span<const DotArgs>(lanes));
    // Overlap region: the preconditioner and SpMV of this iteration.
    m.apply(cspan(w), std::span<double>(mm));
    (void)pending.test();  // drive middle reduction rounds
    a.apply(cspan(mm), std::span<double>(nn));
    const std::span<const double> dots = distDotsEnd(pending);
    const double uu = dots[0];
    const double gamma = dots[1];
    const double delta = dots[2];

    const double znorm = std::sqrt(uu);
    if (it == 0) {
      mon.start(znorm, tol);
      if (tol.monitor) tol.monitor(0, znorm);
      rep.residualNorm = znorm;
      rep.reason = mon.test(znorm);
      if (rep.reason != PKSP_ITERATING) {
        if (rep.reason == PKSP_DIVERGED_NAN) return rep;
        rep.reason = znorm == 0.0 ? PKSP_CONVERGED_ATOL : rep.reason;
        return rep;
      }
    } else {
      // znorm is ||M^{-1}(b - A x_it)|| for the x already written back, so
      // the check point matches classic CG's (same history length).
      if (tol.monitor) tol.monitor(it, znorm);
      rep.iterations = it;
      rep.residualNorm = znorm;
      rep.reason = mon.test(znorm);
      if (rep.reason != PKSP_ITERATING) return rep;
      if (it == tol.maxits) break;
    }

    double beta;
    double alpha;
    if (it == 0) {
      beta = 0.0;
      if (delta == 0.0 || isBad(delta)) {
        rep.reason = PKSP_DIVERGED_BREAKDOWN;
        return rep;
      }
      alpha = gamma / delta;
    } else {
      if (gammaOld == 0.0 || alphaOld == 0.0) {
        rep.reason = PKSP_DIVERGED_BREAKDOWN;
        return rep;
      }
      beta = gamma / gammaOld;
      const double denom = delta - beta * gamma / alphaOld;
      if (denom == 0.0 || isBad(denom)) {
        rep.reason = PKSP_DIVERGED_BREAKDOWN;
        return rep;
      }
      alpha = gamma / denom;
    }
    if (isBad(alpha)) {
      rep.reason = PKSP_DIVERGED_BREAKDOWN;
      return rep;
    }
    for (std::size_t i = 0; i < n; ++i) {
      z[i] = nn[i] + beta * z[i];
      q[i] = mm[i] + beta * q[i];
      s[i] = w[i] + beta * s[i];
      p[i] = u[i] + beta * p[i];
      x[i] += alpha * p[i];
      r[i] -= alpha * s[i];
      u[i] -= alpha * q[i];
      w[i] -= alpha * z[i];
    }
    gammaOld = gamma;
    alphaOld = alpha;
  }
  rep.iterations = tol.maxits;
  rep.reason = PKSP_DIVERGED_ITS;
  return rep;
}

SolveReport runPipelinedBiCgStab(const Comm& comm, const LinearOperator& a,
                                 const Preconditioner& m,
                                 std::span<const double> b,
                                 std::span<double> x, const Tolerances& tol) {
  // Two-phase pipelined BiCGStab on the left-preconditioned system
  // Ahat = M^{-1} A (so every tracked quantity is preconditioned and the
  // monitored norm matches classic BiCGStab's ||M^{-1}(b - A x)||).
  // State entering an iteration:
  //   r (preconditioned residual), w = Ahat r, p, v = Ahat p, q = Ahat v,
  //   rho = <rhat, r>, tau = <rhat, v>, alpha = rho / tau.
  // Phase 1: s = r - alpha v, t = w - alpha q (= Ahat s); the fused
  // reduction { <t,s>, <t,t>, <rhat,s>, <rhat,t>, <rhat,q> } overlaps with
  // z = Ahat t.  Phase 2: after the omega/beta vector updates, the
  // reduction { <rhat,z>, <r,r> } overlaps with q = Ahat v for the next
  // iteration; tau then follows from scalar recurrences alone.
  const std::size_t n = x.size();
  Vec r(n), rhat(n), w(n), p(n), v(n), q(n), s(n), t(n), z(n), tmp(n);

  const auto applyAhat = [&](const Vec& in, Vec& out) {
    a.apply(cspan(in), std::span<double>(tmp));
    m.apply(cspan(tmp), std::span<double>(out));
  };

  applyResidual(a, b, x, r);
  m.apply(cspan(r), std::span<double>(tmp));
  std::copy(tmp.begin(), tmp.end(), r.begin());
  std::copy(r.begin(), r.end(), rhat.begin());
  applyAhat(r, w);
  // Initial scalars: rho0 = <r,r> (= <rhat,r>), tau0 = <rhat,w>; the
  // reduction overlaps with q0 = Ahat v0 (v0 = w0, p0 = r0).
  std::copy(r.begin(), r.end(), p.begin());
  std::copy(w.begin(), w.end(), v.begin());
  double rhoCur;
  double tau;
  {
    const std::array<DotArgs, 2> lanes{DotArgs{cspan(r), cspan(r)},
                                       DotArgs{cspan(rhat), cspan(w)}};
    PendingDots pending = distDotsBegin(comm, std::span<const DotArgs>(lanes));
    applyAhat(v, q);
    const std::span<const double> dots = distDotsEnd(pending);
    rhoCur = dots[0];
    tau = dots[1];
  }

  const double znorm = std::sqrt(rhoCur);
  Monitor mon;
  mon.start(znorm, tol);
  if (tol.monitor) tol.monitor(0, znorm);
  SolveReport rep;
  rep.residualNorm = znorm;
  rep.reason = mon.test(znorm);
  if (rep.reason != PKSP_ITERATING) return rep;

  if (tau == 0.0 || isBad(tau)) {
    rep.reason = PKSP_DIVERGED_BREAKDOWN;
    return rep;
  }
  double alpha = rhoCur / tau;

  for (int it = 1; it <= tol.maxits; ++it) {
    for (std::size_t i = 0; i < n; ++i) {
      s[i] = r[i] - alpha * v[i];
      t[i] = w[i] - alpha * q[i];
    }
    const std::array<DotArgs, 5> ph1{
        DotArgs{cspan(t), cspan(s)}, DotArgs{cspan(t), cspan(t)},
        DotArgs{cspan(rhat), cspan(s)}, DotArgs{cspan(rhat), cspan(t)},
        DotArgs{cspan(rhat), cspan(q)}};
    PendingDots pend1 = distDotsBegin(comm, std::span<const DotArgs>(ph1));
    a.apply(cspan(t), std::span<double>(tmp));
    (void)pend1.test();
    m.apply(cspan(tmp), std::span<double>(z));
    const std::span<const double> d1 = distDotsEnd(pend1);
    const double thetaTs = d1[0];
    const double thetaTt = d1[1];
    const double phiS = d1[2];
    const double phiT = d1[3];
    const double phiQ = d1[4];

    if (thetaTt == 0.0 || isBad(thetaTt)) {
      rep.reason = PKSP_DIVERGED_BREAKDOWN;
      rep.iterations = it - 1;
      return rep;
    }
    const double omega = thetaTs / thetaTt;
    if (omega == 0.0 || isBad(omega) || rhoCur == 0.0) {
      rep.reason = PKSP_DIVERGED_BREAKDOWN;
      rep.iterations = it - 1;
      return rep;
    }
    const double rhoNew = phiS - omega * phiT;
    const double beta = (rhoNew / rhoCur) * (alpha / omega);
    if (isBad(beta)) {
      rep.reason = PKSP_DIVERGED_BREAKDOWN;
      rep.iterations = it - 1;
      return rep;
    }
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i] + omega * s[i];
      r[i] = s[i] - omega * t[i];
      w[i] = t[i] - omega * z[i];
    }
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = r[i] + beta * (p[i] - omega * v[i]);
      v[i] = w[i] + beta * (v[i] - omega * q[i]);
    }
    const std::array<DotArgs, 2> ph2{DotArgs{cspan(rhat), cspan(z)},
                                     DotArgs{cspan(r), cspan(r)}};
    PendingDots pend2 = distDotsBegin(comm, std::span<const DotArgs>(ph2));
    a.apply(cspan(v), std::span<double>(tmp));
    (void)pend2.test();
    m.apply(cspan(tmp), std::span<double>(q));
    const std::span<const double> d2 = distDotsEnd(pend2);
    const double psiZ = d2[0];
    const double rr = d2[1];

    const double znormIt = std::sqrt(rr);
    if (tol.monitor) tol.monitor(it, znormIt);
    rep.iterations = it;
    rep.residualNorm = znormIt;
    rep.reason = mon.test(znormIt);
    if (rep.reason != PKSP_ITERATING) return rep;

    // tau_new = <rhat, v_new> = sigma + beta (tau_old - omega <rhat, q_old>)
    // with sigma = <rhat, w_new> = phiT - omega psiZ; q_old's dot (phiQ)
    // came from phase 1, so no extra reduction is needed.
    const double sigma = phiT - omega * psiZ;
    const double tauNew = sigma + beta * (tau - omega * phiQ);
    if (tauNew == 0.0 || isBad(tauNew)) {
      rep.reason = PKSP_DIVERGED_BREAKDOWN;
      return rep;
    }
    alpha = rhoNew / tauNew;
    rhoCur = rhoNew;
    tau = tauNew;
  }
  rep.reason = PKSP_DIVERGED_ITS;
  return rep;
}

}  // namespace pksp::detail
