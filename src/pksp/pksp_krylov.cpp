// Distributed Krylov kernels for PKSP: CG, BiCGStab and Richardson
// (GMRES lives in pksp_gmres.cpp).  All methods use left preconditioning
// and track the preconditioned residual norm; convergence is declared when
// ||z_k|| <= max(rtol * ||z_0||, atol)  where  z_k = M^{-1}(b - A x_k).
#include <array>
#include <cmath>
#include <limits>

#include "pksp/pksp_internal.hpp"
#include "sparse/dist_csr.hpp"

namespace pksp::detail {
namespace {

using lisi::comm::Comm;
using lisi::sparse::distDot;
using lisi::sparse::distDot2;
using lisi::sparse::distNorm2;

using Vec = std::vector<double>;

}  // namespace

SolveReport runCg(const Comm& comm, const LinearOperator& a,
                  const Preconditioner& m, std::span<const double> b,
                  std::span<double> x, const Tolerances& tol) {
  const std::size_t n = x.size();
  Vec r(n), z(n), p(n), ap(n);
  applyResidual(a, b, x, r);
  m.apply(std::span<const double>(r), std::span<double>(z));
  // <z,z> and <r,z> share one two-element allreduce; each lane is bitwise
  // identical to the standalone dot, so the iterates are unchanged.
  std::array<double, 2> zzrz =
      distDot2(comm, std::span<const double>(z), std::span<const double>(z),
               std::span<const double>(r), std::span<const double>(z));
  double znorm = std::sqrt(zzrz[0]);
  Monitor mon;
  mon.start(znorm, tol);
  if (tol.monitor) tol.monitor(0, znorm);

  SolveReport rep;
  rep.residualNorm = znorm;
  rep.reason = mon.test(znorm);
  if (rep.reason != PKSP_ITERATING) {
    if (rep.reason == PKSP_DIVERGED_NAN) return rep;
    rep.reason = znorm == 0.0 ? PKSP_CONVERGED_ATOL : rep.reason;
    return rep;
  }

  std::copy(z.begin(), z.end(), p.begin());
  double rz = zzrz[1];
  for (int it = 1; it <= tol.maxits; ++it) {
    a.apply(std::span<const double>(p), std::span<double>(ap));
    const double pap =
        distDot(comm, std::span<const double>(p), std::span<const double>(ap));
    if (pap == 0.0 || isBad(pap)) {
      rep.reason = PKSP_DIVERGED_BREAKDOWN;
      rep.iterations = it - 1;
      return rep;
    }
    const double alpha = rz / pap;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    m.apply(std::span<const double>(r), std::span<double>(z));
    zzrz = distDot2(comm, std::span<const double>(z),
                    std::span<const double>(z), std::span<const double>(r),
                    std::span<const double>(z));
    znorm = std::sqrt(zzrz[0]);
    if (tol.monitor) tol.monitor(it, znorm);
    rep.iterations = it;
    rep.residualNorm = znorm;
    rep.reason = mon.test(znorm);
    if (rep.reason != PKSP_ITERATING) return rep;
    const double rzNew = zzrz[1];
    if (rz == 0.0) {
      rep.reason = PKSP_DIVERGED_BREAKDOWN;
      return rep;
    }
    const double beta = rzNew / rz;
    rz = rzNew;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  rep.reason = PKSP_DIVERGED_ITS;
  return rep;
}

SolveReport runBiCgStab(const Comm& comm, const LinearOperator& a,
                        const Preconditioner& m, std::span<const double> b,
                        std::span<double> x, const Tolerances& tol) {
  const std::size_t n = x.size();
  Vec r(n), rhat(n), p(n), ph(n), v(n), s(n), sh(n), t(n), z(n);
  applyResidual(a, b, x, r);
  m.apply(std::span<const double>(r), std::span<double>(z));
  double znorm = distNorm2(comm, std::span<const double>(z));
  Monitor mon;
  mon.start(znorm, tol);
  if (tol.monitor) tol.monitor(0, znorm);
  SolveReport rep;
  rep.residualNorm = znorm;
  rep.reason = mon.test(znorm);
  if (rep.reason != PKSP_ITERATING) return rep;

  std::copy(r.begin(), r.end(), rhat.begin());
  double rho = 1.0;
  double alpha = 1.0;
  double omega = 1.0;
  std::fill(p.begin(), p.end(), 0.0);
  std::fill(v.begin(), v.end(), 0.0);

  for (int it = 1; it <= tol.maxits; ++it) {
    const double rhoNew =
        distDot(comm, std::span<const double>(rhat), std::span<const double>(r));
    if (rhoNew == 0.0 || isBad(rhoNew) || omega == 0.0) {
      rep.reason = PKSP_DIVERGED_BREAKDOWN;
      rep.iterations = it - 1;
      return rep;
    }
    const double beta = (rhoNew / rho) * (alpha / omega);
    rho = rhoNew;
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = r[i] + beta * (p[i] - omega * v[i]);
    }
    m.apply(std::span<const double>(p), std::span<double>(ph));
    a.apply(std::span<const double>(ph), std::span<double>(v));
    const double rhatV =
        distDot(comm, std::span<const double>(rhat), std::span<const double>(v));
    if (rhatV == 0.0 || isBad(rhatV)) {
      rep.reason = PKSP_DIVERGED_BREAKDOWN;
      rep.iterations = it - 1;
      return rep;
    }
    alpha = rho / rhatV;
    for (std::size_t i = 0; i < n; ++i) s[i] = r[i] - alpha * v[i];
    // Early exit on half-step convergence.
    m.apply(std::span<const double>(s), std::span<double>(z));
    znorm = distNorm2(comm, std::span<const double>(z));
    if (mon.test(znorm) != PKSP_ITERATING) {
      for (std::size_t i = 0; i < n; ++i) x[i] += alpha * ph[i];
      if (tol.monitor) tol.monitor(it, znorm);
      rep.iterations = it;
      rep.residualNorm = znorm;
      rep.reason = mon.test(znorm);
      return rep;
    }
    m.apply(std::span<const double>(s), std::span<double>(sh));
    a.apply(std::span<const double>(sh), std::span<double>(t));
    const double tt =
        distDot(comm, std::span<const double>(t), std::span<const double>(t));
    if (tt == 0.0 || isBad(tt)) {
      rep.reason = PKSP_DIVERGED_BREAKDOWN;
      rep.iterations = it;
      return rep;
    }
    omega = distDot(comm, std::span<const double>(t),
                    std::span<const double>(s)) /
            tt;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * ph[i] + omega * sh[i];
      r[i] = s[i] - omega * t[i];
    }
    m.apply(std::span<const double>(r), std::span<double>(z));
    znorm = distNorm2(comm, std::span<const double>(z));
    if (tol.monitor) tol.monitor(it, znorm);
    rep.iterations = it;
    rep.residualNorm = znorm;
    rep.reason = mon.test(znorm);
    if (rep.reason != PKSP_ITERATING) return rep;
  }
  rep.reason = PKSP_DIVERGED_ITS;
  return rep;
}

SolveReport runRichardson(const Comm& comm, const LinearOperator& a,
                          const Preconditioner& m, std::span<const double> b,
                          std::span<double> x, const Tolerances& tol) {
  const std::size_t n = x.size();
  Vec r(n), z(n);
  applyResidual(a, b, x, r);
  m.apply(std::span<const double>(r), std::span<double>(z));
  double znorm = distNorm2(comm, std::span<const double>(z));
  Monitor mon;
  mon.start(znorm, tol);
  if (tol.monitor) tol.monitor(0, znorm);
  SolveReport rep;
  rep.residualNorm = znorm;
  rep.reason = mon.test(znorm);
  if (rep.reason != PKSP_ITERATING) return rep;

  for (int it = 1; it <= tol.maxits; ++it) {
    for (std::size_t i = 0; i < n; ++i) x[i] += z[i];
    applyResidual(a, b, x, r);
    m.apply(std::span<const double>(r), std::span<double>(z));
    znorm = distNorm2(comm, std::span<const double>(z));
    if (tol.monitor) tol.monitor(it, znorm);
    rep.iterations = it;
    rep.residualNorm = znorm;
    rep.reason = mon.test(znorm);
    if (rep.reason != PKSP_ITERATING) return rep;
  }
  rep.reason = PKSP_DIVERGED_ITS;
  return rep;
}

}  // namespace pksp::detail
