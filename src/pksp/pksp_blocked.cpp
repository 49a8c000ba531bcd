// Blocked (multi-RHS) CG over a block of right-hand sides advanced in
// lockstep.  Blocked GMRES shares one kernel with the single-RHS solve
// (pksp_gmres.cpp) and follows the same design.
//
// Why a dedicated path: solving k systems with the same operator one after
// another pays k halo exchanges per "iteration column" and k latency-bound
// allreduces per reduction point.  Advancing all k lanes together turns
// that into ONE DistCsrMatrix::spmvMulti exchange (k values per ghost
// index, same message count as a single spmv) and ONE fused allreduce per
// reduction point (k lanes in a single distDots batch).  On small
// systems, where the per-solve cost is dominated by synchronization, this
// is where the service layer's batching win comes from.
//
// Numerics: every lane runs its own textbook recurrence on its own data —
// lanes share only the *timing* of communication, never values.  Each
// spmvMulti lane and each fused-dot lane is bitwise identical to its
// single-vector counterpart, so a lane's iterates are bitwise identical to
// the same solve run alone through runCg/runGmres (tests assert this).
// Lanes finish independently (converge, break down, hit maxits): a
// finished lane freezes — it drops out of the dot batches and contributes
// zero columns to the block matvec — while the survivors continue.  All
// freeze decisions derive from globally reduced values, so every rank
// freezes the same lanes at the same step and the collective sequence
// stays consistent without padding.
#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "pksp/pksp_internal.hpp"
#include "sparse/dist_csr.hpp"

namespace pksp::detail {
namespace {

using lisi::comm::Comm;
using lisi::sparse::DistCsrMatrix;
using lisi::sparse::DotArgs;
using lisi::sparse::distDots;

using Vec = std::vector<double>;

/// Lane `v` of a vector-major block over `n` local rows.
std::span<double> lane(Vec& a, std::size_t v, std::size_t n) {
  return std::span<double>(a).subspan(v * n, n);
}
std::span<double> lane(std::span<double> a, std::size_t v, std::size_t n) {
  return a.subspan(v * n, n);
}

}  // namespace

std::vector<SolveReport> runBlockedCg(const Comm& comm, const DistCsrMatrix& a,
                                      const Preconditioner& m,
                                      std::span<const double> b,
                                      std::span<double> x, int nRhs,
                                      const Tolerances& tol) {
  const auto n = static_cast<std::size_t>(a.localRows());
  const auto nv = static_cast<std::size_t>(nRhs);
  Vec r(n * nv), z(n * nv), p(n * nv, 0.0), ap(n * nv);
  std::vector<SolveReport> reps(nv);
  std::vector<Monitor> mons(nv);
  std::vector<double> rz(nv, 0.0);
  std::vector<char> active(nv, 0);

  // R = B - A X: one halo exchange seeds every lane's residual.
  a.spmvMulti(x, std::span<double>(r), nRhs);
  for (std::size_t i = 0; i < n * nv; ++i) r[i] = b[i] - r[i];
  std::vector<std::size_t> lanes(nv);
  for (std::size_t v = 0; v < nv; ++v) lanes[v] = v;
  m.applyLanes(r, z, lanes, n);
  // <z,z> and <r,z> for every lane share one fused allreduce.
  std::vector<DotArgs> dots;
  dots.reserve(2 * nv);
  for (std::size_t v = 0; v < nv; ++v) {
    dots.push_back({lane(z, v, n), lane(z, v, n)});
    dots.push_back({lane(r, v, n), lane(z, v, n)});
  }
  Vec red(2 * nv);
  distDots(comm, dots, red);
  const std::span<const double> init(red);
  double maxZ = 0.0;
  for (std::size_t v = 0; v < nv; ++v) {
    const double znorm = std::sqrt(init[2 * v]);
    rz[v] = init[2 * v + 1];
    mons[v].start(znorm, tol);
    maxZ = std::max(maxZ, znorm);
    reps[v].residualNorm = znorm;
    reps[v].reason = mons[v].test(znorm);
    if (reps[v].reason != PKSP_ITERATING) {
      if (reps[v].reason != PKSP_DIVERGED_NAN && znorm == 0.0) {
        reps[v].reason = PKSP_CONVERGED_ATOL;
      }
      continue;  // lane done before iterating; its p lane stays zero
    }
    active[v] = 1;
    std::copy(lane(z, v, n).begin(), lane(z, v, n).end(),
              lane(p, v, n).begin());
  }
  if (tol.monitor) tol.monitor(0, maxZ);

  const auto freeze = [&](std::size_t v) {
    active[v] = 0;
    std::fill(lane(p, v, n).begin(), lane(p, v, n).end(), 0.0);
  };

  for (int it = 1; it <= tol.maxits; ++it) {
    lanes.clear();
    for (std::size_t v = 0; v < nv; ++v) {
      if (active[v]) lanes.push_back(v);
    }
    if (lanes.empty()) return reps;

    // Frozen lanes hold zero search directions, so the full-block matvec
    // stays one exchange without perturbing anyone.
    a.spmvMulti(std::span<const double>(p), std::span<double>(ap), nRhs);
    dots.clear();
    for (const std::size_t v : lanes) {
      dots.push_back({lane(p, v, n), lane(ap, v, n)});
    }
    const std::span<double> paps(red.data(), dots.size());
    distDots(comm, dots, paps);
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      const std::size_t v = lanes[k];
      const double pap = paps[k];
      if (pap == 0.0 || isBad(pap)) {
        reps[v].reason = PKSP_DIVERGED_BREAKDOWN;
        reps[v].iterations = it - 1;
        freeze(v);
        continue;
      }
      const double alpha = rz[v] / pap;
      std::span<double> xv = lane(x, v, n);
      std::span<double> rv = lane(r, v, n);
      const std::span<const double> pv = lane(p, v, n);
      const std::span<const double> apv = lane(ap, v, n);
      for (std::size_t i = 0; i < n; ++i) {
        xv[i] += alpha * pv[i];
        rv[i] -= alpha * apv[i];
      }
    }
    lanes.erase(std::remove_if(lanes.begin(), lanes.end(),
                               [&](std::size_t v) { return !active[v]; }),
                lanes.end());
    if (lanes.empty()) return reps;

    m.applyLanes(r, z, lanes, n);
    dots.clear();
    for (const std::size_t v : lanes) {
      dots.push_back({lane(z, v, n), lane(z, v, n)});
      dots.push_back({lane(r, v, n), lane(z, v, n)});
    }
    const std::span<double> zzrz(red.data(), dots.size());
    distDots(comm, dots, zzrz);
    maxZ = 0.0;
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      const std::size_t v = lanes[k];
      const double znorm = std::sqrt(zzrz[2 * k]);
      maxZ = std::max(maxZ, znorm);
      reps[v].iterations = it;
      reps[v].residualNorm = znorm;
      reps[v].reason = mons[v].test(znorm);
      if (reps[v].reason != PKSP_ITERATING) {
        freeze(v);
        continue;
      }
      const double rzNew = zzrz[2 * k + 1];
      if (rz[v] == 0.0) {
        reps[v].reason = PKSP_DIVERGED_BREAKDOWN;
        freeze(v);
        continue;
      }
      const double beta = rzNew / rz[v];
      rz[v] = rzNew;
      std::span<double> pv = lane(p, v, n);
      const std::span<const double> zv = lane(z, v, n);
      for (std::size_t i = 0; i < n; ++i) pv[i] = zv[i] + beta * pv[i];
    }
    if (tol.monitor) tol.monitor(it, maxZ);
  }
  for (std::size_t v = 0; v < nv; ++v) {
    if (active[v]) reps[v].reason = PKSP_DIVERGED_ITS;
  }
  return reps;
}

}  // namespace pksp::detail
