// Restarted GMRES(m) for PKSP, single- and multi-RHS, on one kernel.
//
// Orthogonalization is classical Gram-Schmidt (CGS) with one reduction for
// the projections and one for the norm.  Arnoldi step j of a lane:
//
//   w = M^{-1} A v_j
//   (h_{0..j,j}, |w|^2) = ((w, v_0), ..., (w, v_j), (w, w))   one reduction
//   w -= V h_{:,j}                                            (maxpy)
//   h_{j+1,j} = |w|                                           one reduction
//
// and, only on severe cancellation (Kelley's test: h_{j+1,j} < 1e-3 times
// the norm of w before the projections), a second CGS pass: projections,
// maxpy with h accumulating, norm.  Every rank branches on the same reduced
// values, so all ranks agree.  A step costs 2 reductions (4 with the second
// pass) whatever j is.
//
// Blocked solves (runBlockedGmres, nRhs lanes over one assembled operator)
// advance every lane in lockstep: one spmvMulti halo exchange per step,
// one preconditioner pass over the stepping lanes (applyLanes), and the
// lanes' projections and norms each share ONE fused reduction.  Lanes share
// the timing of communication, never values: every spmvMulti lane, dot
// lane, maxpy and applyLanes lane is bitwise identical to its single-vector
// counterpart, so a blocked lane is bitwise the single-RHS solve (runGmres
// runs this same kernel with one lane; tests assert the identity).  A lane
// that finishes (converges, breaks down, hits maxits) freezes and drops out
// of the preconditioner pass and the reductions; its column of the block
// matvec is computed and ignored.  Freeze decisions derive from reduced
// values, so every rank freezes the same lanes at the same step.
//
// Basis column j of every lane is one vector-major block (lane v at
// [v*n, (v+1)*n)) that feeds spmvMulti directly, with no copy.  Each column
// block is its own allocation, the size of one block-vector, like every
// other buffer here: one m-column allocation would cross glibc's mmap
// threshold and, once freed, raise it, leaving rank-thread arenas holding
// megabytes (peak RSS).  Every buffer is sized once per solve, and a warm
// Arnoldi step allocates nothing.
//
// Per lane the workspace is m basis vectors plus w (the operator's output)
// and wz (the preconditioner's).  A cycle's residual b - Ax is formed in w.
// v_m is never stored: h_{m,m-1} = |w| still feeds the last Givens rotation
// and the residual estimate, but x += V_m y reads only v_0 .. v_{m-1}
// (Saad & Schultz 1986).  Deferred (300^2 GMRES(30) + ILU(0), p=4, 4-core
// host): forming v_{j+1} in its basis slot (-1.5 MB peak RSS) and also
// applying ILU(0) in place (-2.15 MB) each sped up the native solve 4-7%,
// raising lisibench's service_burst port_ratio 4.5-7% (ROADMAP item 11(c)).
#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "pksp/pksp_internal.hpp"
#include "sparse/dist_csr.hpp"

namespace pksp::detail {
namespace {

using lisi::comm::Comm;
using lisi::sparse::DotArgs;
using lisi::sparse::distDots;
using lisi::sparse::kCgsReorthRatio;
using lisi::sparse::maxpy;

using Vec = std::vector<double>;

/// One lane's restart-cycle state.
struct Lane {
  Vec h;   ///< Hessenberg, column-major: h[j*(mr+1) + i] = H(i, j)
  Vec cs;  ///< Givens cosines
  Vec sn;  ///< Givens sines
  Vec g;   ///< rotated right-hand side
  Vec y;   ///< triangular-solve scratch
  std::vector<std::span<const double>> cols;  ///< basis columns 0..mr-1
  Monitor mon;
  int its = 0;     ///< iterations over all cycles (maxits cap)
  int jTaken = 0;  ///< columns built in this cycle
  bool done = false;
  bool inCycle = false;
  bool noUpdate = false;
  PkspConvergedReason cycleReason = PKSP_ITERATING;
};

/// GMRES over nRhs vector-major lanes.  apply(in, out) is the block
/// operator Y = A X over all nRhs lanes.
template <class BlockApply>
std::vector<SolveReport> gmresLanes(const Comm& comm, const BlockApply& apply,
                                    const Preconditioner& m,
                                    std::span<const double> b,
                                    std::span<double> x, int nRhs,
                                    const Tolerances& tol, int restart) {
  const auto nv = static_cast<std::size_t>(nRhs);
  const std::size_t n = x.size() / nv;
  const int mr = std::max(1, restart);
  const auto mru = static_cast<std::size_t>(mr);
  const std::size_t ldh = mru + 1;

  std::vector<SolveReport> reps(nv);
  std::vector<Lane> lanes(nv);
  Vec w(n * nv), wz(n * nv);
  std::vector<Vec> basis(mru);
  for (Vec& blk : basis) blk.resize(nv * n);
  for (std::size_t v = 0; v < nv; ++v) {
    Lane& L = lanes[v];
    L.h.assign(ldh * mru, 0.0);
    L.cs.assign(mru, 0.0);
    L.sn.assign(mru, 0.0);
    L.g.assign(mru + 1, 0.0);
    L.y.assign(mru, 0.0);
    for (std::size_t i = 0; i < mru; ++i) {
      L.cols.emplace_back(basis[i].data() + v * n, n);
    }
  }
  const auto laneOf = [n](Vec& blk, std::size_t v) {
    return std::span<double>(blk).subspan(v * n, n);
  };
  // Per-step scratch, sized for the widest step: every lane projecting on
  // a full basis plus its own norm.
  std::vector<std::size_t> running(nv), act(nv), again(nv);
  std::vector<DotArgs> dots(nv * (mru + 2));
  Vec red(nv * (mru + 2));
  Vec before(nv), part(nv), hn(nv);

  bool first = true;
  while (true) {
    std::size_t nRun = 0;
    for (std::size_t v = 0; v < nv; ++v) {
      if (!lanes[v].done) running[nRun++] = v;
    }
    if (nRun == 0) return reps;

    // ---- cycle start: preconditioned residual of every running lane ----
    apply(std::span<const double>(x), std::span<double>(w));
    for (std::size_t i = 0; i < n * nv; ++i) w[i] = b[i] - w[i];
    m.applyLanes(w, wz, std::span<const std::size_t>(running.data(), nRun),
                 n);
    for (std::size_t k = 0; k < nRun; ++k) {
      dots[k] = {laneOf(wz, running[k]), laneOf(wz, running[k])};
    }
    distDots(comm, std::span<const DotArgs>(dots.data(), nRun),
             std::span<double>(red.data(), nRun));
    double maxBeta = 0.0;
    for (std::size_t k = 0; k < nRun; ++k) {
      const std::size_t v = running[k];
      Lane& L = lanes[v];
      const double beta = std::sqrt(red[k]);
      maxBeta = std::max(maxBeta, beta);
      L.inCycle = false;
      if (first) {
        L.mon.start(beta, tol);
        reps[v].residualNorm = beta;
        const PkspConvergedReason early = L.mon.test(beta);
        if (early != PKSP_ITERATING) {
          reps[v].reason = early;
          L.done = true;
          continue;
        }
      }
      if (isBad(beta)) {
        reps[v].reason = PKSP_DIVERGED_NAN;
        L.done = true;
        continue;
      }
      if (beta == 0.0) {
        reps[v].reason = PKSP_CONVERGED_ATOL;
        L.done = true;
        continue;
      }
      // Seed the cycle; lanes freeze out of it as they converge, hit a
      // lucky breakdown, or exhaust their iteration budget.
      L.inCycle = true;
      L.jTaken = 0;
      L.noUpdate = false;
      L.cycleReason = PKSP_ITERATING;
      const std::span<const double> zv = laneOf(wz, v);
      double* v0 = basis[0].data() + v * n;
      for (std::size_t i = 0; i < n; ++i) v0[i] = zv[i] / beta;
      std::fill(L.g.begin(), L.g.end(), 0.0);
      L.g[0] = beta;
    }
    if (first && tol.monitor) tol.monitor(0, maxBeta);
    first = false;

    // lisi-lint: zero-alloc-begin(warm Arnoldi step: per-solve buffers only)
    for (int j = 0; j < mr; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      const std::size_t nh = ju + 1;  // projections per lane this step
      std::size_t nAct = 0;
      for (std::size_t k = 0; k < nRun; ++k) {
        Lane& L = lanes[running[k]];
        if (L.inCycle && L.its < tol.maxits) {
          act[nAct++] = running[k];
          ++L.its;
          ++L.jTaken;
        }
      }
      if (nAct == 0) break;
      const std::span<const std::size_t> stepping(act.data(), nAct);

      // Block matvec over basis column j of every lane: one halo exchange.
      apply(std::span<const double>(basis[ju]), std::span<double>(w));
      {
        lisi::obs::Span pcSpan("pksp.pc_apply");
        m.applyLanes(w, wz, stepping, n);
      }
      {
        lisi::obs::Span orthogSpan("pksp.orthog");
        // CGS pass: every lane's projections and |w|^2, one reduction.
        std::size_t nd = 0;
        for (const std::size_t v : stepping) {
          const std::span<const double> wv = laneOf(wz, v);
          for (std::size_t i = 0; i <= ju; ++i) {
            dots[nd++] = {wv, lanes[v].cols[i]};
          }
          dots[nd++] = {wv, wv};
        }
        distDots(comm, std::span<const DotArgs>(dots.data(), nd),
                 std::span<double>(red.data(), nd));
        for (std::size_t k = 0; k < nAct; ++k) {
          Lane& L = lanes[act[k]];
          const double* proj = red.data() + k * (nh + 1);
          std::copy_n(proj, nh, L.h.data() + ju * ldh);
          before[k] = proj[nh];
          part[k] = maxpy(laneOf(wz, act[k]),
                          std::span<const double>(proj, nh),
                          std::span<const std::span<const double>>(
                              L.cols.data(), nh));
        }
        comm.allreduce(std::span<const double>(part.data(), nAct),
                       std::span<double>(hn.data(), nAct),
                       lisi::comm::ReduceOp::kSum);
        // Kelley's test, per lane, on reduced values.
        std::size_t nAgain = 0;
        for (std::size_t k = 0; k < nAct; ++k) {
          if (std::sqrt(hn[k]) < kCgsReorthRatio * std::sqrt(before[k])) {
            again[nAgain++] = k;
          }
        }
        if (nAgain > 0) {
          nd = 0;
          for (std::size_t q = 0; q < nAgain; ++q) {
            const std::size_t v = act[again[q]];
            for (std::size_t i = 0; i <= ju; ++i) {
              dots[nd++] = {laneOf(wz, v), lanes[v].cols[i]};
            }
          }
          distDots(comm, std::span<const DotArgs>(dots.data(), nd),
                   std::span<double>(red.data(), nd));
          for (std::size_t q = 0; q < nAgain; ++q) {
            const std::size_t v = act[again[q]];
            Lane& L = lanes[v];
            const double* proj = red.data() + q * nh;
            double* hcol = L.h.data() + ju * ldh;
            for (std::size_t i = 0; i < nh; ++i) hcol[i] += proj[i];
            part[q] = maxpy(laneOf(wz, v), std::span<const double>(proj, nh),
                            std::span<const std::span<const double>>(
                                L.cols.data(), nh));
            ++reps[v].reorthogonalizations;
          }
          comm.allreduce(std::span<const double>(part.data(), nAgain),
                         std::span<double>(part.data(), nAgain),
                         lisi::comm::ReduceOp::kSum);
          for (std::size_t q = 0; q < nAgain; ++q) hn[again[q]] = part[q];
        }
      }

      int maxIts = 0;
      double maxResid = 0.0;
      for (std::size_t k = 0; k < nAct; ++k) {
        const std::size_t v = act[k];
        Lane& L = lanes[v];
        double* hcol = L.h.data() + ju * ldh;
        const double hnext = std::sqrt(hn[k]);
        hcol[ju + 1] = hnext;
        if (isBad(hnext)) {
          reps[v].reason = PKSP_DIVERGED_NAN;
          reps[v].iterations = L.its;
          L.done = true;
          L.inCycle = false;
          L.noUpdate = true;
          continue;
        }
        const bool luckyBreakdown = hnext <= 1e-300;
        if (!luckyBreakdown && ju + 1 < mru) {  // v_m is never read
          const std::span<const double> wzv = laneOf(wz, v);
          double* next = basis[ju + 1].data() + v * n;
          for (std::size_t t = 0; t < n; ++t) next[t] = wzv[t] / hnext;
        }
        // Apply the earlier Givens rotations to the new column, then a new
        // one to annihilate H(j+1, j).
        for (std::size_t i = 0; i < ju; ++i) {
          const double t = L.cs[i] * hcol[i] + L.sn[i] * hcol[i + 1];
          hcol[i + 1] = -L.sn[i] * hcol[i] + L.cs[i] * hcol[i + 1];
          hcol[i] = t;
        }
        const double hjj = hcol[ju];
        const double denom = std::sqrt(hjj * hjj + hnext * hnext);
        if (denom == 0.0) {
          reps[v].reason = PKSP_DIVERGED_BREAKDOWN;
          reps[v].iterations = L.its;
          L.done = true;
          L.inCycle = false;
          L.noUpdate = true;
          continue;
        }
        L.cs[ju] = hjj / denom;
        L.sn[ju] = hnext / denom;
        hcol[ju] = denom;
        hcol[ju + 1] = 0.0;
        L.g[ju + 1] = -L.sn[ju] * L.g[ju];
        L.g[ju] = L.cs[ju] * L.g[ju];

        const double resid = std::abs(L.g[ju + 1]);
        reps[v].residualNorm = resid;
        maxResid = std::max(maxResid, resid);
        maxIts = std::max(maxIts, L.its);
        L.cycleReason = L.mon.test(resid);
        if (L.cycleReason != PKSP_ITERATING || luckyBreakdown) {
          L.inCycle = false;  // the lane's cycle ends; x update below
        }
      }
      if (tol.monitor && maxIts > 0) tol.monitor(maxIts, maxResid);
    }
    // lisi-lint: zero-alloc-end

    // ---- per-lane triangular solve + solution update -------------------
    for (std::size_t k = 0; k < nRun; ++k) {
      const std::size_t v = running[k];
      Lane& L = lanes[v];
      // A lane that starts a cycle with its budget spent took no step
      // (jTaken == 0); it falls through to the DIVERGED_ITS verdict below.
      if (L.done || L.noUpdate) continue;
      const auto jv = static_cast<std::size_t>(L.jTaken);
      bool broke = false;
      for (std::size_t i = jv; i-- > 0;) {
        double acc = L.g[i];
        for (std::size_t c = i + 1; c < jv; ++c) {
          acc -= L.h[c * ldh + i] * L.y[c];
        }
        const double hii = L.h[i * ldh + i];
        if (hii == 0.0) {
          reps[v].reason = PKSP_DIVERGED_BREAKDOWN;
          reps[v].iterations = L.its;
          L.done = true;
          broke = true;
          break;
        }
        L.y[i] = acc / hii;
      }
      if (broke) continue;
      // x += V y, as x -= V (-y): negation is exact, so this is bitwise
      // the axpy loop x[t] += y_i v_i[t].
      for (std::size_t i = 0; i < jv; ++i) L.y[i] = -L.y[i];
      (void)maxpy(x.subspan(v * n, n), std::span<const double>(L.y.data(), jv),
                  std::span<const std::span<const double>>(L.cols.data(), jv));
      reps[v].iterations = L.its;
      if (L.cycleReason != PKSP_ITERATING) {
        reps[v].reason = L.cycleReason;
        L.done = true;
      } else if (L.its >= tol.maxits) {
        reps[v].reason = PKSP_DIVERGED_ITS;
        L.done = true;
      }
      // else: the lane restarts next cycle (including lucky breakdowns,
      // whose recomputed residual then converges through the ATOL test).
    }
  }
}

}  // namespace

SolveReport runGmres(const Comm& comm, const LinearOperator& a,
                     const Preconditioner& m, std::span<const double> b,
                     std::span<double> x, const Tolerances& tol, int restart) {
  const auto apply = [&a](std::span<const double> in, std::span<double> out) {
    a.apply(in, out);
  };
  return gmresLanes(comm, apply, m, b, x, 1, tol, restart)[0];
}

std::vector<SolveReport> runBlockedGmres(const Comm& comm,
                                         const lisi::sparse::DistCsrMatrix& a,
                                         const Preconditioner& m,
                                         std::span<const double> b,
                                         std::span<double> x, int nRhs,
                                         const Tolerances& tol, int restart) {
  const auto apply = [&a, nRhs](std::span<const double> in,
                                std::span<double> out) {
    a.spmvMulti(in, out, nRhs);
  };
  return gmresLanes(comm, apply, m, b, x, nRhs, tol, restart);
}

}  // namespace pksp::detail
