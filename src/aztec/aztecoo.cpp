// AztecOO iteration kernels and preconditioners.
#include "aztec/aztecoo.hpp"

#include "obs/obs.hpp"

#include <cmath>
#include <functional>

namespace aztec {
namespace {

using lisi::sparse::OwnedBlockView;

bool isBad(double v) { return std::isnan(v) || std::isinf(v); }

/// Preconditioner application z = M^{-1} r as a callable.
using PcApply = std::function<void(const Vector& r, Vector& z)>;

/// k-step Jacobi: z_0 = D^{-1} r;  z_{j+1} = z_j + D^{-1}(r - A z_j).
PcApply makeKStepJacobi(const RowMatrix& a, int steps) {
  auto invDiag = std::make_shared<Vector>(a.rowMap());
  Vector d(a.rowMap());
  a.extractDiagonal(d);
  invDiag->reciprocal(d);
  return [&a, invDiag, steps](const Vector& r, Vector& z) {
    z.multiply(*invDiag, r);
    if (steps <= 1) return;
    Vector t(a.rowMap());
    Vector corr(a.rowMap());
    for (int s = 1; s < steps; ++s) {
      a.apply(z, t);                 // t = A z
      t.update(1.0, r, -1.0);        // t = r - A z
      corr.multiply(*invDiag, t);    // corr = D^{-1} (r - A z)
      z.update(1.0, corr, 1.0);      // z += corr
    }
  };
}

/// Neumann-series polynomial: with N = I - D^{-1}A,
///   M^{-1} = (I + N + N^2 + ... + N^p) D^{-1}.
PcApply makeNeumann(const RowMatrix& a, int order) {
  auto invDiag = std::make_shared<Vector>(a.rowMap());
  Vector d(a.rowMap());
  a.extractDiagonal(d);
  invDiag->reciprocal(d);
  return [&a, invDiag, order](const Vector& r, Vector& z) {
    // Horner form: z = D^{-1} r; repeat: z = D^{-1} r + N z.
    Vector dr(a.rowMap());
    dr.multiply(*invDiag, r);
    z = dr;
    Vector az(a.rowMap());
    Vector daz(a.rowMap());
    for (int k = 0; k < order; ++k) {
      a.apply(z, az);
      daz.multiply(*invDiag, az);
      // z = dr + z - daz
      z.update(1.0, dr, -1.0, daz, 1.0);
    }
  };
}

/// The view's diagonal positions; throws `what` when a row has none.
std::vector<int> diagonalPositions(const OwnedBlockView& v, const char* what) {
  std::vector<int> pos = v.diagonalPositions();
  for (const int k : pos) LISI_CHECK(k >= 0, what);
  return pos;
}

/// Local-block ILU(0) (domain decomposition with one subdomain per rank).
/// Implemented independently of PKSP's ILU: packages are self-contained.
/// The pattern is the operator's, read through its owned-block view; only
/// the factored values (in the operator's layout) and the diagonal
/// positions are kept.  The operator must outlive the preconditioner.
class LocalIlu {
 public:
  explicit LocalIlu(const lisi::sparse::DistCsrMatrix& a)
      : blk_(a.ownedBlockView()),
        diagPos_(diagonalPositions(
            blk_, "AZ_dom_decomp ILU: structurally zero diagonal")),
        lu_(blk_.values, blk_.values + blk_.nnz()) {
    factor();
  }

  void solve(std::span<const double> r, std::span<double> z) const {
    const int n = blk_.rows;
    for (int i = 0; i < n; ++i) {
      double acc = r[static_cast<std::size_t>(i)];
      const int d = diagPos_[static_cast<std::size_t>(i)];
      for (int k = blk_.ownedBegin(i); k < d; ++k) {
        acc -= lu_[static_cast<std::size_t>(k)] *
               z[static_cast<std::size_t>(blk_.colIdx[k])];
      }
      z[static_cast<std::size_t>(i)] = acc;
    }
    for (int i = n - 1; i >= 0; --i) {
      double acc = z[static_cast<std::size_t>(i)];
      const int end = blk_.ownedEnd(i);
      for (int k = diagPos_[static_cast<std::size_t>(i)] + 1; k < end; ++k) {
        acc -= lu_[static_cast<std::size_t>(k)] *
               z[static_cast<std::size_t>(blk_.colIdx[k])];
      }
      z[static_cast<std::size_t>(i)] =
          acc / lu_[static_cast<std::size_t>(
                    diagPos_[static_cast<std::size_t>(i)])];
    }
  }

 private:
  /// Row j's U entries meet row i's entries after k in one merge (both
  /// rows are sorted by column): no scratch.
  void factor() {
    const int* col = blk_.colIdx;
    for (int i = 0; i < blk_.rows; ++i) {
      const int re = blk_.ownedEnd(i);
      const int di = diagPos_[static_cast<std::size_t>(i)];
      for (int k = blk_.ownedBegin(i); k < di; ++k) {
        const int dj = diagPos_[static_cast<std::size_t>(col[k])];
        const double piv = lu_[static_cast<std::size_t>(dj)];
        LISI_CHECK(piv != 0.0, "AZ_dom_decomp ILU: zero pivot");
        const double lij = lu_[static_cast<std::size_t>(k)] / piv;
        lu_[static_cast<std::size_t>(k)] = lij;
        const int je = blk_.ownedEnd(col[k]);
        int p = k + 1;
        for (int kk = dj + 1; kk < je && p < re; ++kk) {
          while (p < re && col[p] < col[kk]) ++p;
          if (p < re && col[p] == col[kk]) {
            lu_[static_cast<std::size_t>(p)] -=
                lij * lu_[static_cast<std::size_t>(kk)];
          }
        }
      }
      LISI_CHECK(lu_[static_cast<std::size_t>(di)] != 0.0,
                 "AZ_dom_decomp ILU: zero pivot");
    }
  }

  OwnedBlockView blk_;
  std::vector<int> diagPos_;
  std::vector<double> lu_;
};

/// Symmetric Gauss-Seidel on the local diagonal block:
///   M = (D + L) D^{-1} (D + U)   (exact for the local block, Jacobi-like
///   across rank boundaries).  Preserves symmetry for SPD matrices, so it
///   is safe under CG — unlike plain (one-sided) Gauss-Seidel.  Reads the
///   operator's values through its owned-block view and keeps only the
///   diagonal positions; the operator must outlive it.
class LocalSgs {
 public:
  explicit LocalSgs(const lisi::sparse::DistCsrMatrix& a)
      : blk_(a.ownedBlockView()),
        diagPos_(
            diagonalPositions(blk_, "AZ_sym_GS: zero or missing diagonal")) {
    for (const int k : diagPos_) {
      LISI_CHECK(blk_.values[k] != 0.0, "AZ_sym_GS: zero or missing diagonal");
    }
  }

  void solve(std::span<const double> r, std::span<double> z) const {
    const int n = blk_.rows;
    const double* val = blk_.values;
    // Forward: (D + L) y = r.
    for (int i = 0; i < n; ++i) {
      double acc = r[static_cast<std::size_t>(i)];
      const int d = diagPos_[static_cast<std::size_t>(i)];
      for (int k = blk_.ownedBegin(i); k < d; ++k) {
        acc -= val[k] * z[static_cast<std::size_t>(blk_.colIdx[k])];
      }
      z[static_cast<std::size_t>(i)] = acc / val[d];
    }
    // Scale by D: w = D y.
    for (int i = 0; i < n; ++i) {
      z[static_cast<std::size_t>(i)] *=
          val[diagPos_[static_cast<std::size_t>(i)]];
    }
    // Backward: (D + U) z = w.
    for (int i = n - 1; i >= 0; --i) {
      double acc = z[static_cast<std::size_t>(i)];
      const int end = blk_.ownedEnd(i);
      for (int k = diagPos_[static_cast<std::size_t>(i)] + 1; k < end; ++k) {
        acc -= val[k] * z[static_cast<std::size_t>(blk_.colIdx[k])];
      }
      z[static_cast<std::size_t>(i)] =
          acc / val[diagPos_[static_cast<std::size_t>(i)]];
    }
  }

 private:
  OwnedBlockView blk_;
  std::vector<int> diagPos_;
};

PcApply makeSymGs(const RowMatrix& a) {
  const lisi::sparse::DistCsrMatrix* dist = a.assembled();
  LISI_CHECK(dist != nullptr,
             "AZ_sym_GS requires an assembled matrix (CrsMatrix)");
  auto sgs = std::make_shared<LocalSgs>(*dist);
  return [sgs](const Vector& r, Vector& z) {
    sgs->solve(r.localView(), z.localView());
  };
}

PcApply makeDomDecompIlu(const RowMatrix& a) {
  const lisi::sparse::DistCsrMatrix* dist = a.assembled();
  LISI_CHECK(dist != nullptr,
             "AZ_dom_decomp requires an assembled matrix (CrsMatrix)");
  auto ilu = std::make_shared<LocalIlu>(*dist);
  return [ilu](const Vector& r, Vector& z) {
    ilu->solve(r.localView(), z.localView());
  };
}

PcApply makePreconditioner(const RowMatrix& a, int precond, int polyOrd) {
  switch (precond) {
    case AZ_none:
      return [](const Vector& r, Vector& z) { z = r; };
    case AZ_Jacobi:
      return makeKStepJacobi(a, std::max(1, polyOrd));
    case AZ_Neumann:
      return makeNeumann(a, std::max(0, polyOrd));
    case AZ_dom_decomp:
      return makeDomDecompIlu(a);
    case AZ_sym_GS:
      return makeSymGs(a);
    default:
      throw lisi::Error("AztecOO: unknown AZ_precond value " +
                        std::to_string(precond));
  }
}

struct IterationResult {
  int its = 0;
  int why = AZ_breakdown;
  double resid = 0.0;
};

/// Preconditioned CG on r (true residual).
IterationResult runCg(const RowMatrix& a, const PcApply& pc, const Vector& b,
                      Vector& x, int maxIter, double threshold) {
  const Map& map = a.rowMap();
  Vector r(map), z(map), p(map), ap(map);
  a.apply(x, r);
  r.update(1.0, b, -1.0);
  IterationResult res;
  res.resid = r.norm2();
  if (res.resid <= threshold) {
    res.why = AZ_normal;
    return res;
  }
  pc(r, z);
  p = z;
  double rz = r.dot(z);
  for (int it = 1; it <= maxIter; ++it) {
    a.apply(p, ap);
    const double pap = p.dot(ap);
    if (pap == 0.0 || isBad(pap)) {
      res.its = it - 1;
      res.why = AZ_breakdown;
      return res;
    }
    const double alpha = rz / pap;
    x.update(alpha, p, 1.0);
    r.update(-alpha, ap, 1.0);
    res.its = it;
    res.resid = r.norm2();
    if (isBad(res.resid)) {
      res.why = AZ_breakdown;
      return res;
    }
    if (res.resid <= threshold) {
      res.why = AZ_normal;
      return res;
    }
    pc(r, z);
    const double rzNew = r.dot(z);
    if (rz == 0.0) {
      res.why = AZ_breakdown;
      return res;
    }
    const double beta = rzNew / rz;
    rz = rzNew;
    p.update(1.0, z, beta);
  }
  res.why = AZ_maxits;
  return res;
}

/// Right-preconditioned restarted GMRES (tracked residual = true residual).
/// Orthogonalization is classical Gram-Schmidt on the fused kernels of
/// lisi::sparse, as in pksp's GMRES: one reduction for the projections and
/// ||w||^2, one for the new norm, and a second pass only when Kelley's test
/// flags cancellation (every rank branches on the same reduced values).
IterationResult runGmres(const RowMatrix& a, const PcApply& pc,
                         const Vector& b, Vector& x, int maxIter,
                         double threshold, int kspace) {
  const Map& map = a.rowMap();
  const lisi::comm::Comm& comm = map.comm();
  const int m = std::max(1, kspace);
  IterationResult res;
  Vector r(map), w(map), mz(map);
  std::vector<Vector> v;
  v.reserve(static_cast<std::size_t>(m) + 1);
  for (int i = 0; i <= m; ++i) v.emplace_back(map);
  std::vector<std::span<const double>> cols;
  for (const Vector& vi : v) cols.push_back(vi.localView());
  std::vector<lisi::sparse::DotArgs> dots(static_cast<std::size_t>(m) + 2);
  std::vector<double> red(static_cast<std::size_t>(m) + 2);
  std::vector<std::vector<double>> h(
      static_cast<std::size_t>(m) + 1,
      std::vector<double>(static_cast<std::size_t>(m), 0.0));
  std::vector<double> cs(static_cast<std::size_t>(m), 0.0);
  std::vector<double> sn(static_cast<std::size_t>(m), 0.0);
  std::vector<double> g(static_cast<std::size_t>(m) + 1, 0.0);

  while (true) {
    a.apply(x, r);
    r.update(1.0, b, -1.0);
    double beta = r.norm2();
    res.resid = beta;
    if (isBad(beta)) {
      res.why = AZ_breakdown;
      return res;
    }
    if (beta <= threshold) {
      res.why = AZ_normal;
      return res;
    }
    v[0].scale(1.0 / beta, r);
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;

    int j = 0;
    bool converged = false;
    for (; j < m && res.its < maxIter; ++j) {
      ++res.its;
      const auto ju = static_cast<std::size_t>(j);
      {
        lisi::obs::Span pcSpan("aztec.pc_apply");
        pc(v[ju], mz);  // mz = M^{-1} v_j
      }
      a.apply(mz, w);   // w = A M^{-1} v_j
      double hnext = 0.0;
      {
        lisi::obs::Span orthogSpan("aztec.orthog");
        // Projections on v_0..v_j and ||w||^2 in one reduction.
        const std::span<double> wv = w.localView();
        for (std::size_t i = 0; i <= ju; ++i) dots[i] = {wv, cols[i]};
        dots[ju + 1] = {wv, wv};
        lisi::sparse::distDots(
            comm, std::span<const lisi::sparse::DotArgs>(dots.data(), ju + 2),
            std::span<double>(red.data(), ju + 2));
        for (std::size_t i = 0; i <= ju; ++i) h[i][ju] = red[i];
        const double before = red[ju + 1];
        const auto project = [&] {
          return comm.allreduceValue(
              lisi::sparse::maxpy(
                  wv, std::span<const double>(red.data(), ju + 1),
                  std::span<const std::span<const double>>(cols.data(),
                                                           ju + 1)),
              lisi::comm::ReduceOp::kSum);
        };
        double hn2 = project();
        if (std::sqrt(hn2) <
            lisi::sparse::kCgsReorthRatio * std::sqrt(before)) {
          lisi::sparse::distDots(
              comm,
              std::span<const lisi::sparse::DotArgs>(dots.data(), ju + 1),
              std::span<double>(red.data(), ju + 1));
          for (std::size_t i = 0; i <= ju; ++i) h[i][ju] += red[i];
          hn2 = project();
        }
        hnext = std::sqrt(hn2);
      }
      h[ju + 1][ju] = hnext;
      if (isBad(hnext)) {
        res.why = AZ_breakdown;
        return res;
      }
      const bool lucky = hnext <= 1e-300;
      if (!lucky) v[ju + 1].scale(1.0 / hnext, w);
      for (std::size_t i = 0; i < ju; ++i) {
        const double t = cs[i] * h[i][ju] + sn[i] * h[i + 1][ju];
        h[i + 1][ju] = -sn[i] * h[i][ju] + cs[i] * h[i + 1][ju];
        h[i][ju] = t;
      }
      const double hjj = h[ju][ju];
      const double denom = std::sqrt(hjj * hjj + hnext * hnext);
      if (denom == 0.0) {
        res.why = AZ_breakdown;
        return res;
      }
      cs[ju] = hjj / denom;
      sn[ju] = hnext / denom;
      h[ju][ju] = denom;
      g[ju + 1] = -sn[ju] * g[ju];
      g[ju] = cs[ju] * g[ju];
      res.resid = std::abs(g[ju + 1]);
      if (res.resid <= threshold || lucky) {
        ++j;
        converged = true;
        break;
      }
    }

    // x += M^{-1} (V y): accumulate V y first, precondition once.
    std::vector<double> y(static_cast<std::size_t>(j), 0.0);
    for (int i = j - 1; i >= 0; --i) {
      double acc = g[static_cast<std::size_t>(i)];
      for (int k = i + 1; k < j; ++k) {
        acc -= h[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)] *
               y[static_cast<std::size_t>(k)];
      }
      const double hii = h[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)];
      if (hii == 0.0) {
        res.why = AZ_breakdown;
        return res;
      }
      y[static_cast<std::size_t>(i)] = acc / hii;
    }
    Vector vy(map);
    for (int i = 0; i < j; ++i) {
      vy.update(y[static_cast<std::size_t>(i)], v[static_cast<std::size_t>(i)],
                1.0);
    }
    pc(vy, mz);
    x.update(1.0, mz, 1.0);

    if (converged && res.resid <= threshold) {
      // Recompute the true residual (right preconditioning keeps them
      // equal up to rounding, but report the honest number).
      a.apply(x, r);
      r.update(1.0, b, -1.0);
      res.resid = r.norm2();
      res.why = AZ_normal;
      return res;
    }
    if (res.its >= maxIter) {
      res.why = AZ_maxits;
      return res;
    }
    if (converged) {  // lucky breakdown without threshold: loop restarts
      continue;
    }
  }
}

/// Right-preconditioned BiCGSTAB.
IterationResult runBicgstab(const RowMatrix& a, const PcApply& pc,
                            const Vector& b, Vector& x, int maxIter,
                            double threshold) {
  const Map& map = a.rowMap();
  Vector r(map), rhat(map), p(map), ph(map), v(map), s(map), sh(map), t(map);
  a.apply(x, r);
  r.update(1.0, b, -1.0);
  IterationResult res;
  res.resid = r.norm2();
  if (res.resid <= threshold) {
    res.why = AZ_normal;
    return res;
  }
  rhat = r;
  double rho = 1.0, alpha = 1.0, omega = 1.0;
  p.putScalar(0.0);
  v.putScalar(0.0);
  for (int it = 1; it <= maxIter; ++it) {
    const double rhoNew = rhat.dot(r);
    if (rhoNew == 0.0 || isBad(rhoNew) || omega == 0.0) {
      res.its = it - 1;
      res.why = AZ_breakdown;
      return res;
    }
    const double beta = (rhoNew / rho) * (alpha / omega);
    rho = rhoNew;
    // p = r + beta (p - omega v)
    p.update(-omega, v, 1.0);
    p.update(1.0, r, beta);
    pc(p, ph);
    a.apply(ph, v);
    const double rhatV = rhat.dot(v);
    if (rhatV == 0.0 || isBad(rhatV)) {
      res.its = it - 1;
      res.why = AZ_breakdown;
      return res;
    }
    alpha = rho / rhatV;
    s = r;
    s.update(-alpha, v, 1.0);
    res.its = it;
    res.resid = s.norm2();
    if (res.resid <= threshold) {
      x.update(alpha, ph, 1.0);
      res.why = AZ_normal;
      return res;
    }
    pc(s, sh);
    a.apply(sh, t);
    const double tt = t.dot(t);
    if (tt == 0.0 || isBad(tt)) {
      res.why = AZ_breakdown;
      return res;
    }
    omega = t.dot(s) / tt;
    x.update(alpha, ph, omega, sh, 1.0);
    r = s;
    r.update(-omega, t, 1.0);
    res.resid = r.norm2();
    if (isBad(res.resid)) {
      res.why = AZ_breakdown;
      return res;
    }
    if (res.resid <= threshold) {
      res.why = AZ_normal;
      return res;
    }
  }
  res.why = AZ_maxits;
  return res;
}

/// Dispatch one lane to the selected iteration kernel.
IterationResult runLane(const RowMatrix& a, const PcApply& pc, const Vector& b,
                        Vector& x, int maxIter, double threshold, int solver,
                        int kspace) {
  switch (solver) {
    case AZ_cg:
      return runCg(a, pc, b, x, maxIter, threshold);
    case AZ_gmres:
      return runGmres(a, pc, b, x, maxIter, threshold, kspace);
    case AZ_bicgstab:
      return runBicgstab(a, pc, b, x, maxIter, threshold);
    default:
      throw lisi::Error("AztecOO: unknown AZ_solver value " +
                        std::to_string(solver));
  }
}

}  // namespace

AztecOO::AztecOO(const RowMatrix& a, Vector& x, const Vector& b)
    : a_(&a), x_(&x), b_(&b) {
  LISI_CHECK(a.rowMap().sameAs(x.map()) && a.rowMap().sameAs(b.map()),
             "AztecOO: operator and vectors must share one map");
  options_[AZ_solver] = AZ_gmres;
  options_[AZ_precond] = AZ_none;
  options_[AZ_max_iter] = 500;
  options_[AZ_kspace] = 30;
  options_[AZ_conv] = AZ_rhs;
  options_[AZ_poly_ord] = 3;
  params_[AZ_tol] = 1e-6;
}

AztecOO::AztecOO(const RowMatrix& a, MultiVector& x, const MultiVector& b)
    : a_(&a), mx_(&x), mb_(&b) {
  LISI_CHECK(a.rowMap().sameAs(x.map()) && a.rowMap().sameAs(b.map()),
             "AztecOO: operator and block vectors must share one map");
  LISI_CHECK(x.numVectors() == b.numVectors(),
             "AztecOO: solution and RHS blocks must have equal lane counts");
  options_[AZ_solver] = AZ_gmres;
  options_[AZ_precond] = AZ_none;
  options_[AZ_max_iter] = 500;
  options_[AZ_kspace] = 30;
  options_[AZ_conv] = AZ_rhs;
  options_[AZ_poly_ord] = 3;
  params_[AZ_tol] = 1e-6;
}

AztecOO& AztecOO::setOption(int index, int value) {
  LISI_CHECK(index >= 0 && index < AZ_OPTIONS_SIZE,
             "AztecOO::setOption: index out of range");
  options_[static_cast<std::size_t>(index)] = value;
  return *this;
}

AztecOO& AztecOO::setParam(int index, double value) {
  LISI_CHECK(index >= 0 && index < AZ_PARAMS_SIZE,
             "AztecOO::setParam: index out of range");
  params_[static_cast<std::size_t>(index)] = value;
  return *this;
}

int AztecOO::option(int index) const {
  LISI_CHECK(index >= 0 && index < AZ_OPTIONS_SIZE,
             "AztecOO::option: index out of range");
  return options_[static_cast<std::size_t>(index)];
}

double AztecOO::param(int index) const {
  LISI_CHECK(index >= 0 && index < AZ_PARAMS_SIZE,
             "AztecOO::param: index out of range");
  return params_[static_cast<std::size_t>(index)];
}

void AztecOO::precondition(const Vector& r, Vector& z) const {
  makePreconditioner(*a_, options_[AZ_precond], options_[AZ_poly_ord])(r, z);
}

int AztecOO::iterate() {
  return iterate(options_[AZ_max_iter], params_[AZ_tol]);
}

int AztecOO::iterate(int maxIter, double tol) {
  LISI_CHECK(maxIter >= 0, "AztecOO::iterate: negative maxIter");
  LISI_CHECK(tol >= 0, "AztecOO::iterate: negative tolerance");
  LISI_CHECK(x_ != nullptr, "AztecOO::iterate: solver is block-bound; "
                            "use iterateMulti");
  lisi::obs::Span span("aztec.iterate");

  const PcApply pc =
      makePreconditioner(*a_, options_[AZ_precond], options_[AZ_poly_ord]);

  // Convergence threshold per AZ_conv.
  double scale = 1.0;
  if (options_[AZ_conv] == AZ_rhs) {
    scale = b_->norm2();
  } else {
    Vector r0(a_->rowMap());
    a_->apply(*x_, r0);
    r0.update(1.0, *b_, -1.0);
    scale = r0.norm2();
  }
  if (scale == 0.0) scale = 1.0;  // zero RHS: absolute test
  const double threshold = tol * scale;

  const IterationResult res = runLane(*a_, pc, *b_, *x_, maxIter, threshold,
                                      options_[AZ_solver], options_[AZ_kspace]);
  status_[AZ_its] = res.its;
  status_[AZ_why] = res.why;
  status_[AZ_r] = res.resid;
  status_[AZ_scaled_r] = res.resid / scale;
  return res.why == AZ_normal ? 0 : 1;
}

int AztecOO::iterateMulti(int maxIter, double tol) {
  LISI_CHECK(maxIter >= 0, "AztecOO::iterateMulti: negative maxIter");
  LISI_CHECK(tol >= 0, "AztecOO::iterateMulti: negative tolerance");
  LISI_CHECK(mx_ != nullptr, "AztecOO::iterateMulti: solver is bound to a "
                             "single vector; use iterate");
  lisi::obs::Span span("aztec.iterate_multi",
                       static_cast<std::uint64_t>(mx_->numVectors()));

  // Built once, applied by every lane — the ILU(0)/SGS factorization cost
  // amortizes over the whole block.
  const PcApply pc =
      makePreconditioner(*a_, options_[AZ_precond], options_[AZ_poly_ord]);

  // Per-lane convergence scales with ONE fused allreduce for the block.
  const auto nv = static_cast<std::size_t>(mx_->numVectors());
  std::vector<double> scales(nv, 1.0);
  if (options_[AZ_conv] == AZ_rhs) {
    mb_->norms2(scales);
  } else {
    MultiVector r0(a_->rowMap(), mx_->numVectors());
    for (std::size_t k = 0; k < nv; ++k) {
      a_->apply((*mx_)(static_cast<int>(k)), r0(static_cast<int>(k)));
      r0(static_cast<int>(k)).update(1.0, (*mb_)(static_cast<int>(k)), -1.0);
    }
    r0.norms2(scales);
  }

  status_ = {};
  int rc = 0;
  for (std::size_t k = 0; k < nv; ++k) {
    double scale = scales[k];
    if (scale == 0.0) scale = 1.0;  // zero RHS lane: absolute test
    const IterationResult res =
        runLane(*a_, pc, (*mb_)(static_cast<int>(k)),
                (*mx_)(static_cast<int>(k)), maxIter, tol * scale,
                options_[AZ_solver], options_[AZ_kspace]);
    status_[AZ_its] = std::max(status_[AZ_its], static_cast<double>(res.its));
    status_[AZ_why] = std::max(status_[AZ_why], static_cast<double>(res.why));
    status_[AZ_r] = std::max(status_[AZ_r], res.resid);
    status_[AZ_scaled_r] = std::max(status_[AZ_scaled_r], res.resid / scale);
    if (res.why != AZ_normal) rc = 1;
  }
  return rc;
}


}  // namespace aztec
