// HyMG implementation: hierarchy construction, smoothers, grid transfers,
// the recursive cycle, and the coarse-grid dense solve.
#include "hymg/hymg.hpp"

#include "obs/obs.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sparse/matmul.hpp"
#include "sparse/partition.hpp"
#include "support/prec.hpp"

namespace hymg {

using lisi::comm::Comm;
using lisi::sparse::BlockRowPartition;
using lisi::sparse::CsrMatrix;
using lisi::sparse::DistCsrMatrix;
using lisi::sparse::OwnedBlockView;

Stencil5 laplaceStencil(double h) {
  const double ih2 = 1.0 / (h * h);
  return {4.0 * ih2, -ih2, -ih2, -ih2, -ih2};
}

StencilFn convectionDiffusionStencil(double bx, double by) {
  return [bx, by](double h) {
    const double ih2 = 1.0 / (h * h);
    Stencil5 st;
    st.c = 4.0 * ih2;
    st.w = -ih2 - bx / (2.0 * h);
    st.e = -ih2 + bx / (2.0 * h);
    st.s = -ih2 - by / (2.0 * h);
    st.n = -ih2 + by / (2.0 * h);
    return st;
  };
}

bool matchesStencil(const CsrMatrix& block, int startRow, int gridN,
                    const Stencil5& st, double relTol) {
  const int n = gridN;
  if (block.rows == 0) return true;
  if (startRow < 0 || n < 1 || startRow + block.rows > n * n) return false;
  constexpr int kEnd = std::numeric_limits<int>::max();
  double worst = 0.0;    // largest deviation
  double normInf = 0.0;  // largest row sum of |a_ij|
  int ix = startRow % n;
  int iy = startRow / n;
  for (int i = 0; i < block.rows; ++i) {
    const int row = startRow + i;
    // The stencil's row in ascending columns, as assembleLevelRows emits it.
    int cols[5];
    double vals[5];
    int m = 0;
    const auto add = [&](int col, double val) {
      cols[m] = col;
      vals[m] = val;
      ++m;
    };
    if (iy > 0) add(row - n, st.s);
    if (ix > 0) add(row - 1, st.w);
    add(row, st.c);
    if (ix + 1 < n) add(row + 1, st.e);
    if (iy + 1 < n) add(row + n, st.n);
    const int b = block.rowPtr[static_cast<std::size_t>(i)];
    const int len = block.rowPtr[static_cast<std::size_t>(i) + 1] - b;
    const int* c = block.colIdx.data() + b;
    const double* v = block.values.data() + b;
    double rowSum = 0.0;
    for (int k = 0; k < len; ++k) rowSum += std::abs(v[k]);
    normInf = std::max(normInf, rowSum);
    if (len == m && std::equal(c, c + len, cols)) {
      for (int k = 0; k < m; ++k) {
        worst = std::max(worst, std::abs(v[k] - vals[k]));
      }
    } else {
      // Another pattern: merge, an entry missing on one side counting as 0.
      int k = 0;
      int j = 0;
      while (k < len || j < m) {
        const int ca = k < len ? c[k] : kEnd;
        const int cb = j < m ? cols[j] : kEnd;
        double d = 0.0;
        if (ca == cb) {
          d = v[k++] - vals[j++];
        } else if (ca < cb) {
          d = v[k++];
        } else {
          d = vals[j++];
        }
        worst = std::max(worst, std::abs(d));
      }
    }
    if (++ix == n) {
      ix = 0;
      ++iy;
    }
  }
  return worst <= relTol * (normInf + 1.0);
}

namespace {

/// Assemble this rank's rows of the 5-point operator on an n-by-n grid.
CsrMatrix assembleLevelRows(int n, const Stencil5& st, int rowBegin,
                            int rowEnd) {
  CsrMatrix a;
  a.rows = rowEnd - rowBegin;
  a.cols = n * n;
  a.rowPtr.reserve(static_cast<std::size_t>(a.rows) + 1);
  a.rowPtr.push_back(0);
  for (int row = rowBegin; row < rowEnd; ++row) {
    const int ix = row % n;
    const int iy = row / n;
    if (iy > 0) {
      a.colIdx.push_back(row - n);
      a.values.push_back(st.s);
    }
    if (ix > 0) {
      a.colIdx.push_back(row - 1);
      a.values.push_back(st.w);
    }
    a.colIdx.push_back(row);
    a.values.push_back(st.c);
    if (ix + 1 < n) {
      a.colIdx.push_back(row + 1);
      a.values.push_back(st.e);
    }
    if (iy + 1 < n) {
      a.colIdx.push_back(row + n);
      a.values.push_back(st.n);
    }
    a.rowPtr.push_back(static_cast<int>(a.colIdx.size()));
  }
  return a;
}

/// Assemble this rank's rows of the bilinear prolongation from an nc-by-nc
/// coarse grid to the nf-by-nf fine grid (nf = 2*nc + 1).  Coarse node
/// (jx, jy) sits at fine node (2jx+1, 2jy+1); out-of-range coarse
/// neighbours are homogeneous boundary (contribute nothing).
CsrMatrix assembleProlongationRows(int nf, int nc, int rowBegin, int rowEnd) {
  CsrMatrix p;
  p.rows = rowEnd - rowBegin;
  p.cols = nc * nc;
  p.rowPtr.reserve(static_cast<std::size_t>(p.rows) + 1);
  p.rowPtr.push_back(0);
  auto push = [&p, nc](int jx, int jy, double wgt) {
    if (jx < 0 || jx >= nc || jy < 0 || jy >= nc) return;
    p.colIdx.push_back(jy * nc + jx);
    p.values.push_back(wgt);
  };
  for (int row = rowBegin; row < rowEnd; ++row) {
    const int ix = row % nf;
    const int iy = row / nf;
    const bool oddX = (ix % 2) == 1;
    const bool oddY = (iy % 2) == 1;
    if (oddX && oddY) {
      push((ix - 1) / 2, (iy - 1) / 2, 1.0);
    } else if (!oddX && oddY) {
      push(ix / 2 - 1, (iy - 1) / 2, 0.5);
      push(ix / 2, (iy - 1) / 2, 0.5);
    } else if (oddX && !oddY) {
      push((ix - 1) / 2, iy / 2 - 1, 0.5);
      push((ix - 1) / 2, iy / 2, 0.5);
    } else {
      push(ix / 2 - 1, iy / 2 - 1, 0.25);
      push(ix / 2, iy / 2 - 1, 0.25);
      push(ix / 2 - 1, iy / 2, 0.25);
      push(ix / 2, iy / 2, 0.25);
    }
    p.rowPtr.push_back(static_cast<int>(p.colIdx.size()));
  }
  return p;
}

/// Assemble this rank's rows of the full-weighting restriction from the
/// nf-by-nf fine grid to the nc-by-nc coarse grid: the 1/16 [1 2 1; 2 4 2;
/// 1 2 1] stencil centered on the fine image of each coarse node.
CsrMatrix assembleRestrictionRows(int nf, int nc, int rowBegin, int rowEnd) {
  CsrMatrix r;
  r.rows = rowEnd - rowBegin;
  r.cols = nf * nf;
  r.rowPtr.reserve(static_cast<std::size_t>(r.rows) + 1);
  r.rowPtr.push_back(0);
  for (int row = rowBegin; row < rowEnd; ++row) {
    const int jx = row % nc;
    const int jy = row / nc;
    const int cx = 2 * jx + 1;
    const int cy = 2 * jy + 1;
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        const int ix = cx + dx;
        const int iy = cy + dy;
        if (ix < 0 || ix >= nf || iy < 0 || iy >= nf) continue;
        const double wgt =
            (dx == 0 ? 2.0 : 1.0) * (dy == 0 ? 2.0 : 1.0) / 16.0;
        r.colIdx.push_back(iy * nf + ix);
        r.values.push_back(wgt);
      }
    }
    r.rowPtr.push_back(static_cast<int>(r.colIdx.size()));
  }
  return r;
}

/// Dense LU with partial pivoting for the coarsest grid (run on rank 0).
class DenseLu {
 public:
  DenseLu() = default;
  void factor(std::vector<double> a, int n) {
    n_ = n;
    a_ = std::move(a);
    piv_.resize(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
      int p = k;
      double best = std::abs(at(k, k));
      for (int i = k + 1; i < n; ++i) {
        if (std::abs(at(i, k)) > best) {
          best = std::abs(at(i, k));
          p = i;
        }
      }
      LISI_CHECK(best > 0.0, "HyMG coarse solve: singular coarse operator");
      piv_[static_cast<std::size_t>(k)] = p;
      if (p != k) {
        for (int j = 0; j < n; ++j) std::swap(at(k, j), at(p, j));
      }
      for (int i = k + 1; i < n; ++i) {
        at(i, k) /= at(k, k);
        const double lik = at(i, k);
        for (int j = k + 1; j < n; ++j) at(i, j) -= lik * at(k, j);
      }
    }
    // Keep an existing float32 mirror in sync with the refreshed factors.
    if (!aF_.empty()) mirrorToFloat();
  }

  void solve(std::vector<double>& b) const {
    for (int k = 0; k < n_; ++k) {
      std::swap(b[static_cast<std::size_t>(k)],
                b[static_cast<std::size_t>(piv_[static_cast<std::size_t>(k)])]);
      for (int i = k + 1; i < n_; ++i) {
        b[static_cast<std::size_t>(i)] -= at(i, k) * b[static_cast<std::size_t>(k)];
      }
    }
    for (int k = n_ - 1; k >= 0; --k) {
      for (int j = k + 1; j < n_; ++j) {
        b[static_cast<std::size_t>(k)] -= at(k, j) * b[static_cast<std::size_t>(j)];
      }
      b[static_cast<std::size_t>(k)] /= at(k, k);
    }
  }

  /// Mirror the factored matrix into float32 for the low-precision cycle
  /// (pivoting already happened in float64; only the application rounds).
  void mirrorToFloat() { aF_.assign(a_.begin(), a_.end()); }
  void dropFloatMirror() { aF_.clear(); }

  void solveF(std::vector<float>& b) const {
    for (int k = 0; k < n_; ++k) {
      std::swap(b[static_cast<std::size_t>(k)],
                b[static_cast<std::size_t>(piv_[static_cast<std::size_t>(k)])]);
      for (int i = k + 1; i < n_; ++i) {
        b[static_cast<std::size_t>(i)] -= atF(i, k) * b[static_cast<std::size_t>(k)];
      }
    }
    for (int k = n_ - 1; k >= 0; --k) {
      for (int j = k + 1; j < n_; ++j) {
        b[static_cast<std::size_t>(k)] -= atF(k, j) * b[static_cast<std::size_t>(j)];
      }
      b[static_cast<std::size_t>(k)] /= atF(k, k);
    }
  }

 private:
  double& at(int i, int j) {
    return a_[static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) +
              static_cast<std::size_t>(j)];
  }
  [[nodiscard]] double at(int i, int j) const {
    return a_[static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) +
              static_cast<std::size_t>(j)];
  }
  [[nodiscard]] float atF(int i, int j) const {
    return aF_[static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) +
               static_cast<std::size_t>(j)];
  }
  int n_ = 0;
  std::vector<double> a_;
  std::vector<float> aF_;
  std::vector<int> piv_;
};

struct Level {
  int n = 0;  ///< grid side
  std::shared_ptr<const DistCsrMatrix> a;
  /// `a`, when this solver built it and may refresh its values; null for a
  /// caller's fine operator.
  DistCsrMatrix* own = nullptr;
  std::unique_ptr<DistCsrMatrix> p;  ///< prolongation from the next level
  std::unique_ptr<DistCsrMatrix> r;  ///< restriction to the next level
  std::vector<double> invDiag;       ///< Jacobi smoother data
  // Hybrid GS data: the diagonal positions in `a`'s owned-block view,
  // whose values the smoother reads in place.
  std::vector<int> gsDiagPos;
  // Per-level solve scratch, sized once in build() so smooth()/cycle()
  // never allocate (same discipline as the DistCsrMatrix halo plan).
  // Mutable: the solve path is const, and each rank owns its Solver.
  mutable std::vector<double> smoothR;  ///< smoother residual, fine size
  mutable std::vector<double> cycR;     ///< cycle residual, fine size
  mutable std::vector<double> cycPe;    ///< prolongated correction, fine size
  mutable std::vector<double> cycRc;    ///< restricted residual, coarse size
  mutable std::vector<double> cycEc;    ///< coarse correction, coarse size
  // Float32 mirrors of the smoother data and the cycle scratch for the
  // low-precision cycle (Solver::setLowPrecision); empty in float64 mode.
  // Operator/transfer values are mirrored inside DistCsrMatrix (spmvFloat).
  std::vector<float> invDiagF;
  std::vector<float> gsValsF;
  mutable std::vector<float> smoothRF;
  mutable std::vector<float> cycRF;
  mutable std::vector<float> cycPeF;
  mutable std::vector<float> cycRcF;
  mutable std::vector<float> cycEcF;
};

}  // namespace

struct Solver::Impl {
  Comm comm;
  Options options;
  StencilFn stencil;
  std::vector<Level> levels;
  DenseLu coarseLu;  ///< valid on rank 0 only
  bool lowPrecision = false;
  // Finest-level defect/correction buffers for the float32 cycle.
  mutable std::vector<float> fineBF, fineXF;

  void init(Comm c, StencilFn st, const Options& opts) {
    LISI_CHECK(c.valid(), "HyMG: invalid communicator");
    LISI_CHECK(opts.preSmooth >= 0 && opts.postSmooth >= 0,
               "HyMG: negative smoothing counts");
    LISI_CHECK(opts.gamma >= 1, "HyMG: gamma must be >= 1");
    LISI_CHECK(opts.jacobiWeight > 0 && opts.jacobiWeight <= 1.0,
               "HyMG: jacobiWeight must be in (0, 1]");
    comm = std::move(c);
    options = opts;
    stencil = std::move(st);
  }
  /// Build the hierarchy; `adopted`, when given, is level 0.
  void build(int gridN, std::shared_ptr<const DistCsrMatrix> adopted);
  void refreshValues();
  void factorCoarse();
  void mirrorLowPrecision();
  void smooth(const Level& lvl, std::span<const double> b,
              std::span<double> x, int sweeps) const;
  void cycle(std::size_t l, std::span<const double> b,
             std::span<double> x) const;
  void coarseSolve(std::span<const double> b, std::span<double> x) const;
  void smoothF(const Level& lvl, std::span<const float> b,
               std::span<float> x, int sweeps) const;
  void cycleF(std::size_t l, std::span<const float> b,
              std::span<float> x) const;
  void coarseSolveF(std::span<const float> b, std::span<float> x) const;
};

void Solver::Impl::build(int gridN,
                         std::shared_ptr<const DistCsrMatrix> adopted) {
  LISI_CHECK(gridN >= 1, "HyMG: gridN must be >= 1");
  int n = gridN;
  // In Galerkin mode the next level's operator is the triple product of the
  // previous level's transfers; it is carried across loop iterations here.
  std::shared_ptr<DistCsrMatrix> pendingA;
  while (true) {
    Level lvl;
    lvl.n = n;
    const double h = 1.0 / (n + 1);
    const BlockRowPartition part(n * n, comm.size());
    const int begin = part.startRow(comm.rank());
    const int end = begin + part.localRows(comm.rank());
    if (adopted) {
      // Every rank reads the same rowStarts, so all agree on this check.
      LISI_CHECK(adopted->globalRows() == n * n &&
                     adopted->globalCols() == n * n &&
                     adopted->rowStarts() == part.boundaries(),
                 "HyMG: fine operator is not the grid's block-row operator");
      lvl.a = std::move(adopted);
    } else {
      if (!pendingA) {
        pendingA = std::make_shared<DistCsrMatrix>(
            comm, n * n, n * n, begin,
            assembleLevelRows(n, stencil(h), begin, end));
      }
      lvl.own = pendingA.get();
      lvl.a = std::move(pendingA);
    }
    // Smoother data.
    lvl.invDiag = lvl.a->localDiagonal();
    for (double& d : lvl.invDiag) {
      LISI_CHECK(d != 0.0, "HyMG: zero diagonal on a level");
      d = 1.0 / d;
    }
    if (options.smoother == Smoother::kHybridGs) {
      lvl.gsDiagPos = lvl.a->ownedBlockView().diagonalPositions();
      for (const int k : lvl.gsDiagPos) {
        LISI_CHECK(k >= 0, "HyMG: missing diagonal in local block");
      }
    }
    levels.push_back(std::move(lvl));

    const bool canCoarsen = (n % 2 == 1) && n > options.coarsestN &&
                            static_cast<int>(levels.size()) < options.maxLevels;
    if (!canCoarsen) break;
    const int nc = (n - 1) / 2;
    // Transfer operators between this level (fine) and the next (coarse).
    const BlockRowPartition fpart(n * n, comm.size());
    const BlockRowPartition cpart(nc * nc, comm.size());
    const int fb = fpart.startRow(comm.rank());
    const int fe = fb + fpart.localRows(comm.rank());
    const int cb = cpart.startRow(comm.rank());
    const int ce = cb + cpart.localRows(comm.rank());
    Level& fine = levels.back();
    fine.p = std::make_unique<DistCsrMatrix>(
        comm, n * n, nc * nc, fb, assembleProlongationRows(n, nc, fb, fe),
        cpart.boundaries());
    fine.r = std::make_unique<DistCsrMatrix>(
        comm, nc * nc, n * n, cb, assembleRestrictionRows(n, nc, cb, ce),
        fpart.boundaries());
    if (options.coarseOperator == CoarseOperator::kGalerkin) {
      pendingA = std::make_shared<DistCsrMatrix>(
          lisi::sparse::galerkinProduct(*fine.r, *fine.a, *fine.p));
    }
    n = nc;
  }

  // Size every level's solve scratch now that the hierarchy is final.
  for (std::size_t l = 0; l < levels.size(); ++l) {
    Level& lvl = levels[l];
    const auto m = static_cast<std::size_t>(lvl.a->localRows());
    lvl.smoothR.assign(m, 0.0);
    if (l + 1 < levels.size()) {
      const auto mc =
          static_cast<std::size_t>(levels[l + 1].a->localRows());
      lvl.cycR.assign(m, 0.0);
      lvl.cycPe.assign(m, 0.0);
      lvl.cycRc.assign(mc, 0.0);
      lvl.cycEc.assign(mc, 0.0);
    }
  }

  // Coarsest-level exact solve: gather the operator to rank 0 and factor.
  factorCoarse();
}

void Solver::Impl::factorCoarse() {
  const Level& coarse = levels.back();
  const CsrMatrix gathered = coarse.a->gatherToRoot(0);
  if (comm.rank() == 0) {
    const int cn = coarse.n * coarse.n;
    std::vector<double> dense(static_cast<std::size_t>(cn) *
                                  static_cast<std::size_t>(cn),
                              0.0);
    for (int i = 0; i < cn; ++i) {
      for (int k = gathered.rowPtr[static_cast<std::size_t>(i)];
           k < gathered.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
        dense[static_cast<std::size_t>(i) * static_cast<std::size_t>(cn) +
              static_cast<std::size_t>(
                  gathered.colIdx[static_cast<std::size_t>(k)])] +=
            gathered.values[static_cast<std::size_t>(k)];
      }
    }
    coarseLu.factor(std::move(dense), cn);
  }
}

// Value-only operator refresh over the fixed hierarchy: every DistCsrMatrix,
// transfer operator, halo plan, gsDiagPos table, and scratch vector built in
// build() stays alive; only values flow through.  Fine-to-coarse order so a
// Galerkin coarse operator sees the already-refreshed fine operator.
void Solver::Impl::refreshValues() {
  for (std::size_t l = 0; l < levels.size(); ++l) {
    Level& lvl = levels[l];
    const int n = lvl.n;
    if (lvl.own == nullptr) {
      // A caller's fine operator: its owner has refreshed the values.
    } else if (l == 0 ||
               options.coarseOperator == CoarseOperator::kRediscretize) {
      const double h = 1.0 / (n + 1);
      const BlockRowPartition part(n * n, comm.size());
      const int begin = part.startRow(comm.rank());
      const int end = begin + part.localRows(comm.rank());
      // assembleLevelRows emits canonical rows, so the structure matches
      // what the original constructor canonicalized; updateValues verifies.
      lvl.own->updateValues(assembleLevelRows(n, stencil(h), begin, end));
    } else {
      // Galerkin: recompute R*A*P values.  The triple product is structurally
      // deterministic in its inputs, so the sparsity matches the stored
      // operator and only values are copied over.  The temporary product does
      // build its own (throwaway) halo plan.
      const Level& fine = levels[l - 1];
      const DistCsrMatrix prod =
          lisi::sparse::galerkinProduct(*fine.r, *fine.a, *fine.p);
      lvl.own->updateValues(prod.globalBlock());
    }
    // Smoother data: same recipes as build(), values only.  The hybrid-GS
    // smoother reads the refreshed values in place.
    lvl.invDiag = lvl.a->localDiagonal();
    for (double& d : lvl.invDiag) {
      LISI_CHECK(d != 0.0, "HyMG: zero diagonal on a level");
      d = 1.0 / d;
    }
  }
  factorCoarse();
  if (lowPrecision) mirrorLowPrecision();
}

// Build (or refresh) every float32 mirror the low-precision cycle reads:
// smoother diagonals, hybrid-GS block values, the coarse dense factors, and
// the float scratch.  The DistCsrMatrix value mirrors refresh themselves
// lazily (spmvFloat tracks updateValues).
void Solver::Impl::mirrorLowPrecision() {
  for (std::size_t l = 0; l < levels.size(); ++l) {
    Level& lvl = levels[l];
    lvl.invDiagF.assign(lvl.invDiag.begin(), lvl.invDiag.end());
    if (options.smoother == Smoother::kHybridGs) {
      const OwnedBlockView blk = lvl.a->ownedBlockView();
      lvl.gsValsF.assign(blk.values, blk.values + blk.nnz());
    }
    const auto m = static_cast<std::size_t>(lvl.a->localRows());
    lvl.smoothRF.assign(m, 0.0f);
    if (l + 1 < levels.size()) {
      const auto mc = static_cast<std::size_t>(levels[l + 1].a->localRows());
      lvl.cycRF.assign(m, 0.0f);
      lvl.cycPeF.assign(m, 0.0f);
      lvl.cycRcF.assign(mc, 0.0f);
      lvl.cycEcF.assign(mc, 0.0f);
    }
  }
  const auto m0 = static_cast<std::size_t>(levels.front().a->localRows());
  fineBF.assign(m0, 0.0f);
  fineXF.assign(m0, 0.0f);
  coarseLu.mirrorToFloat();  // no-op off rank 0 (factors live there only)
}

void Solver::Impl::smooth(const Level& lvl, std::span<const double> b,
                          std::span<double> x, int sweeps) const {
  const auto m = static_cast<std::size_t>(lvl.a->localRows());
  std::vector<double>& r = lvl.smoothR;
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    lvl.a->spmv(x, std::span<double>(r));
    for (std::size_t i = 0; i < m; ++i) r[i] = b[i] - r[i];
    if (options.smoother == Smoother::kJacobi) {
      for (std::size_t i = 0; i < m; ++i) {
        x[i] += options.jacobiWeight * lvl.invDiag[i] * r[i];
      }
    } else {
      // Hybrid GS: x += (D + L_local)^{-1} r (forward substitution on the
      // local block's lower triangle).
      const OwnedBlockView blk = lvl.a->ownedBlockView();
      for (int i = 0; i < blk.rows; ++i) {
        double acc = r[static_cast<std::size_t>(i)];
        const int d = lvl.gsDiagPos[static_cast<std::size_t>(i)];
        for (int k = blk.ownedBegin(i); k < d; ++k) {
          acc -= blk.values[k] * r[static_cast<std::size_t>(blk.colIdx[k])];
        }
        // Reuse r to hold the correction (already-final entries only are
        // read above because the block's lower columns are < i).
        r[static_cast<std::size_t>(i)] = acc / blk.values[d];
      }
      for (std::size_t i = 0; i < m; ++i) x[i] += r[i];
    }
  }
}

void Solver::Impl::coarseSolve(std::span<const double> b,
                               std::span<double> x) const {
  const Level& coarse = levels.back();
  std::vector<double> bg = coarse.a->gatherVectorToRoot(b, 0);
  if (comm.rank() == 0) coarseLu.solve(bg);
  const std::vector<double> xl = coarse.a->scatterVectorFromRoot(
      comm.rank() == 0 ? std::span<const double>(bg)
                       : std::span<const double>(),
      0);
  std::copy(xl.begin(), xl.end(), x.begin());
}

void Solver::Impl::cycle(std::size_t l, std::span<const double> b,
                         std::span<double> x) const {
  const Level& lvl = levels[l];
  if (l + 1 == levels.size()) {
    coarseSolve(b, x);
    return;
  }
  smooth(lvl, b, x, options.preSmooth);
  // Coarse-grid correction (gamma-fold for W-cycles).
  const auto m = static_cast<std::size_t>(lvl.a->localRows());
  std::vector<double>& r = lvl.cycR;
  std::vector<double>& rc = lvl.cycRc;
  std::vector<double>& ec = lvl.cycEc;
  std::vector<double>& pe = lvl.cycPe;
  for (int g = 0; g < options.gamma; ++g) {
    lvl.a->spmv(x, std::span<double>(r));
    for (std::size_t i = 0; i < m; ++i) r[i] = b[i] - r[i];
    lvl.r->spmv(std::span<const double>(r), std::span<double>(rc));
    std::fill(ec.begin(), ec.end(), 0.0);
    cycle(l + 1, std::span<const double>(rc), std::span<double>(ec));
    lvl.p->spmv(std::span<const double>(ec), std::span<double>(pe));
    for (std::size_t i = 0; i < m; ++i) x[i] += pe[i];
    if (g + 1 < options.gamma) smooth(lvl, b, x, options.postSmooth);
  }
  smooth(lvl, b, x, options.postSmooth);
}

// ---- float32 cycle (setLowPrecision) -----------------------------------
// Structure-identical to smooth()/cycle()/coarseSolve() above, reading the
// float32 mirrors; see Solver::setLowPrecision for the precision contract.

void Solver::Impl::smoothF(const Level& lvl, std::span<const float> b,
                           std::span<float> x, int sweeps) const {
  const auto m = static_cast<std::size_t>(lvl.a->localRows());
  std::vector<float>& r = lvl.smoothRF;
  const auto w = static_cast<float>(options.jacobiWeight);
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    lvl.a->spmvFloat(x, std::span<float>(r));
    for (std::size_t i = 0; i < m; ++i) r[i] = b[i] - r[i];
    if (options.smoother == Smoother::kJacobi) {
      for (std::size_t i = 0; i < m; ++i) {
        x[i] += w * lvl.invDiagF[i] * r[i];
      }
    } else {
      const OwnedBlockView blk = lvl.a->ownedBlockView();
      const float* vals = lvl.gsValsF.data();
      for (int i = 0; i < blk.rows; ++i) {
        float acc = r[static_cast<std::size_t>(i)];
        const int d = lvl.gsDiagPos[static_cast<std::size_t>(i)];
        for (int k = blk.ownedBegin(i); k < d; ++k) {
          acc -= vals[k] * r[static_cast<std::size_t>(blk.colIdx[k])];
        }
        r[static_cast<std::size_t>(i)] = acc / vals[d];
      }
      for (std::size_t i = 0; i < m; ++i) x[i] += r[i];
      lisi::prec::noteBytesLow(
          4LL * static_cast<long long>(lvl.gsValsF.size()));
    }
  }
}

void Solver::Impl::coarseSolveF(std::span<const float> b,
                                std::span<float> x) const {
  const Level& coarse = levels.back();
  // The coarsest grid is a handful of rows; gather/scatter stay float64
  // (negligible traffic), only the dense triangular solves run in float32.
  std::vector<double> bd(b.begin(), b.end());
  std::vector<double> bg =
      coarse.a->gatherVectorToRoot(std::span<const double>(bd), 0);
  if (comm.rank() == 0) {
    std::vector<float> bf(bg.begin(), bg.end());
    coarseLu.solveF(bf);
    std::copy(bf.begin(), bf.end(), bg.begin());
  }
  const std::vector<double> xl = coarse.a->scatterVectorFromRoot(
      comm.rank() == 0 ? std::span<const double>(bg)
                       : std::span<const double>(),
      0);
  for (std::size_t i = 0; i < xl.size(); ++i) {
    x[i] = static_cast<float>(xl[i]);
  }
}

void Solver::Impl::cycleF(std::size_t l, std::span<const float> b,
                          std::span<float> x) const {
  const Level& lvl = levels[l];
  if (l + 1 == levels.size()) {
    coarseSolveF(b, x);
    return;
  }
  smoothF(lvl, b, x, options.preSmooth);
  const auto m = static_cast<std::size_t>(lvl.a->localRows());
  std::vector<float>& r = lvl.cycRF;
  std::vector<float>& rc = lvl.cycRcF;
  std::vector<float>& ec = lvl.cycEcF;
  std::vector<float>& pe = lvl.cycPeF;
  for (int g = 0; g < options.gamma; ++g) {
    lvl.a->spmvFloat(x, std::span<float>(r));
    for (std::size_t i = 0; i < m; ++i) r[i] = b[i] - r[i];
    lvl.r->spmvFloat(std::span<const float>(r), std::span<float>(rc));
    std::fill(ec.begin(), ec.end(), 0.0f);
    cycleF(l + 1, std::span<const float>(rc), std::span<float>(ec));
    lvl.p->spmvFloat(std::span<const float>(ec), std::span<float>(pe));
    for (std::size_t i = 0; i < m; ++i) x[i] += pe[i];
    if (g + 1 < options.gamma) smoothF(lvl, b, x, options.postSmooth);
  }
  smoothF(lvl, b, x, options.postSmooth);
}

Solver::Solver(Comm comm, int gridN, StencilFn stencil, Options options)
    : impl_(new Impl) {
  impl_->init(std::move(comm), std::move(stencil), options);
  lisi::obs::Span span("hymg.setup");
  impl_->build(gridN, nullptr);
}

Solver::Solver(std::shared_ptr<const DistCsrMatrix> fine, int gridN,
               StencilFn stencil, Options options)
    : impl_(new Impl) {
  LISI_CHECK(fine != nullptr, "HyMG: null fine operator");
  impl_->init(fine->comm(), std::move(stencil), options);
  lisi::obs::Span span("hymg.setup");
  impl_->build(gridN, std::move(fine));
}

Solver::~Solver() = default;
Solver::Solver(Solver&&) noexcept = default;
Solver& Solver::operator=(Solver&&) noexcept = default;

void Solver::refreshOperator(StencilFn stencil) {
  LISI_CHECK(static_cast<bool>(stencil),
             "HyMG::refreshOperator: stencil must be callable");
  impl_->stencil = std::move(stencil);
  lisi::obs::Span span("hymg.refresh");
  impl_->refreshValues();
}

int Solver::numLevels() const { return static_cast<int>(impl_->levels.size()); }

int Solver::gridN(int level) const {
  LISI_CHECK(level >= 0 && level < numLevels(), "HyMG: level out of range");
  return impl_->levels[static_cast<std::size_t>(level)].n;
}

const DistCsrMatrix& Solver::fineMatrix() const {
  return *impl_->levels.front().a;
}

int Solver::fineLocalRows() const {
  return impl_->levels.front().a->localRows();
}

void Solver::setLowPrecision(bool enable) {
  if (impl_->lowPrecision == enable) return;
  impl_->lowPrecision = enable;
  if (enable) {
    impl_->mirrorLowPrecision();
    return;
  }
  for (auto& lvl : impl_->levels) {
    lvl.invDiagF.clear();
    lvl.gsValsF.clear();
    lvl.smoothRF.clear();
    lvl.cycRF.clear();
    lvl.cycPeF.clear();
    lvl.cycRcF.clear();
    lvl.cycEcF.clear();
  }
  impl_->fineBF.clear();
  impl_->fineXF.clear();
  impl_->coarseLu.dropFloatMirror();
}

void Solver::smooth(std::span<const double> b, std::span<double> x,
                    int sweeps) const {
  LISI_CHECK(static_cast<int>(b.size()) == fineLocalRows() &&
                 b.size() == x.size(),
             "HyMG::smooth: size mismatch");
  impl_->smooth(impl_->levels.front(), b, x, sweeps);
}

void Solver::applyCycle(std::span<const double> b, std::span<double> x) const {
  LISI_CHECK(static_cast<int>(b.size()) == fineLocalRows() &&
                 b.size() == x.size(),
             "HyMG::applyCycle: size mismatch");
  std::fill(x.begin(), x.end(), 0.0);
  lisi::obs::Span span("hymg.cycle");
  if (impl_->lowPrecision) {
    // Zero initial guess makes b itself the defect: one float32 cycle.
    std::vector<float>& bf = impl_->fineBF;
    std::vector<float>& xf = impl_->fineXF;
    for (std::size_t i = 0; i < b.size(); ++i) {
      bf[i] = static_cast<float>(b[i]);
    }
    std::fill(xf.begin(), xf.end(), 0.0f);
    impl_->cycleF(0, std::span<const float>(bf), std::span<float>(xf));
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = static_cast<double>(xf[i]);
    }
    lisi::prec::noteLowApply();
    return;
  }
  impl_->cycle(0, b, x);
}

SolveInfo Solver::solve(std::span<const double> b, std::span<double> x,
                        double rtol, int maxCycles) const {
  LISI_CHECK(static_cast<int>(b.size()) == fineLocalRows() &&
                 b.size() == x.size(),
             "HyMG::solve: size mismatch");
  const DistCsrMatrix& a = fineMatrix();
  const double bnorm = lisi::sparse::distNorm2(impl_->comm, b);
  SolveInfo info;
  if (bnorm == 0.0) {
    std::fill(x.begin(), x.end(), 0.0);
    info.converged = true;
    return info;
  }
  std::vector<double> r(b.size());
  if (impl_->lowPrecision) {
    // Defect correction: the float64 residual of the current iterate is the
    // right-hand side of one float32 cycle, whose correction is added back
    // in float64.  The residual computed for the convergence test doubles
    // as the next iteration's defect, so the per-cycle float64 work is one
    // fine-level SpMV — the same as the float64 path.
    std::vector<float>& bf = impl_->fineBF;
    std::vector<float>& xf = impl_->fineXF;
    a.spmv(x, std::span<double>(r));
    for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
    for (int c = 0; c < maxCycles; ++c) {
      {
        lisi::obs::Span span("hymg.cycle");
        for (std::size_t i = 0; i < r.size(); ++i) {
          bf[i] = static_cast<float>(r[i]);
        }
        std::fill(xf.begin(), xf.end(), 0.0f);
        impl_->cycleF(0, std::span<const float>(bf), std::span<float>(xf));
        for (std::size_t i = 0; i < x.size(); ++i) {
          x[i] += static_cast<double>(xf[i]);
        }
        lisi::prec::noteLowApply();
        lisi::prec::noteRefineSweeps(1);
      }
      info.cycles = c + 1;
      a.spmv(x, std::span<double>(r));
      for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
      info.residualNorm = lisi::sparse::distNorm2(impl_->comm, r);
      info.relResidual = info.residualNorm / bnorm;
      if (info.relResidual <= rtol) {
        info.converged = true;
        return info;
      }
    }
    return info;
  }
  for (int c = 0; c < maxCycles; ++c) {
    {
      lisi::obs::Span span("hymg.cycle");
      impl_->cycle(0, b, x);
    }
    info.cycles = c + 1;
    a.spmv(x, std::span<double>(r));
    for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
    info.residualNorm = lisi::sparse::distNorm2(impl_->comm, r);
    info.relResidual = info.residualNorm / bnorm;
    if (info.relResidual <= rtol) {
      info.converged = true;
      return info;
    }
  }
  return info;
}

}  // namespace hymg
