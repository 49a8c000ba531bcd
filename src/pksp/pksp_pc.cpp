// Process-local preconditioners for PKSP: Jacobi, local SOR, and ILU(0) on
// the local diagonal block (one block per process, i.e. block Jacobi).
#include <algorithm>
#include <cmath>

#include "pksp/pksp_internal.hpp"
#include "support/prec.hpp"

namespace pksp::detail {
namespace {

using lisi::sparse::DistCsrMatrix;
using lisi::sparse::OwnedBlockView;

class JacobiPc final : public Preconditioner {
 public:
  explicit JacobiPc(const DistCsrMatrix& a) : invDiag_(a.localDiagonal()) {
    invert();
  }
  void apply(std::span<const double> r, std::span<double> z) const override {
    for (std::size_t i = 0; i < r.size(); ++i) z[i] = invDiag_[i] * r[i];
  }
  [[nodiscard]] bool refresh(const DistCsrMatrix& a) override {
    std::vector<double> d = a.localDiagonal();
    if (d.size() != invDiag_.size()) return false;
    invDiag_ = std::move(d);
    invert();
    return true;
  }

 private:
  void invert() {
    for (double& d : invDiag_) {
      LISI_CHECK(d != 0.0, "Jacobi preconditioner: zero diagonal entry");
      d = 1.0 / d;
    }
  }
  std::vector<double> invDiag_;
};

/// The view's diagonal positions; throws `what` when a row has none.
std::vector<int> findDiagonals(const OwnedBlockView& v, const char* what) {
  std::vector<int> pos = v.diagonalPositions();
  for (const int k : pos) LISI_CHECK(k >= 0, what);
  return pos;
}

/// Local SOR: `sweeps` forward Gauss-Seidel-with-relaxation passes on the
/// local diagonal block, starting from z = 0 (standard SOR preconditioning).
/// Reads the operator's values through its owned-block view and keeps only
/// the diagonal positions, so a same-pattern refresh copies nothing; the
/// operator must outlive the preconditioner.
class LocalSorPc final : public Preconditioner {
 public:
  LocalSorPc(const DistCsrMatrix& a, double omega, int sweeps)
      : blk_(a.ownedBlockView()),
        diagPos_(
            findDiagonals(blk_, "SOR preconditioner: zero diagonal entry")),
        ownedNnz_(blk_.ownedNnz()),
        omega_(omega),
        sweeps_(sweeps) {
    LISI_CHECK(omega > 0.0 && omega < 2.0,
               "SOR preconditioner: omega must be in (0, 2)");
    LISI_CHECK(sweeps >= 1, "SOR preconditioner: need at least one sweep");
    checkDiagonal();
  }

  [[nodiscard]] bool refresh(const DistCsrMatrix& a) override {
    // Same-pattern contract: the view sees the new values in place, so only
    // the diagonal check (and the float mirror) have work to do.
    const OwnedBlockView v = a.ownedBlockView();
    if (!v.samePattern(blk_)) return false;
    blk_ = v;
    checkDiagonal();
    if (low_) mirrorToFloat();
    return true;
  }

  void setLowPrecision(bool enable) override {
    low_ = enable;
    if (enable) {
      mirrorToFloat();
    } else {
      valsF_.clear();
      zF_.clear();
    }
  }

  void apply(std::span<const double> r, std::span<double> z) const override {
    if (low_) {
      applyLow(r, z);
      return;
    }
    std::fill(z.begin(), z.end(), 0.0);
    for (int sweep = 0; sweep < sweeps_; ++sweep) {
      for (int i = 0; i < blk_.rows; ++i) {
        double sigma = 0.0;
        const int end = blk_.ownedEnd(i);
        for (int k = blk_.ownedBegin(i); k < end; ++k) {
          const int j = blk_.colIdx[k];
          if (j != i) sigma += blk_.values[k] * z[static_cast<std::size_t>(j)];
        }
        const double gs = (r[static_cast<std::size_t>(i)] - sigma) /
                          blk_.values[diagPos_[static_cast<std::size_t>(i)]];
        z[static_cast<std::size_t>(i)] =
            (1.0 - omega_) * z[static_cast<std::size_t>(i)] + omega_ * gs;
      }
    }
    lisi::prec::noteBytesHigh(8LL * ownedNnz_ * sweeps_);
  }

 private:
  void checkDiagonal() const {
    for (const int k : diagPos_) {
      LISI_CHECK(blk_.values[k] != 0.0,
                 "SOR preconditioner: zero diagonal entry");
    }
  }

  void mirrorToFloat() {
    valsF_.assign(blk_.values, blk_.values + blk_.nnz());
    zF_.resize(static_cast<std::size_t>(blk_.rows));
  }

  /// Float32 sweeps over the float32 value mirror.  The residual is cast on
  /// read and the result on write; z is only an M^{-1} direction, so its
  /// float32 rounding perturbs the preconditioner, not the Krylov recurrence.
  void applyLow(std::span<const double> r, std::span<double> z) const {
    std::fill(zF_.begin(), zF_.end(), 0.0f);
    const float omega = static_cast<float>(omega_);
    for (int sweep = 0; sweep < sweeps_; ++sweep) {
      for (int i = 0; i < blk_.rows; ++i) {
        float sigma = 0.0f;
        const int end = blk_.ownedEnd(i);
        for (int k = blk_.ownedBegin(i); k < end; ++k) {
          const int j = blk_.colIdx[k];
          if (j != i) {
            sigma += valsF_[static_cast<std::size_t>(k)] *
                     zF_[static_cast<std::size_t>(j)];
          }
        }
        const float gs =
            (static_cast<float>(r[static_cast<std::size_t>(i)]) - sigma) /
            valsF_[static_cast<std::size_t>(
                diagPos_[static_cast<std::size_t>(i)])];
        zF_[static_cast<std::size_t>(i)] =
            (1.0f - omega) * zF_[static_cast<std::size_t>(i)] + omega * gs;
      }
    }
    for (std::size_t i = 0; i < z.size(); ++i) {
      z[i] = static_cast<double>(zF_[i]);
    }
    lisi::prec::noteLowApply();
    lisi::prec::noteBytesLow(4LL * ownedNnz_ * sweeps_);
  }

  OwnedBlockView blk_;
  std::vector<int> diagPos_;
  long long ownedNnz_;  ///< entries a sweep reads
  double omega_;
  int sweeps_;
  bool low_ = false;
  std::vector<float> valsF_;
  mutable std::vector<float> zF_;
};

/// ILU(0) of the local diagonal block: incomplete LU with zero fill,
/// i.e. L and U inherit exactly the sparsity of the block.  apply() performs
/// the two triangular solves.  One block per process = block-Jacobi ILU(0),
/// PETSc's default parallel preconditioner configuration.  The pattern is
/// the operator's, read through its owned-block view; the preconditioner
/// keeps only the factored values, in the operator's layout, and the
/// diagonal positions.  The operator must outlive the preconditioner.
class LocalIlu0Pc final : public Preconditioner {
 public:
  explicit LocalIlu0Pc(const DistCsrMatrix& a)
      : blk_(a.ownedBlockView()),
        diagPos_(findDiagonals(blk_, "ILU(0): structurally zero diagonal")),
        lu_(blk_.values, blk_.values + blk_.nnz()),
        ownedNnz_(blk_.ownedNnz()) {
    factor();
  }

  [[nodiscard]] bool refresh(const DistCsrMatrix& a) override {
    // Copy the fresh values over the fixed ILU(0) pattern (zero fill: the
    // factors live exactly on the block's sparsity) and redo the numeric
    // elimination.  diagPos_ stays valid.
    const OwnedBlockView v = a.ownedBlockView();
    if (!v.samePattern(blk_)) return false;
    blk_ = v;
    std::copy(v.values, v.values + v.nnz(), lu_.begin());
    factor();
    return true;
  }

  void setLowPrecision(bool enable) override {
    low_ = enable;
    if (enable) {
      mirrorToFloat();
    } else {
      luValsF_.clear();
      zF_.clear();
    }
  }

  void apply(std::span<const double> r, std::span<double> z) const override {
    if (low_) {
      applyLow(r, z);
      return;
    }
    const double* rp = r.data();
    double* zp = z.data();
    solve<1>(&rp, &zp);
    lisi::prec::noteBytesHigh(8LL * ownedNnz_);
  }

  /// Double precision interleaves up to four lanes per pass over the
  /// factors, so the lanes share every index and value load; each lane's
  /// chain is apply()'s.
  void applyLanes(std::span<const double> r, std::span<double> z,
                  std::span<const std::size_t> lanes,
                  std::size_t n) const override {
    if (low_) {
      Preconditioner::applyLanes(r, z, lanes, n);
      return;
    }
    constexpr std::size_t kGroup = 4;
    for (std::size_t k = 0; k < lanes.size(); k += kGroup) {
      const double* rp[kGroup];
      double* zp[kGroup];
      const std::size_t g = std::min(kGroup, lanes.size() - k);
      for (std::size_t q = 0; q < g; ++q) {
        rp[q] = r.data() + lanes[k + q] * n;
        zp[q] = z.data() + lanes[k + q] * n;
      }
      switch (g) {
        case 1: solve<1>(rp, zp); break;
        case 2: solve<2>(rp, zp); break;
        case 3: solve<3>(rp, zp); break;
        default: solve<4>(rp, zp); break;
      }
    }
    lisi::prec::noteBytesHigh(8LL * ownedNnz_ *
                              static_cast<long long>(lanes.size()));
  }

 private:
  /// Forward solve L y = r (unit lower triangular), then backward solve
  /// U z = y, for G lanes at once.  Every lane keeps its own accumulator,
  /// so its arithmetic does not depend on G.  Row i's L entries are
  /// [owned begin, diagonal), its U entries (diagonal, owned end).
  template <int G>
  void solve(const double* const* r, double* const* z) const {
    const OwnedBlockView blk = blk_;
    const int n = blk.rows;
    const int* colIdx = blk.colIdx;
    const int* diag = diagPos_.data();
    const double* val = lu_.data();
    double acc[G];
    for (int i = 0; i < n; ++i) {
      for (int g = 0; g < G; ++g) acc[g] = r[g][i];
      for (int k = blk.ownedBegin(i); k < diag[i]; ++k) {
        const double a = val[k];
        const int c = colIdx[k];
        for (int g = 0; g < G; ++g) acc[g] -= a * z[g][c];
      }
      for (int g = 0; g < G; ++g) z[g][i] = acc[g];
    }
    for (int i = n - 1; i >= 0; --i) {
      for (int g = 0; g < G; ++g) acc[g] = z[g][i];
      const int end = blk.ownedEnd(i);
      for (int k = diag[i] + 1; k < end; ++k) {
        const double a = val[k];
        const int c = colIdx[k];
        for (int g = 0; g < G; ++g) acc[g] -= a * z[g][c];
      }
      const double d = val[diag[i]];
      for (int g = 0; g < G; ++g) z[g][i] = acc[g] / d;
    }
  }

  void factor() {
    // IKJ-variant ILU(0) (Saad, Alg. 10.4) restricted to existing pattern.
    // Both rows are sorted by column, so row j's U entries meet row i's
    // entries after k in one merge: the same updates, in the same order, as
    // a column-indexed lookup, with no scratch.
    const int* colIdx = blk_.colIdx;
    double* val = lu_.data();
    for (int i = 0; i < blk_.rows; ++i) {
      const int re = blk_.ownedEnd(i);
      const int di = diagPos_[static_cast<std::size_t>(i)];
      for (int k = blk_.ownedBegin(i); k < di; ++k) {
        const int j = colIdx[k];  // strictly lower entries eliminate
        const int dj = diagPos_[static_cast<std::size_t>(j)];
        const double pivot = val[dj];
        LISI_CHECK(pivot != 0.0, "ILU(0): zero pivot during factorization");
        const double lij = val[k] / pivot;
        val[k] = lij;
        const int je = blk_.ownedEnd(j);
        int pos = k + 1;
        for (int kk = dj + 1; kk < je && pos < re; ++kk) {
          const int col = colIdx[kk];
          while (pos < re && colIdx[pos] < col) ++pos;
          if (pos < re && colIdx[pos] == col) val[pos] -= lij * val[kk];
        }
      }
      LISI_CHECK(val[di] != 0.0, "ILU(0): zero pivot");
    }
    if (low_) mirrorToFloat();
  }

  void mirrorToFloat() {
    luValsF_.assign(lu_.begin(), lu_.end());
    zF_.resize(static_cast<std::size_t>(blk_.rows));
  }

  /// Float32 triangular solves over the float32 factor mirror; see
  /// LocalSorPc::applyLow for the precision rationale.
  void applyLow(std::span<const double> r, std::span<double> z) const {
    const int n = blk_.rows;
    const int* colIdx = blk_.colIdx;
    const int* diag = diagPos_.data();
    const float* val = luValsF_.data();
    float* zf = zF_.data();
    for (int i = 0; i < n; ++i) {
      float acc = static_cast<float>(r[static_cast<std::size_t>(i)]);
      for (int k = blk_.ownedBegin(i); k < diag[i]; ++k) {
        acc -= val[k] * zf[colIdx[k]];
      }
      zf[i] = acc;
    }
    for (int i = n - 1; i >= 0; --i) {
      float acc = zf[i];
      const int end = blk_.ownedEnd(i);
      for (int k = diag[i] + 1; k < end; ++k) acc -= val[k] * zf[colIdx[k]];
      zf[i] = acc / val[diag[i]];
    }
    for (std::size_t i = 0; i < z.size(); ++i) {
      z[i] = static_cast<double>(zF_[i]);
    }
    lisi::prec::noteLowApply();
    lisi::prec::noteBytesLow(4LL * ownedNnz_);
  }

  OwnedBlockView blk_;
  std::vector<int> diagPos_;
  std::vector<double> lu_;  ///< factored values, the operator's layout
  long long ownedNnz_;      ///< entries the factors use
  bool low_ = false;
  std::vector<float> luValsF_;
  mutable std::vector<float> zF_;
};

}  // namespace

std::unique_ptr<Preconditioner> makeJacobi(const DistCsrMatrix& a) {
  return std::make_unique<JacobiPc>(a);
}

std::unique_ptr<Preconditioner> makeLocalSor(const DistCsrMatrix& a,
                                             double omega, int sweeps) {
  return std::make_unique<LocalSorPc>(a, omega, sweeps);
}

std::unique_ptr<Preconditioner> makeLocalIlu0(const DistCsrMatrix& a) {
  return std::make_unique<LocalIlu0Pc>(a);
}

}  // namespace pksp::detail
