// Process-local preconditioners for PKSP: Jacobi, local SOR, and ILU(0) on
// the local diagonal block (one block per process, i.e. block Jacobi).
#include <algorithm>
#include <cmath>

#include "pksp/pksp_internal.hpp"
#include "support/prec.hpp"

namespace pksp::detail {
namespace {

using lisi::sparse::CsrMatrix;
using lisi::sparse::DistCsrMatrix;

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

/// Local SOR: `sweeps` forward Gauss-Seidel-with-relaxation passes on the
/// local diagonal block, starting from z = 0 (standard SOR preconditioning).
class LocalSorPc final : public Preconditioner {
 public:
  LocalSorPc(const DistCsrMatrix& a, double omega, int sweeps)
      : blk_(a.ownedBlock()), omega_(omega), sweeps_(sweeps) {
    LISI_CHECK(omega > 0.0 && omega < 2.0,
               "SOR preconditioner: omega must be in (0, 2)");
    LISI_CHECK(sweeps >= 1, "SOR preconditioner: need at least one sweep");
    diag_.resize(static_cast<std::size_t>(blk_.rows));
    for (int i = 0; i < blk_.rows; ++i) {
      double d = 0.0;
      for (int k = blk_.rowPtr[static_cast<std::size_t>(i)];
           k < blk_.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
        if (blk_.colIdx[static_cast<std::size_t>(k)] == i) {
          d += blk_.values[static_cast<std::size_t>(k)];
        }
      }
      LISI_CHECK(d != 0.0, "SOR preconditioner: zero diagonal entry");
      diag_[static_cast<std::size_t>(i)] = d;
    }
  }

  [[nodiscard]] bool refresh(const DistCsrMatrix& a) override {
    // Same-pattern contract: the extracted diagonal block keeps its layout,
    // so only the values (and the cached row diagonals) need rewriting.
    CsrMatrix blk = a.ownedBlock();
    if (blk.rowPtr != blk_.rowPtr || blk.colIdx != blk_.colIdx) return false;
    blk_.values = std::move(blk.values);
    for (int i = 0; i < blk_.rows; ++i) {
      double d = 0.0;
      for (int k = blk_.rowPtr[static_cast<std::size_t>(i)];
           k < blk_.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
        if (blk_.colIdx[static_cast<std::size_t>(k)] == i) {
          d += blk_.values[static_cast<std::size_t>(k)];
        }
      }
      LISI_CHECK(d != 0.0, "SOR preconditioner: zero diagonal entry");
      diag_[static_cast<std::size_t>(i)] = d;
    }
    if (low_) mirrorToFloat();
    return true;
  }

  void setLowPrecision(bool enable) override {
    low_ = enable;
    if (enable) {
      mirrorToFloat();
    } else {
      valsF_.clear();
      diagF_.clear();
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
        for (int k = blk_.rowPtr[static_cast<std::size_t>(i)];
             k < blk_.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
          const int j = blk_.colIdx[static_cast<std::size_t>(k)];
          if (j != i) {
            sigma += blk_.values[static_cast<std::size_t>(k)] *
                     z[static_cast<std::size_t>(j)];
          }
        }
        const double gs =
            (r[static_cast<std::size_t>(i)] - sigma) /
            diag_[static_cast<std::size_t>(i)];
        z[static_cast<std::size_t>(i)] =
            (1.0 - omega_) * z[static_cast<std::size_t>(i)] + omega_ * gs;
      }
    }
    lisi::prec::noteBytesHigh(8LL * static_cast<long long>(blk_.values.size()) *
                              sweeps_);
  }

 private:
  void mirrorToFloat() {
    valsF_.assign(blk_.values.begin(), blk_.values.end());
    diagF_.assign(diag_.begin(), diag_.end());
    zF_.resize(static_cast<std::size_t>(blk_.rows));
  }

  /// Float32 sweeps over the float32 block mirror.  The residual is cast on
  /// read and the result on write; z is only an M^{-1} direction, so its
  /// float32 rounding perturbs the preconditioner, not the Krylov recurrence.
  void applyLow(std::span<const double> r, std::span<double> z) const {
    std::fill(zF_.begin(), zF_.end(), 0.0f);
    const float omega = static_cast<float>(omega_);
    for (int sweep = 0; sweep < sweeps_; ++sweep) {
      for (int i = 0; i < blk_.rows; ++i) {
        float sigma = 0.0f;
        for (int k = blk_.rowPtr[static_cast<std::size_t>(i)];
             k < blk_.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
          const int j = blk_.colIdx[static_cast<std::size_t>(k)];
          if (j != i) {
            sigma += valsF_[static_cast<std::size_t>(k)] *
                     zF_[static_cast<std::size_t>(j)];
          }
        }
        const float gs =
            (static_cast<float>(r[static_cast<std::size_t>(i)]) - sigma) /
            diagF_[static_cast<std::size_t>(i)];
        zF_[static_cast<std::size_t>(i)] =
            (1.0f - omega) * zF_[static_cast<std::size_t>(i)] + omega * gs;
      }
    }
    for (std::size_t i = 0; i < z.size(); ++i) {
      z[i] = static_cast<double>(zF_[i]);
    }
    lisi::prec::noteLowApply();
    lisi::prec::noteBytesLow(4LL * static_cast<long long>(valsF_.size()) *
                             sweeps_);
  }

  CsrMatrix blk_;
  std::vector<double> diag_;
  double omega_;
  int sweeps_;
  bool low_ = false;
  std::vector<float> valsF_, diagF_;
  mutable std::vector<float> zF_;
};

/// ILU(0) of the local diagonal block: incomplete LU with zero fill,
/// i.e. L and U inherit exactly the sparsity of the block.  apply() performs
/// the two triangular solves.  One block per process = block-Jacobi ILU(0),
/// PETSc's default parallel preconditioner configuration.
class LocalIlu0Pc final : public Preconditioner {
 public:
  explicit LocalIlu0Pc(const DistCsrMatrix& a) : lu_(a.ownedBlock()) {
    const int n = lu_.rows;
    diagPos_.assign(static_cast<std::size_t>(n), -1);
    for (int i = 0; i < n; ++i) {
      for (int k = lu_.rowPtr[static_cast<std::size_t>(i)];
           k < lu_.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
        if (lu_.colIdx[static_cast<std::size_t>(k)] == i) {
          diagPos_[static_cast<std::size_t>(i)] = k;
        }
      }
      LISI_CHECK(diagPos_[static_cast<std::size_t>(i)] >= 0,
                 "ILU(0): structurally zero diagonal");
    }
    factor();
  }

  [[nodiscard]] bool refresh(const DistCsrMatrix& a) override {
    // Rewrite the factor storage with the fresh values over the fixed
    // ILU(0) pattern (zero fill: the factors live exactly on the block's
    // sparsity) and redo the numeric elimination.  diagPos_ stays valid.
    CsrMatrix blk = a.ownedBlock();
    if (blk.rowPtr != lu_.rowPtr || blk.colIdx != lu_.colIdx) return false;
    lu_.values = std::move(blk.values);
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
    lisi::prec::noteBytesHigh(8LL * static_cast<long long>(lu_.values.size()));
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
    lisi::prec::noteBytesHigh(8LL * static_cast<long long>(lu_.values.size()) *
                              static_cast<long long>(lanes.size()));
  }

 private:
  /// Forward solve L y = r (unit lower triangular), then backward solve
  /// U z = y, for G lanes at once.  Every lane keeps its own accumulator,
  /// so its arithmetic does not depend on G.
  template <int G>
  void solve(const double* const* r, double* const* z) const {
    const int n = lu_.rows;
    const int* rowPtr = lu_.rowPtr.data();
    const int* colIdx = lu_.colIdx.data();
    const int* diag = diagPos_.data();
    const double* val = lu_.values.data();
    double acc[G];
    for (int i = 0; i < n; ++i) {
      for (int g = 0; g < G; ++g) acc[g] = r[g][i];
      for (int k = rowPtr[i]; k < diag[i]; ++k) {
        const double a = val[k];
        const int c = colIdx[k];
        for (int g = 0; g < G; ++g) acc[g] -= a * z[g][c];
      }
      for (int g = 0; g < G; ++g) z[g][i] = acc[g];
    }
    for (int i = n - 1; i >= 0; --i) {
      for (int g = 0; g < G; ++g) acc[g] = z[g][i];
      for (int k = diag[i] + 1; k < rowPtr[i + 1]; ++k) {
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
    const int n = lu_.rows;
    std::vector<int> posInRow(static_cast<std::size_t>(n), -1);
    for (int i = 0; i < n; ++i) {
      const int rb = lu_.rowPtr[static_cast<std::size_t>(i)];
      const int re = lu_.rowPtr[static_cast<std::size_t>(i) + 1];
      for (int k = rb; k < re; ++k) {
        posInRow[static_cast<std::size_t>(
            lu_.colIdx[static_cast<std::size_t>(k)])] = k;
      }
      for (int k = rb; k < re; ++k) {
        const int j = lu_.colIdx[static_cast<std::size_t>(k)];
        if (j >= i) break;  // only strictly-lower entries eliminate
        const double pivot =
            lu_.values[static_cast<std::size_t>(
                diagPos_[static_cast<std::size_t>(j)])];
        LISI_CHECK(pivot != 0.0, "ILU(0): zero pivot during factorization");
        const double lij = lu_.values[static_cast<std::size_t>(k)] / pivot;
        lu_.values[static_cast<std::size_t>(k)] = lij;
        for (int kk = diagPos_[static_cast<std::size_t>(j)] + 1;
             kk < lu_.rowPtr[static_cast<std::size_t>(j) + 1]; ++kk) {
          const int col = lu_.colIdx[static_cast<std::size_t>(kk)];
          const int pos = posInRow[static_cast<std::size_t>(col)];
          if (pos >= 0) {
            lu_.values[static_cast<std::size_t>(pos)] -=
                lij * lu_.values[static_cast<std::size_t>(kk)];
          }
        }
      }
      for (int k = rb; k < re; ++k) {
        posInRow[static_cast<std::size_t>(
            lu_.colIdx[static_cast<std::size_t>(k)])] = -1;
      }
      LISI_CHECK(
          lu_.values[static_cast<std::size_t>(
              diagPos_[static_cast<std::size_t>(i)])] != 0.0,
          "ILU(0): zero pivot");
    }
    if (low_) mirrorToFloat();
  }

  void mirrorToFloat() {
    luValsF_.assign(lu_.values.begin(), lu_.values.end());
    zF_.resize(static_cast<std::size_t>(lu_.rows));
  }

  /// Float32 triangular solves over the float32 factor mirror; see
  /// LocalSorPc::applyLow for the precision rationale.
  void applyLow(std::span<const double> r, std::span<double> z) const {
    const int n = lu_.rows;
    for (int i = 0; i < n; ++i) {
      float acc = static_cast<float>(r[static_cast<std::size_t>(i)]);
      for (int k = lu_.rowPtr[static_cast<std::size_t>(i)];
           k < diagPos_[static_cast<std::size_t>(i)]; ++k) {
        acc -= luValsF_[static_cast<std::size_t>(k)] *
               zF_[static_cast<std::size_t>(
                   lu_.colIdx[static_cast<std::size_t>(k)])];
      }
      zF_[static_cast<std::size_t>(i)] = acc;
    }
    for (int i = n - 1; i >= 0; --i) {
      float acc = zF_[static_cast<std::size_t>(i)];
      for (int k = diagPos_[static_cast<std::size_t>(i)] + 1;
           k < lu_.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
        acc -= luValsF_[static_cast<std::size_t>(k)] *
               zF_[static_cast<std::size_t>(
                   lu_.colIdx[static_cast<std::size_t>(k)])];
      }
      zF_[static_cast<std::size_t>(i)] =
          acc / luValsF_[static_cast<std::size_t>(
                    diagPos_[static_cast<std::size_t>(i)])];
    }
    for (std::size_t i = 0; i < z.size(); ++i) {
      z[i] = static_cast<double>(zF_[i]);
    }
    lisi::prec::noteLowApply();
    lisi::prec::noteBytesLow(4LL * static_cast<long long>(luValsF_.size()));
  }

  CsrMatrix lu_;
  std::vector<int> diagPos_;
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
