#include "sparse/ops.hpp"

#include <algorithm>
#include <cmath>

#include "sparse/convert.hpp"

namespace lisi::sparse {

namespace {

// The kernels are templates over the stored scalar; the public double and
// float overloads below instantiate them.  Each kernel accumulates in its
// own scalar (the float paths are bandwidth plays wrapped in float64
// refinement; reductions that feed convergence checks accumulate in double
// regardless — see norm2/dot).
template <class V>
void spmvCsrImpl(const CsrMatrixT<V>& a, std::span<const V> x,
                 std::span<V> y) {
  LISI_CHECK(static_cast<int>(x.size()) == a.cols, "spmv(CSR): x size mismatch");
  LISI_CHECK(static_cast<int>(y.size()) == a.rows, "spmv(CSR): y size mismatch");
  for (int i = 0; i < a.rows; ++i) {
    V acc = V(0);
    for (int k = a.rowPtr[static_cast<std::size_t>(i)];
         k < a.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      acc += a.values[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(a.colIdx[static_cast<std::size_t>(k)])];
    }
    y[static_cast<std::size_t>(i)] = acc;
  }
}

template <class V>
void spmvVbrImpl(const VbrMatrixT<V>& a, std::span<const V> x,
                 std::span<V> y) {
  LISI_CHECK(static_cast<int>(x.size()) == a.cols(), "spmv(VBR): x size mismatch");
  LISI_CHECK(static_cast<int>(y.size()) == a.rows(), "spmv(VBR): y size mismatch");
  std::fill(y.begin(), y.end(), V(0));
  for (int br = 0; br < a.numRowBlocks(); ++br) {
    const int r0 = a.rpntr[static_cast<std::size_t>(br)];
    const int rdim = a.rpntr[static_cast<std::size_t>(br) + 1] - r0;
    for (int b = a.bpntr[static_cast<std::size_t>(br)];
         b < a.bpntr[static_cast<std::size_t>(br) + 1]; ++b) {
      const int bc = a.bindx[static_cast<std::size_t>(b)];
      const int c0 = a.cpntr[static_cast<std::size_t>(bc)];
      const int cdim = a.cpntr[static_cast<std::size_t>(bc) + 1] - c0;
      const int base = a.indx[static_cast<std::size_t>(b)];
      for (int lj = 0; lj < cdim; ++lj) {
        const V xj = x[static_cast<std::size_t>(c0 + lj)];
        for (int li = 0; li < rdim; ++li) {
          y[static_cast<std::size_t>(r0 + li)] +=
              a.val[static_cast<std::size_t>(base + lj * rdim + li)] * xj;
        }
      }
    }
  }
}

}  // namespace

void spmv(const CsrMatrix& a, std::span<const double> x, std::span<double> y) {
  spmvCsrImpl<double>(a, x, y);
}

void spmv(const CsrMatrixF& a, std::span<const float> x, std::span<float> y) {
  spmvCsrImpl<float>(a, x, y);
}

void spmvTranspose(const CsrMatrix& a, std::span<const double> x,
                   std::span<double> y) {
  LISI_CHECK(static_cast<int>(x.size()) == a.rows,
             "spmvTranspose: x size mismatch");
  LISI_CHECK(static_cast<int>(y.size()) == a.cols,
             "spmvTranspose: y size mismatch");
  std::fill(y.begin(), y.end(), 0.0);
  for (int i = 0; i < a.rows; ++i) {
    const double xi = x[static_cast<std::size_t>(i)];
    for (int k = a.rowPtr[static_cast<std::size_t>(i)];
         k < a.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      y[static_cast<std::size_t>(a.colIdx[static_cast<std::size_t>(k)])] +=
          a.values[static_cast<std::size_t>(k)] * xi;
    }
  }
}

void spmv(const CscMatrix& a, std::span<const double> x, std::span<double> y) {
  LISI_CHECK(static_cast<int>(x.size()) == a.cols, "spmv(CSC): x size mismatch");
  LISI_CHECK(static_cast<int>(y.size()) == a.rows, "spmv(CSC): y size mismatch");
  std::fill(y.begin(), y.end(), 0.0);
  for (int j = 0; j < a.cols; ++j) {
    const double xj = x[static_cast<std::size_t>(j)];
    for (int k = a.colPtr[static_cast<std::size_t>(j)];
         k < a.colPtr[static_cast<std::size_t>(j) + 1]; ++k) {
      y[static_cast<std::size_t>(a.rowIdx[static_cast<std::size_t>(k)])] +=
          a.values[static_cast<std::size_t>(k)] * xj;
    }
  }
}

void spmv(const CooMatrix& a, std::span<const double> x, std::span<double> y) {
  LISI_CHECK(static_cast<int>(x.size()) == a.cols, "spmv(COO): x size mismatch");
  LISI_CHECK(static_cast<int>(y.size()) == a.rows, "spmv(COO): y size mismatch");
  std::fill(y.begin(), y.end(), 0.0);
  for (std::size_t k = 0; k < a.values.size(); ++k) {
    y[static_cast<std::size_t>(a.rowIdx[k])] +=
        a.values[k] * x[static_cast<std::size_t>(a.colIdx[k])];
  }
}

void spmv(const MsrMatrix& a, std::span<const double> x, std::span<double> y) {
  LISI_CHECK(static_cast<int>(x.size()) == a.n, "spmv(MSR): x size mismatch");
  LISI_CHECK(static_cast<int>(y.size()) == a.n, "spmv(MSR): y size mismatch");
  for (int i = 0; i < a.n; ++i) {
    double acc = a.val[static_cast<std::size_t>(i)] * x[static_cast<std::size_t>(i)];
    for (int k = a.bindx[static_cast<std::size_t>(i)];
         k < a.bindx[static_cast<std::size_t>(i) + 1]; ++k) {
      acc += a.val[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(a.bindx[static_cast<std::size_t>(k)])];
    }
    y[static_cast<std::size_t>(i)] = acc;
  }
}

void spmv(const VbrMatrix& a, std::span<const double> x, std::span<double> y) {
  spmvVbrImpl<double>(a, x, y);
}

void spmv(const VbrMatrixF& a, std::span<const float> x, std::span<float> y) {
  spmvVbrImpl<float>(a, x, y);
}

CsrMatrix transpose(const CsrMatrix& a) {
  CscMatrix csc = csrToCsc(a);
  CsrMatrix t;
  t.rows = a.cols;
  t.cols = a.rows;
  t.rowPtr = std::move(csc.colPtr);
  t.colIdx = std::move(csc.rowIdx);
  t.values = std::move(csc.values);
  return t;
}

std::vector<double> diagonal(const CsrMatrix& a) {
  const int n = std::min(a.rows, a.cols);
  std::vector<double> d(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    for (int k = a.rowPtr[static_cast<std::size_t>(i)];
         k < a.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      if (a.colIdx[static_cast<std::size_t>(k)] == i) {
        d[static_cast<std::size_t>(i)] += a.values[static_cast<std::size_t>(k)];
      }
    }
  }
  return d;
}

std::vector<double> toDense(const CsrMatrix& a) {
  std::vector<double> dense(static_cast<std::size_t>(a.rows) *
                                static_cast<std::size_t>(a.cols),
                            0.0);
  for (int i = 0; i < a.rows; ++i) {
    for (int k = a.rowPtr[static_cast<std::size_t>(i)];
         k < a.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      dense[static_cast<std::size_t>(i) * static_cast<std::size_t>(a.cols) +
            static_cast<std::size_t>(a.colIdx[static_cast<std::size_t>(k)])] +=
          a.values[static_cast<std::size_t>(k)];
    }
  }
  return dense;
}

double frobeniusNorm(const CsrMatrix& a) {
  double acc = 0.0;
  for (double v : a.values) acc += v * v;
  return std::sqrt(acc);
}

double infNorm(const CsrMatrix& a) {
  double best = 0.0;
  for (int i = 0; i < a.rows; ++i) {
    double rowSum = 0.0;
    for (int k = a.rowPtr[static_cast<std::size_t>(i)];
         k < a.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      rowSum += std::abs(a.values[static_cast<std::size_t>(k)]);
    }
    best = std::max(best, rowSum);
  }
  return best;
}

double maxAbsDiff(const CsrMatrix& aIn, const CsrMatrix& bIn) {
  LISI_CHECK(aIn.rows == bIn.rows && aIn.cols == bIn.cols,
             "maxAbsDiff: dimension mismatch");
  CsrMatrix a = aIn;
  CsrMatrix b = bIn;
  a.canonicalize();
  b.canonicalize();
  double best = 0.0;
  for (int i = 0; i < a.rows; ++i) {
    int ka = a.rowPtr[static_cast<std::size_t>(i)];
    int kb = b.rowPtr[static_cast<std::size_t>(i)];
    const int ea = a.rowPtr[static_cast<std::size_t>(i) + 1];
    const int eb = b.rowPtr[static_cast<std::size_t>(i) + 1];
    while (ka < ea || kb < eb) {
      const int ca = ka < ea ? a.colIdx[static_cast<std::size_t>(ka)] : a.cols;
      const int cb = kb < eb ? b.colIdx[static_cast<std::size_t>(kb)] : b.cols;
      if (ca == cb) {
        best = std::max(best, std::abs(a.values[static_cast<std::size_t>(ka)] -
                                       b.values[static_cast<std::size_t>(kb)]));
        ++ka;
        ++kb;
      } else if (ca < cb) {
        best = std::max(best, std::abs(a.values[static_cast<std::size_t>(ka)]));
        ++ka;
      } else {
        best = std::max(best, std::abs(b.values[static_cast<std::size_t>(kb)]));
        ++kb;
      }
    }
  }
  return best;
}

double norm2(std::span<const double> x) {
  double acc = 0.0;
  for (double v : x) acc += v * v;
  return std::sqrt(acc);
}

double dot(std::span<const double> x, std::span<const double> y) {
  LISI_CHECK(x.size() == y.size(), "dot: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  LISI_CHECK(x.size() == y.size(), "axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

double norm2(std::span<const float> x) {
  // Float data, double accumulation: these reductions feed convergence
  // decisions, so the cheap storage must not cost accuracy in the sum.
  double acc = 0.0;
  for (float v : x) acc += static_cast<double>(v) * static_cast<double>(v);
  return std::sqrt(acc);
}

double dot(std::span<const float> x, std::span<const float> y) {
  LISI_CHECK(x.size() == y.size(), "dot: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    acc += static_cast<double>(x[i]) * static_cast<double>(y[i]);
  }
  return acc;
}

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  LISI_CHECK(x.size() == y.size(), "axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

double residualNorm(const CsrMatrix& a, std::span<const double> x,
                    std::span<const double> b) {
  std::vector<double> r(static_cast<std::size_t>(a.rows));
  spmv(a, x, std::span<double>(r));
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  return norm2(r);
}

}  // namespace lisi::sparse
