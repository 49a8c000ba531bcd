// Serial references for the block-local preconditioners: each algorithm
// run on an extracted copy of a rank's diagonal block, the form the
// preconditioners held before they read the operator through its view.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mesh/pde5pt.hpp"
#include "sparse/formats.hpp"
#include "support/rng.hpp"

namespace lisi::testref {

using sparse::CsrMatrix;

/// Rows [begin, begin + m) of canonical `g` restricted to the same columns,
/// in local indices and stored order: the diagonal block a copy would hold.
inline CsrMatrix diagonalBlock(const CsrMatrix& g, int begin, int m) {
  CsrMatrix b;
  b.rows = m;
  b.cols = m;
  b.rowPtr.push_back(0);
  for (int i = begin; i < begin + m; ++i) {
    for (int k = g.rowPtr[static_cast<std::size_t>(i)];
         k < g.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      const int c = g.colIdx[static_cast<std::size_t>(k)];
      if (c < begin || c >= begin + m) continue;
      b.colIdx.push_back(c - begin);
      b.values.push_back(g.values[static_cast<std::size_t>(k)]);
    }
    b.rowPtr.push_back(static_cast<int>(b.colIdx.size()));
  }
  return b;
}

/// Reference ILU(0) on an extracted block (IKJ with a column lookup) and
/// its two triangular solves.
inline std::vector<double> referenceIlu0(CsrMatrix lu,
                                         std::span<const double> r) {
  const auto n = static_cast<std::size_t>(lu.rows);
  std::vector<int> diag(n), pos(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    for (int k = lu.rowPtr[i]; k < lu.rowPtr[i + 1]; ++k) {
      if (lu.colIdx[static_cast<std::size_t>(k)] == static_cast<int>(i)) {
        diag[i] = k;
      }
    }
  }
  const auto v = [&lu](int k) -> double& {
    return lu.values[static_cast<std::size_t>(k)];
  };
  const auto col = [&lu](int k) {
    return static_cast<std::size_t>(lu.colIdx[static_cast<std::size_t>(k)]);
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (int k = lu.rowPtr[i]; k < lu.rowPtr[i + 1]; ++k) pos[col(k)] = k;
    for (int k = lu.rowPtr[i]; k < diag[i]; ++k) {
      const std::size_t j = col(k);
      const double lij = v(k) / v(diag[j]);
      v(k) = lij;
      for (int kk = diag[j] + 1; kk < lu.rowPtr[j + 1]; ++kk) {
        if (pos[col(kk)] >= 0) v(pos[col(kk)]) -= lij * v(kk);
      }
    }
    for (int k = lu.rowPtr[i]; k < lu.rowPtr[i + 1]; ++k) pos[col(k)] = -1;
  }
  std::vector<double> z(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = r[i];
    for (int k = lu.rowPtr[i]; k < diag[i]; ++k) acc -= v(k) * z[col(k)];
    z[i] = acc;
  }
  for (std::size_t i = n; i-- > 0;) {
    double acc = z[i];
    for (int k = diag[i] + 1; k < lu.rowPtr[i + 1]; ++k) {
      acc -= v(k) * z[col(k)];
    }
    z[i] = acc / v(diag[i]);
  }
  return z;
}

/// The paper operator with every off-diagonal perturbed (same pattern,
/// still diagonally dominant): nonsymmetric, irregular values.
inline CsrMatrix perturbedPaperOperator(int gridN, std::uint64_t seed) {
  mesh::Pde5ptSpec spec;
  spec.gridN = gridN;
  CsrMatrix g = mesh::assembleGlobal(spec).localA;
  g.canonicalize();
  Rng rng(seed);
  for (int i = 0; i < g.rows; ++i) {
    for (int k = g.rowPtr[static_cast<std::size_t>(i)];
         k < g.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      if (g.colIdx[static_cast<std::size_t>(k)] != i) {
        g.values[static_cast<std::size_t>(k)] *= rng.uniform(0.5, 1.5);
      }
    }
  }
  return g;
}

/// Rows [begin, begin + m) of `g` with global columns: a rank's caller-side
/// block, as updateValues takes it.
inline CsrMatrix rowsOf(const CsrMatrix& g, int begin, int m) {
  CsrMatrix b;
  b.rows = m;
  b.cols = g.cols;
  const int kb = g.rowPtr[static_cast<std::size_t>(begin)];
  for (int i = begin; i <= begin + m; ++i) {
    b.rowPtr.push_back(g.rowPtr[static_cast<std::size_t>(i)] - kb);
  }
  const int ke = g.rowPtr[static_cast<std::size_t>(begin + m)];
  b.colIdx.assign(g.colIdx.begin() + kb, g.colIdx.begin() + ke);
  b.values.assign(g.values.begin() + kb, g.values.begin() + ke);
  return b;
}

}  // namespace lisi::testref
