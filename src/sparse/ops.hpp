// Serial sparse kernels: matrix-vector products for the internal storage
// formats (CSR, CSC, COO), transposes, diagonal extraction, and
// vector/matrix norms.  These are the reference kernels the solver packages
// and the test suite build on.
#pragma once

#include <span>

#include "sparse/formats.hpp"

namespace lisi::sparse {

/// y = A*x for CSR.  The kernel formats are templated on the stored scalar
/// (formats.hpp); each kernel ships a double and a float overload backed by
/// one shared template, so the mixed-precision paths reuse the exact same
/// loop structure.  Float kernels accumulate in float (they sit inside
/// float64 refinement loops); the vector reductions below accumulate in
/// double for both scalars because they feed convergence decisions.
void spmv(const CsrMatrix& a, std::span<const double> x, std::span<double> y);
void spmv(const CsrMatrixF& a, std::span<const float> x, std::span<float> y);

/// y = A'*x for CSR (i.e. multiply by the transpose without forming it).
void spmvTranspose(const CsrMatrix& a, std::span<const double> x,
                   std::span<double> y);

/// y = A*x for CSC.
void spmv(const CscMatrix& a, std::span<const double> x, std::span<double> y);

/// y = A*x for COO (duplicates accumulate).
void spmv(const CooMatrix& a, std::span<const double> x, std::span<double> y);

/// Explicit transpose of a CSR matrix (canonical output).
[[nodiscard]] CsrMatrix transpose(const CsrMatrix& a);

/// Extract the main diagonal (missing entries are 0).
[[nodiscard]] std::vector<double> diagonal(const CsrMatrix& a);

/// Dense row-major expansion (small matrices / tests only).
[[nodiscard]] std::vector<double> toDense(const CsrMatrix& a);

/// Frobenius norm of A.
[[nodiscard]] double frobeniusNorm(const CsrMatrix& a);

/// Infinity norm of A (max absolute row sum).
[[nodiscard]] double infNorm(const CsrMatrix& a);

/// Max |a_ij - b_ij| over the union pattern (canonicalizes internally).
[[nodiscard]] double maxAbsDiff(const CsrMatrix& a, const CsrMatrix& b);

/// Euclidean norm of a vector (float input accumulates in double).
[[nodiscard]] double norm2(std::span<const double> x);
[[nodiscard]] double norm2(std::span<const float> x);

/// Dot product (float input accumulates in double).
[[nodiscard]] double dot(std::span<const double> x, std::span<const double> y);
[[nodiscard]] double dot(std::span<const float> x, std::span<const float> y);

/// y += alpha*x.
void axpy(double alpha, std::span<const double> x, std::span<double> y);
void axpy(float alpha, std::span<const float> x, std::span<float> y);

/// ||b - A*x||_2 (serial reference residual).
[[nodiscard]] double residualNorm(const CsrMatrix& a, std::span<const double> x,
                                  std::span<const double> b);

}  // namespace lisi::sparse
