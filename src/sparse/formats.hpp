// Sparse matrix storage formats.
//
// §5.3 of the paper lists the formats a common solver interface must accept
// (its SparseStruct enum: CSR, COO, MSR, VBR, FEM).  LISI's setupMatrix
// adapter (src/lisi/solver_base.cpp) decodes each of them, and only there,
// into a CsrMatrix block; this module holds the storage the packages keep
// internally: CSR, COO (the assembly form of COO/FEM input) and CSC (the
// native input format of the SuperLU-analogue direct solver).
//
// Conventions: 0-based indices throughout (LISI's setupMatrix carries an
// `Offset` argument for 1-based Fortran-style input; the adapter shifts
// before reaching these types).  Dimensions are plain `int` like the paper's
// interface; local problem sizes stay well below 2^31.
#pragma once

#include <vector>

#include "support/error.hpp"

namespace lisi::sparse {

/// Storage layouts understood by LISI's setupMatrix (paper §7.2 enum
/// SparseStruct).
enum class SparseStruct {
  kCsr,  ///< compressed sparse row
  kCoo,  ///< coordinate (triplet)
  kMsr,  ///< modified sparse row (diagonal stored separately)
  kVbr,  ///< variable block row
  kFem,  ///< unassembled finite-element triplets (assembled on input)
};

/// Human-readable name ("CSR", "COO", ...).
const char* sparseStructName(SparseStruct s);

/// Coordinate (triplet) format.  Duplicate (row,col) entries are allowed and
/// mean summation on assembly — this is also how kFem input behaves.
struct CooMatrix {
  int rows = 0;
  int cols = 0;
  std::vector<int> rowIdx;
  std::vector<int> colIdx;
  std::vector<double> values;

  [[nodiscard]] int nnz() const { return static_cast<int>(values.size()); }
  /// Validate index ranges and array-length agreement; throws lisi::Error.
  void check() const;
};

/// Compressed sparse row, templated on the stored value type (the kernel
/// formats carry their scalar as a template parameter so the mixed-precision
/// paths can keep float32 copies with identical index structure; `double` is
/// the canonical interface type and keeps its historical alias below).
/// Column indices within a row need not be sorted unless stated;
/// canonicalize() sorts them and merges duplicates.
template <class V>
struct CsrMatrixT {
  int rows = 0;
  int cols = 0;
  std::vector<int> rowPtr;   ///< size rows+1
  std::vector<int> colIdx;   ///< size nnz
  std::vector<V> values;

  [[nodiscard]] int nnz() const { return static_cast<int>(values.size()); }
  void check() const;
  /// Sort column indices within each row and merge duplicates (summing).
  void canonicalize();
  /// True if every row's column indices are strictly increasing.
  [[nodiscard]] bool isCanonical() const;
};
using CsrMatrix = CsrMatrixT<double>;
using CsrMatrixF = CsrMatrixT<float>;

/// Compressed sparse column.
struct CscMatrix {
  int rows = 0;
  int cols = 0;
  std::vector<int> colPtr;   ///< size cols+1
  std::vector<int> rowIdx;   ///< size nnz
  std::vector<double> values;

  [[nodiscard]] int nnz() const { return static_cast<int>(values.size()); }
  void check() const;
};

// The templated member functions are defined in formats.cpp and explicitly
// instantiated for the scalars the kernels use: double everywhere, and float
// for the CSR copies that mixed-precision preconditioners store.
extern template struct CsrMatrixT<double>;
extern template struct CsrMatrixT<float>;

}  // namespace lisi::sparse
