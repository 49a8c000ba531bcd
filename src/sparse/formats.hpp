// Sparse matrix storage formats.
//
// §5.3 of the paper lists the formats a common solver interface must accept
// (its SparseStruct enum: CSR, COO, MSR, VBR, FEM ...).  This module defines
// concrete storage for each of them plus CSC (the native input format of the
// SuperLU-analogue direct solver), and src/sparse/convert.hpp provides the
// all-pairs conversions that LISI's setupMatrix adapter relies on.
//
// Conventions: 0-based indices throughout (LISI's setupMatrix carries an
// `Offset` argument for 1-based Fortran-style input; the adapter shifts
// before reaching these types).  Dimensions are plain `int` like the paper's
// interface; local problem sizes stay well below 2^31.
#pragma once

#include <string>
#include <vector>

#include "support/error.hpp"

namespace lisi::sparse {

/// Storage layouts understood by LISI's setupMatrix (paper §7.2 enum
/// SparseStruct) plus CSC, used natively by the direct-solver package.
enum class SparseStruct {
  kCsr,  ///< compressed sparse row
  kCoo,  ///< coordinate (triplet)
  kMsr,  ///< modified sparse row (diagonal stored separately)
  kVbr,  ///< variable block row
  kFem,  ///< unassembled finite-element triplets (assembled on input)
  kCsc,  ///< compressed sparse column
};

/// Human-readable name ("CSR", "COO", ...).
const char* sparseStructName(SparseStruct s);

/// Parse "csr"/"coo"/"msr"/"vbr"/"fem"/"csc" (case-insensitive).
SparseStruct sparseStructFromName(const std::string& name);

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
template <class V>
struct CscMatrixT {
  int rows = 0;
  int cols = 0;
  std::vector<int> colPtr;   ///< size cols+1
  std::vector<int> rowIdx;   ///< size nnz
  std::vector<V> values;

  [[nodiscard]] int nnz() const { return static_cast<int>(values.size()); }
  void check() const;
};
using CscMatrix = CscMatrixT<double>;

/// Modified sparse row (SPARSKIT/Aztec style), square matrices only:
///   val[0..n-1]   diagonal entries,
///   val[n]        unused padding,
///   bindx[0..n]   pointers into the off-diagonal section,
///   bindx[k], val[k] for k in [bindx[i], bindx[i+1]) = off-diagonals of row i.
struct MsrMatrix {
  int n = 0;
  std::vector<int> bindx;
  std::vector<double> val;

  /// Total stored entries including all diagonal slots.
  [[nodiscard]] int nnz() const {
    return n + (bindx.empty() ? 0 : bindx[static_cast<std::size_t>(n)] - (n + 1));
  }
  void check() const;
};

/// Variable block row format (Aztec/SPARSKIT VBR):
///   rpntr[0..nRowBlocks]  row-partition boundaries,
///   cpntr[0..nColBlocks]  column-partition boundaries,
///   bpntr[0..nRowBlocks]  block-row pointers into bindx,
///   bindx[..]             block column indices,
///   indx[..]              offset of each block's values in val,
///   val                   dense column-major storage of each block.
template <class V>
struct VbrMatrixT {
  std::vector<int> rpntr;
  std::vector<int> cpntr;
  std::vector<int> bpntr;
  std::vector<int> bindx;
  std::vector<int> indx;
  std::vector<V> val;

  [[nodiscard]] int rows() const {
    return rpntr.empty() ? 0 : rpntr.back();
  }
  [[nodiscard]] int cols() const {
    return cpntr.empty() ? 0 : cpntr.back();
  }
  [[nodiscard]] int numRowBlocks() const {
    return rpntr.empty() ? 0 : static_cast<int>(rpntr.size()) - 1;
  }
  [[nodiscard]] int numColBlocks() const {
    return cpntr.empty() ? 0 : static_cast<int>(cpntr.size()) - 1;
  }
  void check() const;
};
using VbrMatrix = VbrMatrixT<double>;

// The templated member functions are defined in formats.cpp and explicitly
// instantiated for the scalars the kernels use: double everywhere, and float
// for the CSR copies that mixed-precision preconditioners store.
extern template struct CsrMatrixT<double>;
extern template struct CsrMatrixT<float>;
extern template struct CscMatrixT<double>;
extern template struct VbrMatrixT<double>;

}  // namespace lisi::sparse
