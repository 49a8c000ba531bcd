// RowMatrix: Aztec's abstract operator interface (Epetra_RowMatrix
// analogue).  §5.5 of the paper: "Trilinos's Epetra_RowMatrix virtual class
// allows the application developer to implement and create their own matrix
// data type with a matrix vector product method.  The newly created matrix
// object can then be passed to AztecOO solver" — this is exactly that hook.
//
// A matrix-free application implements apply() (and optionally
// extractDiagonal() to unlock diagonal-based preconditioners); assembled
// matrices use CrsMatrix below.
#pragma once

#include <memory>

#include "aztec/vector.hpp"
#include "sparse/dist_csr.hpp"

namespace aztec {

/// Abstract distributed operator y = A*x on conformal Map layouts.
class RowMatrix {
 public:
  virtual ~RowMatrix() = default;

  /// Row layout (x and y layouts coincide: square operators only).
  [[nodiscard]] virtual const Map& rowMap() const = 0;

  /// y = A * x.  Collective over rowMap().comm().
  virtual void apply(const Vector& x, Vector& y) const = 0;

  /// Fill `d` with the matrix diagonal.  Default: unsupported (matrix-free
  /// operators may override to unlock Jacobi/Neumann preconditioning).
  virtual void extractDiagonal(Vector& d) const;

  /// Assembled local rows with *local* column remapping, if available.
  /// Preconditioners that factor the local block (AZ_dom_decomp) require
  /// this; pure matrix-free operators return nullptr.
  [[nodiscard]] virtual const lisi::sparse::DistCsrMatrix* assembled() const {
    return nullptr;
  }
};

/// Assembled sparse matrix over a Map (Epetra_CrsMatrix analogue).  Like
/// Epetra's data-access modes it either owns its operator (Copy) or views
/// one that already exists (View).
class CrsMatrix final : public RowMatrix {
 public:
  /// Copy mode: wrap this rank's rows (global column indices) on layout
  /// `map`, building a distributed operator of its own.  Collective.
  CrsMatrix(const Map& map, lisi::sparse::CsrMatrix localRows);

  /// View mode: use `matrix` as it is, with no copy and no second halo
  /// plan.  The shared handle keeps it alive as long as the view; its
  /// owner refreshes the values in place and the view sees them.  `matrix`
  /// must be square with the row layout of `map`.  Purely local.
  CrsMatrix(const Map& map,
            std::shared_ptr<const lisi::sparse::DistCsrMatrix> matrix);

  CrsMatrix(const CrsMatrix&) = delete;
  CrsMatrix& operator=(const CrsMatrix&) = delete;
  CrsMatrix(CrsMatrix&&) = default;
  CrsMatrix& operator=(CrsMatrix&&) = default;

  [[nodiscard]] const Map& rowMap() const override { return *map_; }
  void apply(const Vector& x, Vector& y) const override;
  void extractDiagonal(Vector& d) const override;
  [[nodiscard]] const lisi::sparse::DistCsrMatrix* assembled() const override {
    return dist_.get();
  }

  [[nodiscard]] long long numGlobalNonzeros() const {
    return dist_->globalNnz();
  }

  /// Same-pattern value refresh (Epetra's ReplaceMyValues-style workflow):
  /// `localRows` must be canonical and carry exactly the sparsity of the
  /// wrapped rows; the distributed operator's halo plan and importer state
  /// are reused untouched.  Copy mode only: a view's values belong to the
  /// viewed operator.  Purely local.
  void replaceValues(const lisi::sparse::CsrMatrix& localRows);

 private:
  const Map* map_;
  std::shared_ptr<const lisi::sparse::DistCsrMatrix> dist_;
  lisi::sparse::DistCsrMatrix* owned_ = nullptr;  ///< Copy mode: *dist_
};

}  // namespace aztec
