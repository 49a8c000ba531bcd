#include "aztec/row_matrix.hpp"

namespace aztec {

void RowMatrix::extractDiagonal(Vector&) const {
  throw lisi::Error(
      "this RowMatrix does not expose a diagonal; override extractDiagonal()"
      " to enable diagonal-based preconditioners");
}

CrsMatrix::CrsMatrix(const Map& map, lisi::sparse::CsrMatrix localRows)
    : map_(&map) {
  auto owned = std::make_shared<lisi::sparse::DistCsrMatrix>(
      map.comm(), map.numGlobalElements(), map.numGlobalElements(),
      map.minMyGlobalIndex(), std::move(localRows));
  owned_ = owned.get();
  dist_ = std::move(owned);
  LISI_CHECK(dist_->localRows() == map.numMyElements(),
             "CrsMatrix: local row count does not match the map");
}

CrsMatrix::CrsMatrix(const Map& map,
                     std::shared_ptr<const lisi::sparse::DistCsrMatrix> matrix)
    : map_(&map), dist_(std::move(matrix)) {
  LISI_CHECK(dist_ != nullptr, "CrsMatrix: null operator to view");
  LISI_CHECK(dist_->globalCols() == map.numGlobalElements() &&
                 dist_->rowStarts() == map.offsets(),
             "CrsMatrix: viewed operator does not match the map");
}

void CrsMatrix::replaceValues(const lisi::sparse::CsrMatrix& localRows) {
  LISI_CHECK(owned_ != nullptr,
             "CrsMatrix::replaceValues: a view's values belong to the "
             "viewed operator; refresh them there");
  owned_->updateValues(localRows);
}

void CrsMatrix::apply(const Vector& x, Vector& y) const {
  LISI_CHECK(map_->sameAs(x.map()) && map_->sameAs(y.map()),
             "CrsMatrix::apply: incompatible maps");
  dist_->spmv(x.localView(), y.localView());
}

void CrsMatrix::extractDiagonal(Vector& d) const {
  LISI_CHECK(map_->sameAs(d.map()),
             "CrsMatrix::extractDiagonal: incompatible maps");
  const auto diag = dist_->localDiagonal();
  std::copy(diag.begin(), diag.end(), d.localView().begin());
}

}  // namespace aztec
