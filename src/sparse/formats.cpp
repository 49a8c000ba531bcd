#include "sparse/formats.hpp"

#include <algorithm>

namespace lisi::sparse {

const char* sparseStructName(SparseStruct s) {
  switch (s) {
    case SparseStruct::kCsr: return "CSR";
    case SparseStruct::kCoo: return "COO";
    case SparseStruct::kMsr: return "MSR";
    case SparseStruct::kVbr: return "VBR";
    case SparseStruct::kFem: return "FEM";
  }
  return "?";
}

void CooMatrix::check() const {
  LISI_CHECK(rows >= 0 && cols >= 0, "COO: negative dimensions");
  LISI_CHECK(rowIdx.size() == values.size() && colIdx.size() == values.size(),
             "COO: index/value array length mismatch");
  for (std::size_t k = 0; k < values.size(); ++k) {
    LISI_CHECK(rowIdx[k] >= 0 && rowIdx[k] < rows, "COO: row index out of range");
    LISI_CHECK(colIdx[k] >= 0 && colIdx[k] < cols, "COO: col index out of range");
  }
}

template <class V>
void CsrMatrixT<V>::check() const {
  LISI_CHECK(rows >= 0 && cols >= 0, "CSR: negative dimensions");
  LISI_CHECK(rowPtr.size() == static_cast<std::size_t>(rows) + 1,
             "CSR: rowPtr length != rows+1");
  LISI_CHECK(rowPtr.front() == 0, "CSR: rowPtr[0] != 0");
  LISI_CHECK(colIdx.size() == values.size(), "CSR: colIdx/values length mismatch");
  LISI_CHECK(rowPtr.back() == static_cast<int>(values.size()),
             "CSR: rowPtr[rows] != nnz");
  for (int i = 0; i < rows; ++i) {
    LISI_CHECK(rowPtr[static_cast<std::size_t>(i)] <=
                   rowPtr[static_cast<std::size_t>(i) + 1],
               "CSR: rowPtr not monotone");
  }
  for (int c : colIdx) {
    LISI_CHECK(c >= 0 && c < cols, "CSR: col index out of range");
  }
}

template <class V>
void CsrMatrixT<V>::canonicalize() {
  // Already sorted and duplicate-free: nothing to sort or merge.  Every
  // adapted port matrix and every DistCsrMatrix block passes through
  // here.  The arrays still come out exactly sized, as a rebuild would
  // leave them, so a matrix grown by push_back keeps no slack.
  if (isCanonical()) {
    rowPtr.shrink_to_fit();
    colIdx.shrink_to_fit();
    values.shrink_to_fit();
    return;
  }
  std::vector<int> newPtr(static_cast<std::size_t>(rows) + 1, 0);
  std::vector<int> newCol;
  std::vector<V> newVal;
  newCol.reserve(colIdx.size());
  newVal.reserve(values.size());
  std::vector<std::pair<int, V>> row;
  for (int i = 0; i < rows; ++i) {
    row.clear();
    for (int k = rowPtr[static_cast<std::size_t>(i)];
         k < rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      row.emplace_back(colIdx[static_cast<std::size_t>(k)],
                       values[static_cast<std::size_t>(k)]);
    }
    std::sort(row.begin(), row.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t k = 0; k < row.size(); ++k) {
      if (!newCol.empty() &&
          static_cast<int>(newCol.size()) > newPtr[static_cast<std::size_t>(i)] &&
          newCol.back() == row[k].first) {
        newVal.back() += row[k].second;  // merge duplicate
      } else {
        newCol.push_back(row[k].first);
        newVal.push_back(row[k].second);
      }
    }
    newPtr[static_cast<std::size_t>(i) + 1] = static_cast<int>(newCol.size());
  }
  rowPtr = std::move(newPtr);
  colIdx = std::move(newCol);
  values = std::move(newVal);
}

template <class V>
bool CsrMatrixT<V>::isCanonical() const {
  for (int i = 0; i < rows; ++i) {
    for (int k = rowPtr[static_cast<std::size_t>(i)] + 1;
         k < rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      if (colIdx[static_cast<std::size_t>(k) - 1] >=
          colIdx[static_cast<std::size_t>(k)]) {
        return false;
      }
    }
  }
  return true;
}

void CscMatrix::check() const {
  LISI_CHECK(rows >= 0 && cols >= 0, "CSC: negative dimensions");
  LISI_CHECK(colPtr.size() == static_cast<std::size_t>(cols) + 1,
             "CSC: colPtr length != cols+1");
  LISI_CHECK(colPtr.front() == 0, "CSC: colPtr[0] != 0");
  LISI_CHECK(rowIdx.size() == values.size(), "CSC: rowIdx/values length mismatch");
  LISI_CHECK(colPtr.back() == static_cast<int>(values.size()),
             "CSC: colPtr[cols] != nnz");
  for (int j = 0; j < cols; ++j) {
    LISI_CHECK(colPtr[static_cast<std::size_t>(j)] <=
                   colPtr[static_cast<std::size_t>(j) + 1],
               "CSC: colPtr not monotone");
  }
  for (int r : rowIdx) {
    LISI_CHECK(r >= 0 && r < rows, "CSC: row index out of range");
  }
}

template struct CsrMatrixT<double>;
template struct CsrMatrixT<float>;

}  // namespace lisi::sparse
