#include "sparse/formats.hpp"

#include <algorithm>
#include <numeric>

#include "support/string_util.hpp"

namespace lisi::sparse {

const char* sparseStructName(SparseStruct s) {
  switch (s) {
    case SparseStruct::kCsr: return "CSR";
    case SparseStruct::kCoo: return "COO";
    case SparseStruct::kMsr: return "MSR";
    case SparseStruct::kVbr: return "VBR";
    case SparseStruct::kFem: return "FEM";
    case SparseStruct::kCsc: return "CSC";
  }
  return "?";
}

SparseStruct sparseStructFromName(const std::string& name) {
  const std::string t = toLower(trim(name));
  if (t == "csr") return SparseStruct::kCsr;
  if (t == "coo") return SparseStruct::kCoo;
  if (t == "msr") return SparseStruct::kMsr;
  if (t == "vbr") return SparseStruct::kVbr;
  if (t == "fem") return SparseStruct::kFem;
  if (t == "csc") return SparseStruct::kCsc;
  throw Error("unknown sparse format name: '" + name + "'");
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

template <class V>
void CscMatrixT<V>::check() const {
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

void MsrMatrix::check() const {
  LISI_CHECK(n >= 0, "MSR: negative dimension");
  LISI_CHECK(bindx.size() >= static_cast<std::size_t>(n) + 1,
             "MSR: bindx shorter than n+1");
  LISI_CHECK(val.size() == bindx.size(), "MSR: val/bindx length mismatch");
  LISI_CHECK(bindx[0] == n + 1, "MSR: bindx[0] != n+1");
  for (int i = 0; i < n; ++i) {
    LISI_CHECK(bindx[static_cast<std::size_t>(i)] <=
                   bindx[static_cast<std::size_t>(i) + 1],
               "MSR: bindx row pointers not monotone");
  }
  LISI_CHECK(bindx[static_cast<std::size_t>(n)] ==
                 static_cast<int>(bindx.size()),
             "MSR: bindx[n] != total length");
  for (std::size_t k = static_cast<std::size_t>(n) + 1; k < bindx.size(); ++k) {
    LISI_CHECK(bindx[k] >= 0 && bindx[k] < n, "MSR: col index out of range");
  }
}

template <class V>
void VbrMatrixT<V>::check() const {
  const int nrb = numRowBlocks();
  const int ncb = numColBlocks();
  LISI_CHECK(nrb >= 0 && ncb >= 0, "VBR: negative block counts");
  if (nrb == 0) return;
  LISI_CHECK(rpntr[0] == 0 && cpntr[0] == 0, "VBR: partitions must start at 0");
  for (int b = 0; b < nrb; ++b) {
    LISI_CHECK(rpntr[static_cast<std::size_t>(b)] <
                   rpntr[static_cast<std::size_t>(b) + 1],
               "VBR: empty row block");
  }
  for (int b = 0; b < ncb; ++b) {
    LISI_CHECK(cpntr[static_cast<std::size_t>(b)] <
                   cpntr[static_cast<std::size_t>(b) + 1],
               "VBR: empty col block");
  }
  LISI_CHECK(bpntr.size() == static_cast<std::size_t>(nrb) + 1,
             "VBR: bpntr length != nRowBlocks+1");
  LISI_CHECK(bpntr[0] == 0, "VBR: bpntr[0] != 0");
  const int nblocks = bpntr[static_cast<std::size_t>(nrb)];
  LISI_CHECK(static_cast<int>(bindx.size()) == nblocks,
             "VBR: bindx length != total blocks");
  LISI_CHECK(indx.size() == static_cast<std::size_t>(nblocks) + 1,
             "VBR: indx length != blocks+1");
  LISI_CHECK(indx[0] == 0, "VBR: indx[0] != 0");
  LISI_CHECK(indx[static_cast<std::size_t>(nblocks)] ==
                 static_cast<int>(val.size()),
             "VBR: indx end != val length");
  for (int br = 0; br < nrb; ++br) {
    const int rdim = rpntr[static_cast<std::size_t>(br) + 1] -
                     rpntr[static_cast<std::size_t>(br)];
    for (int b = bpntr[static_cast<std::size_t>(br)];
         b < bpntr[static_cast<std::size_t>(br) + 1]; ++b) {
      const int bc = bindx[static_cast<std::size_t>(b)];
      LISI_CHECK(bc >= 0 && bc < ncb, "VBR: block col index out of range");
      const int cdim = cpntr[static_cast<std::size_t>(bc) + 1] -
                       cpntr[static_cast<std::size_t>(bc)];
      LISI_CHECK(indx[static_cast<std::size_t>(b) + 1] -
                         indx[static_cast<std::size_t>(b)] ==
                     rdim * cdim,
                 "VBR: block value extent mismatch");
    }
  }
}

template struct CsrMatrixT<double>;
template struct CsrMatrixT<float>;
template struct CscMatrixT<double>;
template struct CscMatrixT<float>;
template struct VbrMatrixT<double>;
template struct VbrMatrixT<float>;

}  // namespace lisi::sparse
