#include "sparse/convert.hpp"

namespace lisi::sparse {

CsrMatrix cooToCsr(const CooMatrix& coo) {
  coo.check();
  CsrMatrix csr;
  csr.rows = coo.rows;
  csr.cols = coo.cols;
  csr.rowPtr.assign(static_cast<std::size_t>(coo.rows) + 1, 0);
  for (int r : coo.rowIdx) ++csr.rowPtr[static_cast<std::size_t>(r) + 1];
  for (int i = 0; i < coo.rows; ++i) {
    csr.rowPtr[static_cast<std::size_t>(i) + 1] +=
        csr.rowPtr[static_cast<std::size_t>(i)];
  }
  csr.colIdx.resize(coo.values.size());
  csr.values.resize(coo.values.size());
  std::vector<int> next(csr.rowPtr.begin(), csr.rowPtr.end() - 1);
  for (std::size_t k = 0; k < coo.values.size(); ++k) {
    const int slot = next[static_cast<std::size_t>(coo.rowIdx[k])]++;
    csr.colIdx[static_cast<std::size_t>(slot)] = coo.colIdx[k];
    csr.values[static_cast<std::size_t>(slot)] = coo.values[k];
  }
  csr.canonicalize();
  return csr;
}

CooMatrix csrToCoo(const CsrMatrix& csr) {
  csr.check();
  CooMatrix coo;
  coo.rows = csr.rows;
  coo.cols = csr.cols;
  coo.rowIdx.reserve(csr.values.size());
  coo.colIdx = csr.colIdx;
  coo.values = csr.values;
  for (int i = 0; i < csr.rows; ++i) {
    for (int k = csr.rowPtr[static_cast<std::size_t>(i)];
         k < csr.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      coo.rowIdx.push_back(i);
    }
  }
  return coo;
}

CscMatrix csrToCsc(const CsrMatrix& csr) {
  csr.check();
  CscMatrix csc;
  csc.rows = csr.rows;
  csc.cols = csr.cols;
  csc.colPtr.assign(static_cast<std::size_t>(csr.cols) + 1, 0);
  for (int c : csr.colIdx) ++csc.colPtr[static_cast<std::size_t>(c) + 1];
  for (int j = 0; j < csr.cols; ++j) {
    csc.colPtr[static_cast<std::size_t>(j) + 1] +=
        csc.colPtr[static_cast<std::size_t>(j)];
  }
  csc.rowIdx.resize(csr.values.size());
  csc.values.resize(csr.values.size());
  std::vector<int> next(csc.colPtr.begin(), csc.colPtr.end() - 1);
  for (int i = 0; i < csr.rows; ++i) {
    for (int k = csr.rowPtr[static_cast<std::size_t>(i)];
         k < csr.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      const int j = csr.colIdx[static_cast<std::size_t>(k)];
      const int slot = next[static_cast<std::size_t>(j)]++;
      csc.rowIdx[static_cast<std::size_t>(slot)] = i;
      csc.values[static_cast<std::size_t>(slot)] =
          csr.values[static_cast<std::size_t>(k)];
    }
  }
  return csc;
}

CsrMatrix cscToCsr(const CscMatrix& csc) {
  csc.check();
  CsrMatrix csr;
  csr.rows = csc.rows;
  csr.cols = csc.cols;
  csr.rowPtr.assign(static_cast<std::size_t>(csc.rows) + 1, 0);
  for (int r : csc.rowIdx) ++csr.rowPtr[static_cast<std::size_t>(r) + 1];
  for (int i = 0; i < csc.rows; ++i) {
    csr.rowPtr[static_cast<std::size_t>(i) + 1] +=
        csr.rowPtr[static_cast<std::size_t>(i)];
  }
  csr.colIdx.resize(csc.values.size());
  csr.values.resize(csc.values.size());
  std::vector<int> next(csr.rowPtr.begin(), csr.rowPtr.end() - 1);
  for (int j = 0; j < csc.cols; ++j) {
    for (int k = csc.colPtr[static_cast<std::size_t>(j)];
         k < csc.colPtr[static_cast<std::size_t>(j) + 1]; ++k) {
      const int i = csc.rowIdx[static_cast<std::size_t>(k)];
      const int slot = next[static_cast<std::size_t>(i)]++;
      csr.colIdx[static_cast<std::size_t>(slot)] = j;
      csr.values[static_cast<std::size_t>(slot)] =
          csc.values[static_cast<std::size_t>(k)];
    }
  }
  // Traversal by increasing column already yields sorted rows; duplicates in
  // a valid CSC would still need merging, so canonicalize defensively.
  csr.canonicalize();
  return csr;
}

}  // namespace lisi::sparse
