#include "sparse/convert.hpp"

#include <algorithm>
#include <cmath>

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

MsrMatrix csrToMsr(const CsrMatrix& csrIn) {
  CsrMatrix csr = csrIn;  // canonical copy so duplicate entries merge
  csr.canonicalize();
  csr.check();
  LISI_CHECK(csr.rows == csr.cols, "MSR requires a square matrix");
  const int n = csr.rows;
  MsrMatrix msr;
  msr.n = n;
  msr.bindx.assign(static_cast<std::size_t>(n) + 1, 0);
  msr.val.assign(static_cast<std::size_t>(n) + 1, 0.0);
  msr.bindx[0] = n + 1;
  // First pass: count off-diagonals and capture the diagonal.
  for (int i = 0; i < n; ++i) {
    int offdiag = 0;
    for (int k = csr.rowPtr[static_cast<std::size_t>(i)];
         k < csr.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      if (csr.colIdx[static_cast<std::size_t>(k)] == i) {
        msr.val[static_cast<std::size_t>(i)] =
            csr.values[static_cast<std::size_t>(k)];
      } else {
        ++offdiag;
      }
    }
    msr.bindx[static_cast<std::size_t>(i) + 1] =
        msr.bindx[static_cast<std::size_t>(i)] + offdiag;
  }
  const auto total = static_cast<std::size_t>(msr.bindx[static_cast<std::size_t>(n)]);
  msr.bindx.resize(total);
  msr.val.resize(total);
  msr.bindx[0] = n + 1;  // resize preserved it, but be explicit
  std::vector<int> next(msr.bindx.begin(), msr.bindx.begin() + n);
  for (int i = 0; i < n; ++i) {
    for (int k = csr.rowPtr[static_cast<std::size_t>(i)];
         k < csr.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      const int j = csr.colIdx[static_cast<std::size_t>(k)];
      if (j == i) continue;
      const int slot = next[static_cast<std::size_t>(i)]++;
      msr.bindx[static_cast<std::size_t>(slot)] = j;
      msr.val[static_cast<std::size_t>(slot)] =
          csr.values[static_cast<std::size_t>(k)];
    }
  }
  return msr;
}

CsrMatrix msrToCsr(const MsrMatrix& msr) {
  msr.check();
  const int n = msr.n;
  CsrMatrix csr;
  csr.rows = n;
  csr.cols = n;
  csr.rowPtr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (int i = 0; i < n; ++i) {
    const int offdiag = msr.bindx[static_cast<std::size_t>(i) + 1] -
                        msr.bindx[static_cast<std::size_t>(i)];
    csr.rowPtr[static_cast<std::size_t>(i) + 1] =
        csr.rowPtr[static_cast<std::size_t>(i)] + offdiag + 1;  // +1 diagonal
  }
  csr.colIdx.resize(static_cast<std::size_t>(csr.rowPtr.back()));
  csr.values.resize(static_cast<std::size_t>(csr.rowPtr.back()));
  for (int i = 0; i < n; ++i) {
    int slot = csr.rowPtr[static_cast<std::size_t>(i)];
    bool diagPlaced = false;
    for (int k = msr.bindx[static_cast<std::size_t>(i)];
         k < msr.bindx[static_cast<std::size_t>(i) + 1]; ++k) {
      const int j = msr.bindx[static_cast<std::size_t>(k)];
      if (!diagPlaced && j > i) {
        csr.colIdx[static_cast<std::size_t>(slot)] = i;
        csr.values[static_cast<std::size_t>(slot)] =
            msr.val[static_cast<std::size_t>(i)];
        ++slot;
        diagPlaced = true;
      }
      csr.colIdx[static_cast<std::size_t>(slot)] = j;
      csr.values[static_cast<std::size_t>(slot)] =
          msr.val[static_cast<std::size_t>(k)];
      ++slot;
    }
    if (!diagPlaced) {
      csr.colIdx[static_cast<std::size_t>(slot)] = i;
      csr.values[static_cast<std::size_t>(slot)] =
          msr.val[static_cast<std::size_t>(i)];
      ++slot;
    }
  }
  // MSR off-diagonals are not required to be sorted; canonicalize.
  csr.canonicalize();
  return csr;
}

namespace {
/// Map each scalar index to its block for a partition boundary array.
std::vector<int> indexToBlock(const std::vector<int>& part) {
  std::vector<int> map(static_cast<std::size_t>(part.back()));
  for (std::size_t b = 0; b + 1 < part.size(); ++b) {
    for (int i = part[b]; i < part[b + 1]; ++i) {
      map[static_cast<std::size_t>(i)] = static_cast<int>(b);
    }
  }
  return map;
}
}  // namespace

VbrMatrix csrToVbr(const CsrMatrix& csrIn, const std::vector<int>& rowPart,
                   const std::vector<int>& colPart) {
  CsrMatrix csr = csrIn;
  csr.canonicalize();
  csr.check();
  LISI_CHECK(rowPart.size() >= 2 && rowPart.front() == 0 &&
                 rowPart.back() == csr.rows,
             "csrToVbr: bad row partition");
  LISI_CHECK(colPart.size() >= 2 && colPart.front() == 0 &&
                 colPart.back() == csr.cols,
             "csrToVbr: bad col partition");
  const int nrb = static_cast<int>(rowPart.size()) - 1;
  const int ncb = static_cast<int>(colPart.size()) - 1;
  const std::vector<int> colBlockOf = indexToBlock(colPart);

  VbrMatrix vbr;
  vbr.rpntr = rowPart;
  vbr.cpntr = colPart;
  vbr.bpntr.assign(static_cast<std::size_t>(nrb) + 1, 0);
  vbr.indx.push_back(0);

  std::vector<char> blockUsed(static_cast<std::size_t>(ncb), 0);
  for (int br = 0; br < nrb; ++br) {
    // Which column blocks have a nonzero in this block row?
    std::fill(blockUsed.begin(), blockUsed.end(), 0);
    for (int i = rowPart[static_cast<std::size_t>(br)];
         i < rowPart[static_cast<std::size_t>(br) + 1]; ++i) {
      for (int k = csr.rowPtr[static_cast<std::size_t>(i)];
           k < csr.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
        blockUsed[static_cast<std::size_t>(
            colBlockOf[static_cast<std::size_t>(
                csr.colIdx[static_cast<std::size_t>(k)])])] = 1;
      }
    }
    const int rdim = rowPart[static_cast<std::size_t>(br) + 1] -
                     rowPart[static_cast<std::size_t>(br)];
    for (int bc = 0; bc < ncb; ++bc) {
      if (!blockUsed[static_cast<std::size_t>(bc)]) continue;
      const int cdim = colPart[static_cast<std::size_t>(bc) + 1] -
                       colPart[static_cast<std::size_t>(bc)];
      vbr.bindx.push_back(bc);
      const int base = static_cast<int>(vbr.val.size());
      vbr.val.resize(vbr.val.size() + static_cast<std::size_t>(rdim * cdim), 0.0);
      // Fill column-major dense block.
      for (int i = rowPart[static_cast<std::size_t>(br)];
           i < rowPart[static_cast<std::size_t>(br) + 1]; ++i) {
        const int li = i - rowPart[static_cast<std::size_t>(br)];
        for (int k = csr.rowPtr[static_cast<std::size_t>(i)];
             k < csr.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
          const int j = csr.colIdx[static_cast<std::size_t>(k)];
          if (colBlockOf[static_cast<std::size_t>(j)] != bc) continue;
          const int lj = j - colPart[static_cast<std::size_t>(bc)];
          vbr.val[static_cast<std::size_t>(base + lj * rdim + li)] =
              csr.values[static_cast<std::size_t>(k)];
        }
      }
      vbr.indx.push_back(static_cast<int>(vbr.val.size()));
    }
    vbr.bpntr[static_cast<std::size_t>(br) + 1] =
        static_cast<int>(vbr.bindx.size());
  }
  return vbr;
}

VbrMatrix csrToVbrUniform(const CsrMatrix& csr, int blockSize) {
  LISI_CHECK(blockSize >= 1, "csrToVbrUniform: blockSize must be >= 1");
  auto makePart = [blockSize](int extent) {
    std::vector<int> part;
    for (int p = 0; p < extent; p += blockSize) part.push_back(p);
    part.push_back(extent);
    return part;
  };
  return csrToVbr(csr, makePart(csr.rows), makePart(csr.cols));
}

CsrMatrix vbrToCsr(const VbrMatrix& vbr) {
  vbr.check();
  CooMatrix coo;
  coo.rows = vbr.rows();
  coo.cols = vbr.cols();
  for (int br = 0; br < vbr.numRowBlocks(); ++br) {
    const int r0 = vbr.rpntr[static_cast<std::size_t>(br)];
    const int rdim = vbr.rpntr[static_cast<std::size_t>(br) + 1] - r0;
    for (int b = vbr.bpntr[static_cast<std::size_t>(br)];
         b < vbr.bpntr[static_cast<std::size_t>(br) + 1]; ++b) {
      const int bc = vbr.bindx[static_cast<std::size_t>(b)];
      const int c0 = vbr.cpntr[static_cast<std::size_t>(bc)];
      const int cdim = vbr.cpntr[static_cast<std::size_t>(bc) + 1] - c0;
      const int base = vbr.indx[static_cast<std::size_t>(b)];
      for (int lj = 0; lj < cdim; ++lj) {
        for (int li = 0; li < rdim; ++li) {
          coo.rowIdx.push_back(r0 + li);
          coo.colIdx.push_back(c0 + lj);
          coo.values.push_back(
              vbr.val[static_cast<std::size_t>(base + lj * rdim + li)]);
        }
      }
    }
  }
  return cooToCsr(coo);
}

CsrMatrix dropZeros(const CsrMatrix& csrIn, double tol) {
  CsrMatrix out;
  out.rows = csrIn.rows;
  out.cols = csrIn.cols;
  out.rowPtr.assign(static_cast<std::size_t>(csrIn.rows) + 1, 0);
  for (int i = 0; i < csrIn.rows; ++i) {
    for (int k = csrIn.rowPtr[static_cast<std::size_t>(i)];
         k < csrIn.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      if (std::abs(csrIn.values[static_cast<std::size_t>(k)]) > tol) {
        out.colIdx.push_back(csrIn.colIdx[static_cast<std::size_t>(k)]);
        out.values.push_back(csrIn.values[static_cast<std::size_t>(k)]);
      }
    }
    out.rowPtr[static_cast<std::size_t>(i) + 1] =
        static_cast<int>(out.values.size());
  }
  return out;
}

}  // namespace lisi::sparse
