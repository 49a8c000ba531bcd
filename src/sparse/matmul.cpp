#include "sparse/matmul.hpp"

#include <algorithm>

#include "comm/tags.hpp"

namespace lisi::sparse {

namespace {

constexpr int kRowFetchTag = comm::tags::kMatMulRowFetch;

/// Sparse accumulator (SPA) used to form one output row at a time.
class SparseAccumulator {
 public:
  explicit SparseAccumulator(int cols)
      : values_(static_cast<std::size_t>(cols), 0.0),
        present_(static_cast<std::size_t>(cols), 0) {}

  void add(int col, double value) {
    if (!present_[static_cast<std::size_t>(col)]) {
      present_[static_cast<std::size_t>(col)] = 1;
      pattern_.push_back(col);
    }
    values_[static_cast<std::size_t>(col)] += value;
  }

  /// Flush the accumulated row into CSR arrays (sorted columns) and reset.
  void emit(std::vector<int>& colIdx, std::vector<double>& values) {
    std::sort(pattern_.begin(), pattern_.end());
    for (int c : pattern_) {
      colIdx.push_back(c);
      values.push_back(values_[static_cast<std::size_t>(c)]);
      values_[static_cast<std::size_t>(c)] = 0.0;
      present_[static_cast<std::size_t>(c)] = 0;
    }
    pattern_.clear();
  }

 private:
  std::vector<double> values_;
  std::vector<char> present_;
  std::vector<int> pattern_;
};

}  // namespace

CsrMatrix matMul(const CsrMatrix& a, const CsrMatrix& b) {
  a.check();
  b.check();
  LISI_CHECK(a.cols == b.rows, "matMul: inner dimensions disagree");
  CsrMatrix c;
  c.rows = a.rows;
  c.cols = b.cols;
  c.rowPtr.reserve(static_cast<std::size_t>(a.rows) + 1);
  c.rowPtr.push_back(0);
  SparseAccumulator spa(b.cols);
  for (int i = 0; i < a.rows; ++i) {
    for (int ka = a.rowPtr[static_cast<std::size_t>(i)];
         ka < a.rowPtr[static_cast<std::size_t>(i) + 1]; ++ka) {
      const int k = a.colIdx[static_cast<std::size_t>(ka)];
      const double av = a.values[static_cast<std::size_t>(ka)];
      for (int kb = b.rowPtr[static_cast<std::size_t>(k)];
           kb < b.rowPtr[static_cast<std::size_t>(k) + 1]; ++kb) {
        spa.add(b.colIdx[static_cast<std::size_t>(kb)],
                av * b.values[static_cast<std::size_t>(kb)]);
      }
    }
    spa.emit(c.colIdx, c.values);
    c.rowPtr.push_back(static_cast<int>(c.colIdx.size()));
  }
  return c;
}

DistCsrMatrix distMatMul(const DistCsrMatrix& a, const DistCsrMatrix& b) {
  const comm::Comm& comm = a.comm();
  const int p = comm.size();
  const int rank = comm.rank();
  LISI_CHECK(a.globalCols() == b.globalRows(),
             "distMatMul: inner dimensions disagree");
  LISI_CHECK(a.colStarts() == b.rowStarts(),
             "distMatMul: A's column partition must match B's row partition");

  // Both blocks are in local column numbering; global columns are derived
  // on the fly (globalCol).  A's owned columns are B's owned rows, in the
  // same order, since A's column partition is B's row partition.
  const OwnedBlockView la = a.ownedBlockView();
  const OwnedBlockView lb = b.ownedBlockView();
  const std::vector<int>& bRowStarts = b.rowStarts();
  const int bStart = bRowStarts[static_cast<std::size_t>(rank)];

  // Which global rows of B do my rows of A touch (A's ghosts), and who
  // owns them?
  std::vector<int> needed;
  for (int k = 0; k < la.nnz(); ++k) {
    const int c = la.colIdx[k];
    if (c >= la.ownedCols) needed.push_back(a.globalCol(c));
  }
  std::sort(needed.begin(), needed.end());
  needed.erase(std::unique(needed.begin(), needed.end()), needed.end());

  std::vector<std::vector<int>> needFrom(static_cast<std::size_t>(p));
  for (int g : needed) {
    const auto it =
        std::upper_bound(bRowStarts.begin(), bRowStarts.end(), g);
    const int owner = static_cast<int>(it - bRowStarts.begin()) - 1;
    LISI_ASSERT(owner >= 0 && owner < p && owner != rank);
    needFrom[static_cast<std::size_t>(owner)].push_back(g);
  }

  // Exchange request counts, then the requests, then the packed rows.
  std::vector<int> requestCounts(static_cast<std::size_t>(p), 0);
  for (int r = 0; r < p; ++r) {
    requestCounts[static_cast<std::size_t>(r)] =
        static_cast<int>(needFrom[static_cast<std::size_t>(r)].size());
  }
  const std::vector<int> allCounts =
      comm.allgatherv(std::span<const int>(requestCounts), nullptr);
  for (int r = 0; r < p; ++r) {
    if (!needFrom[static_cast<std::size_t>(r)].empty()) {
      comm.send(std::span<const int>(needFrom[static_cast<std::size_t>(r)]), r,
                kRowFetchTag);
    }
  }
  // Serve incoming requests: pack each requested row as
  // [len, col..., (double) val...] in two messages (ints, doubles).
  for (int q = 0; q < p; ++q) {
    if (q == rank) continue;
    const int wanted =
        allCounts[static_cast<std::size_t>(q) * static_cast<std::size_t>(p) +
                  static_cast<std::size_t>(rank)];
    if (wanted == 0) continue;
    const std::vector<int> rows = comm.recvVector<int>(q, kRowFetchTag);
    std::vector<int> meta;
    std::vector<double> vals;
    for (int g : rows) {
      const int i = g - bStart;
      LISI_ASSERT(i >= 0 && i < lb.rows);
      const int kb = lb.rowPtr[i];
      const int ke = lb.rowPtr[i + 1];
      meta.push_back(ke - kb);
      for (int k = kb; k < ke; ++k) meta.push_back(b.globalCol(lb.colIdx[k]));
      vals.insert(vals.end(), lb.values + kb, lb.values + ke);
    }
    comm.send(std::span<const int>(meta), q, kRowFetchTag);
    comm.send(std::span<const double>(vals), q, kRowFetchTag);
  }
  // Collect the replies into a lookup: global row -> (cols, vals).
  std::vector<int> fetchedPtr;  // parallel arrays over `needed`
  std::vector<int> fetchedCols;
  std::vector<double> fetchedVals;
  {
    // Rebuild in the same per-owner order the requests used.
    std::vector<std::pair<int, std::pair<std::vector<int>, std::vector<double>>>>
        byOwner;
    for (int r = 0; r < p; ++r) {
      if (needFrom[static_cast<std::size_t>(r)].empty()) continue;
      std::vector<int> meta = comm.recvVector<int>(r, kRowFetchTag);
      std::vector<double> vals = comm.recvVector<double>(r, kRowFetchTag);
      byOwner.emplace_back(r, std::make_pair(std::move(meta), std::move(vals)));
    }
    // `needed` is globally sorted and owners own contiguous ranges, so the
    // per-owner reply order concatenates back in sorted order.
    fetchedPtr.push_back(0);
    for (auto& [r, data] : byOwner) {
      auto& [meta, vals] = data;
      std::size_t mi = 0;
      std::size_t vi = 0;
      const auto& rows = needFrom[static_cast<std::size_t>(r)];
      for (std::size_t k = 0; k < rows.size(); ++k) {
        const int len = meta[mi++];
        for (int t = 0; t < len; ++t) fetchedCols.push_back(meta[mi++]);
        for (int t = 0; t < len; ++t) fetchedVals.push_back(vals[vi++]);
        fetchedPtr.push_back(static_cast<int>(fetchedCols.size()));
      }
    }
  }
  auto fetchedIndexOf = [&needed](int g) {
    const auto it = std::lower_bound(needed.begin(), needed.end(), g);
    LISI_ASSERT(it != needed.end() && *it == g);
    return static_cast<int>(it - needed.begin());
  };

  // Local SpGEMM with the fetched rows standing in for remote B rows.
  CsrMatrix lc;
  lc.rows = la.rows;
  lc.cols = b.globalCols();
  lc.rowPtr.reserve(static_cast<std::size_t>(la.rows) + 1);
  lc.rowPtr.push_back(0);
  SparseAccumulator spa(b.globalCols());
  for (int i = 0; i < la.rows; ++i) {
    for (int ka = la.rowPtr[i]; ka < la.rowPtr[i + 1]; ++ka) {
      const int c = la.colIdx[ka];
      const double av = la.values[ka];
      if (c < la.ownedCols) {
        for (int kb = lb.rowPtr[c]; kb < lb.rowPtr[c + 1]; ++kb) {
          spa.add(b.globalCol(lb.colIdx[kb]), av * lb.values[kb]);
        }
      } else {
        const int f = fetchedIndexOf(a.globalCol(c));
        for (int kb = fetchedPtr[static_cast<std::size_t>(f)];
             kb < fetchedPtr[static_cast<std::size_t>(f) + 1]; ++kb) {
          spa.add(fetchedCols[static_cast<std::size_t>(kb)],
                  av * fetchedVals[static_cast<std::size_t>(kb)]);
        }
      }
    }
    spa.emit(lc.colIdx, lc.values);
    lc.rowPtr.push_back(static_cast<int>(lc.colIdx.size()));
  }

  return DistCsrMatrix(comm, a.globalRows(), b.globalCols(), a.startRow(),
                       std::move(lc), b.colStarts());
}

DistCsrMatrix galerkinProduct(const DistCsrMatrix& r, const DistCsrMatrix& a,
                              const DistCsrMatrix& p) {
  const DistCsrMatrix ap = distMatMul(a, p);
  return distMatMul(r, ap);
}

}  // namespace lisi::sparse
