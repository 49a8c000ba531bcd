// Fill-reducing orderings for SLU: reverse Cuthill-McKee and a greedy
// minimum-degree, both on the symmetrized pattern of A.
#include <algorithm>
#include <numeric>
#include <queue>

#include "slu/slu.hpp"

namespace slu {
namespace {

using lisi::sparse::CscMatrix;

/// Symmetrized adjacency (pattern of A + A', no self loops), CSR-like.
struct Adjacency {
  std::vector<int> ptr;
  std::vector<int> idx;
  [[nodiscard]] int degree(int v) const {
    return ptr[static_cast<std::size_t>(v) + 1] - ptr[static_cast<std::size_t>(v)];
  }
};

/// Two counting passes, no per-vertex vectors.  The first buckets each
/// off-diagonal entry (i, j) under both endpoints, which gives every
/// vertex its neighbours unsorted and with repeats.  The second re-buckets
/// those lists by neighbour: walking the vertices in ascending order fills
/// every list ascending, so repeats sit side by side and drop out as the
/// lists are compacted.
Adjacency buildAdjacency(const CscMatrix& a) {
  const int n = a.cols;
  const auto nz = static_cast<std::size_t>(n);
  std::vector<int> ptr(nz + 1, 0);
  for (int j = 0; j < n; ++j) {
    for (int k = a.colPtr[static_cast<std::size_t>(j)];
         k < a.colPtr[static_cast<std::size_t>(j) + 1]; ++k) {
      const int i = a.rowIdx[static_cast<std::size_t>(k)];
      if (i == j) continue;
      ++ptr[static_cast<std::size_t>(i) + 1];
      ++ptr[static_cast<std::size_t>(j) + 1];
    }
  }
  for (std::size_t v = 0; v < nz; ++v) ptr[v + 1] += ptr[v];
  // Both passes fill bucket v from fill[v] upward; the lists are symmetric,
  // so the two passes share the bucket sizes.
  std::vector<int> fill(ptr.begin(), ptr.end() - 1);
  std::vector<int> raw(static_cast<std::size_t>(ptr.back()));
  for (int j = 0; j < n; ++j) {
    for (int k = a.colPtr[static_cast<std::size_t>(j)];
         k < a.colPtr[static_cast<std::size_t>(j) + 1]; ++k) {
      const int i = a.rowIdx[static_cast<std::size_t>(k)];
      if (i == j) continue;
      raw[static_cast<std::size_t>(fill[static_cast<std::size_t>(i)]++)] = j;
      raw[static_cast<std::size_t>(fill[static_cast<std::size_t>(j)]++)] = i;
    }
  }
  std::copy(ptr.begin(), ptr.end() - 1, fill.begin());
  std::vector<int> sorted(raw.size());
  for (int w = 0; w < n; ++w) {
    for (int k = ptr[static_cast<std::size_t>(w)];
         k < ptr[static_cast<std::size_t>(w) + 1]; ++k) {
      const auto v = static_cast<std::size_t>(raw[static_cast<std::size_t>(k)]);
      sorted[static_cast<std::size_t>(fill[v]++)] = w;
    }
  }
  // Compact in place, dropping repeats.
  Adjacency adj;
  adj.ptr.assign(nz + 1, 0);
  std::size_t out = 0;
  for (std::size_t v = 0; v < nz; ++v) {
    const std::size_t first = out;
    for (int k = ptr[v]; k < ptr[v + 1]; ++k) {
      const int w = sorted[static_cast<std::size_t>(k)];
      if (out == first || sorted[out - 1] != w) sorted[out++] = w;
    }
    adj.ptr[v + 1] = static_cast<int>(out);
  }
  sorted.resize(out);
  adj.idx = std::move(sorted);
  return adj;
}

std::vector<int> rcm(const CscMatrix& a) {
  const int n = a.cols;
  const Adjacency adj = buildAdjacency(a);
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<char> seen(static_cast<std::size_t>(n), 0);

  // Visit every connected component, starting each BFS from a minimum-degree
  // vertex (a cheap pseudo-peripheral heuristic).
  std::vector<int> byDegree(static_cast<std::size_t>(n));
  std::iota(byDegree.begin(), byDegree.end(), 0);
  std::sort(byDegree.begin(), byDegree.end(), [&adj](int u, int v) {
    return adj.degree(u) < adj.degree(v);
  });
  std::vector<int> frontier;
  for (int start : byDegree) {
    if (seen[static_cast<std::size_t>(start)]) continue;
    std::queue<int> bfs;
    bfs.push(start);
    seen[static_cast<std::size_t>(start)] = 1;
    while (!bfs.empty()) {
      const int v = bfs.front();
      bfs.pop();
      order.push_back(v);
      frontier.clear();
      for (int k = adj.ptr[static_cast<std::size_t>(v)];
           k < adj.ptr[static_cast<std::size_t>(v) + 1]; ++k) {
        const int w = adj.idx[static_cast<std::size_t>(k)];
        if (!seen[static_cast<std::size_t>(w)]) {
          seen[static_cast<std::size_t>(w)] = 1;
          frontier.push_back(w);
        }
      }
      std::sort(frontier.begin(), frontier.end(), [&adj](int u, int w) {
        return adj.degree(u) < adj.degree(w);
      });
      for (int w : frontier) bfs.push(w);
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

/// Greedy minimum degree on an explicit quotient-free adjacency: when a
/// vertex is eliminated its neighbors become a clique.  Exact but O(n*d^2);
/// intended for moderate problem sizes (the LISI default is RCM).
std::vector<int> minDegree(const CscMatrix& a) {
  const int n = a.cols;
  const Adjacency adj = buildAdjacency(a);
  std::vector<std::vector<int>> nbr(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    nbr[static_cast<std::size_t>(v)].assign(
        adj.idx.begin() + adj.ptr[static_cast<std::size_t>(v)],
        adj.idx.begin() + adj.ptr[static_cast<std::size_t>(v) + 1]);
  }
  std::vector<char> eliminated(static_cast<std::size_t>(n), 0);
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  for (int step = 0; step < n; ++step) {
    int best = -1;
    std::size_t bestDeg = 0;
    for (int v = 0; v < n; ++v) {
      if (eliminated[static_cast<std::size_t>(v)]) continue;
      const std::size_t d = nbr[static_cast<std::size_t>(v)].size();
      if (best < 0 || d < bestDeg) {
        best = v;
        bestDeg = d;
      }
    }
    order.push_back(best);
    eliminated[static_cast<std::size_t>(best)] = 1;
    // Form the clique among best's remaining neighbors.
    auto& bn = nbr[static_cast<std::size_t>(best)];
    bn.erase(std::remove_if(bn.begin(), bn.end(),
                            [&](int w) {
                              return eliminated[static_cast<std::size_t>(w)] != 0;
                            }),
             bn.end());
    for (int u : bn) {
      auto& un = nbr[static_cast<std::size_t>(u)];
      un.erase(std::remove_if(un.begin(), un.end(),
                              [&](int w) {
                                return w == best ||
                                       eliminated[static_cast<std::size_t>(w)] != 0;
                              }),
               un.end());
      for (int w : bn) {
        if (w != u && std::find(un.begin(), un.end(), w) == un.end()) {
          un.push_back(w);
        }
      }
    }
  }
  return order;
}

}  // namespace

std::vector<int> computeOrdering(const CscMatrix& a, Ordering ordering) {
  a.check();
  LISI_CHECK(a.rows == a.cols, "computeOrdering: matrix must be square");
  switch (ordering) {
    case Ordering::kNatural: {
      std::vector<int> q(static_cast<std::size_t>(a.cols));
      std::iota(q.begin(), q.end(), 0);
      return q;
    }
    case Ordering::kRcm:
      return rcm(a);
    case Ordering::kMinDeg:
      return minDegree(a);
  }
  throw lisi::Error("computeOrdering: unknown ordering");
}

}  // namespace slu
