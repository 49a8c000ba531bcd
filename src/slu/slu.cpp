// SLU factorization core: left-looking sparse LU with threshold partial
// pivoting (the algorithm at the heart of SuperLU, without supernodes) and
// the column-oriented triangular solves.
//
// Storage.  Both factors are kept as runs of consecutive rows: column k of
// L (or U) is a short list of (first row, value offset) pairs whose values
// are contiguous, so every update is a dense axpy over one run.  Rows are
// numbered in pivot coordinates.  While factorize() runs, L's rows are in
// ordering coordinates instead (row r is relabelled qinv[r], its position
// in the column ordering), so a banded ordering such as RCM gives each L
// column one run; they are renumbered to pivot coordinates at the end
// (identity when no pivot left the diagonal).  The values of each factor
// grow in a page mapping of their own (PageArray), outside the malloc
// arenas.
//
// Update order.  Every element of the work column takes its updates in
// ascending pivot position.  That is a valid order (L column k only reaches
// rows pivoted after k) and it is the order refactorize() replays, so
// factorize(A) and refactorize(A) agree bit for bit; the golden hashes in
// slu_test pin the factors themselves.  factorize() keeps a word window of
// the touched rows and sweeps the U column upward over a bitmap of touched
// pivot positions: below the first off-diagonal pivot a row is its own
// position, so a run marks its rows with word masks; past it, each newly
// touched pivoted row marks its position.  The pivot search and the L
// extraction walk the window.  Both kernels group up to four consecutive
// pivot columns whose L columns are each one run starting right below the
// pivot (the banded case): a head triangle resolves the group's u's, then
// each element of the rest takes the group's updates, in ascending order,
// in one pass over x.
//
// Pivot rule.  Threshold partial pivoting with diagonal preference: the
// largest-magnitude candidate wins unless the diagonal is nonzero and
// within diagPivotThresh of it; among candidates of equal magnitude the
// one with the lowest ordering coordinate wins.  Exact zeros are dropped
// from both factors.
#include "slu/slu.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <new>
#include <utility>

#include "obs/obs.hpp"
#include "sparse/ops.hpp"
#include "support/prec.hpp"

namespace slu {

using lisi::sparse::CscMatrix;

namespace {
// Reuse observability: full (symbolic + numeric) factorizations vs
// numeric-only same-pattern refactorizations.  Process-wide atomics because
// MiniMPI ranks are threads.  Memory order (audited): relaxed everywhere —
// monotonic counters carrying no publication duty; test readers run after
// the writer ranks joined.
std::atomic<long long> gSymbolicFactorizations{0};
std::atomic<long long> gNumericRefactorizations{0};

/// Append-only array of factor values in its own anonymous mapping.  It
/// doubles in place through mremap (no copy) and unmaps when released, so
/// factor values never pass through the malloc arenas.  A vector's chain
/// of doubling steps would leave arena holes whose reuse depends on which
/// arena a rank thread drew, and with it the process's resident peak.
class PageArray {
 public:
  PageArray() = default;
  PageArray(PageArray&& o) noexcept { swap(o); }
  PageArray& operator=(PageArray&& o) noexcept {
    swap(o);
    return *this;
  }
  PageArray(const PageArray&) = delete;
  PageArray& operator=(const PageArray&) = delete;
  ~PageArray() {
    if (data_ != nullptr) munmap(data_, cap_ * sizeof(double));
  }

  void push_back(double v) {
    if (size_ == cap_) grow();
    data_[size_++] = v;
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] double* data() { return data_; }
  [[nodiscard]] const double* data() const { return data_; }
  double& operator[](std::size_t i) { return data_[i]; }
  const double& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] const double* begin() const { return data_; }
  [[nodiscard]] const double* end() const { return data_ + size_; }

 private:
  static constexpr std::size_t kFirstBytes = std::size_t{64} << 10;

  void swap(PageArray& o) noexcept {
    std::swap(data_, o.data_);
    std::swap(size_, o.size_);
    std::swap(cap_, o.cap_);
  }
  void grow() {
    const std::size_t bytes = cap_ * sizeof(double);
    void* p = bytes == 0 ? mmap(nullptr, kFirstBytes, PROT_READ | PROT_WRITE,
                                MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)
                         : mremap(data_, bytes, 2 * bytes, MREMAP_MAYMOVE);
    if (p == MAP_FAILED) throw std::bad_alloc();
    data_ = static_cast<double*>(p);
    cap_ = (bytes == 0 ? kFirstBytes : 2 * bytes) / sizeof(double);
  }

  double* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

/// Columns of a triangular factor as runs of consecutive rows.  Column k
/// owns runs [ptr[k], ptr[k+1]); run t covers rows [start[t], start[t] +
/// off[t+1] - off[t]) with values val[off[t] ...].  Once the column being
/// built is ended, `off` carries one sentinel past the last run
/// (off.back() == val.size()).
struct RunColumns {
  std::vector<int> ptr{0}, start, off{0};
  PageArray val;
  int next = -1;  ///< row that extends the open run; -1: no run is open

  /// Append (row, v) to the column being built.
  void append(int row, double v) {
    place(row, static_cast<int>(val.size()));
    val.push_back(v);
  }
  /// The column's next value, at offset `at`, is in `row`: extends the open
  /// run when `row` follows it directly, else opens one.
  void place(int row, int at) {
    if (row != next) {
      if (next >= 0) off.push_back(at);
      start.push_back(row);
    }
    next = row + 1;
  }
  /// Ends the column being built; its values end at offset `end`.
  void endColumn(int end) {
    if (next >= 0) off.push_back(end);
    ptr.push_back(static_cast<int>(start.size()));
    next = -1;
  }
  void endColumn() { endColumn(static_cast<int>(val.size())); }
};

/// Calls fn(firstRow, valueOffset, length) for each run of column k.
template <class F>
void forRuns(const RunColumns& c, int k, F&& fn) {
  for (int t = c.ptr[static_cast<std::size_t>(k)];
       t < c.ptr[static_cast<std::size_t>(k) + 1]; ++t) {
    const auto o = static_cast<std::size_t>(t);
    fn(c.start[o], c.off[o], c.off[o + 1] - c.off[o]);
  }
}

/// x[s, s+len) -= alpha * v[0, len): the one update every kernel applies.
template <class V>
inline void axpyRun(V* __restrict x, const V* __restrict v, int len,
                    V alpha) {
  for (int i = 0; i < len; ++i) x[i] -= alpha * v[i];
}

/// x[0, len) -= sum_i u[i] * v[i][0, len) for G columns in one pass over x.
/// Each element takes its updates in ascending i, so x ends bitwise as G
/// sequential axpyRuns leave it.
template <int G>
void axpyGroup(double* __restrict x, const double* const* v, const double* u,
               int len) {
  const double* w[G];
  for (int i = 0; i < G; ++i) w[i] = v[i];
  for (int r = 0; r < len; ++r) {
    double t = x[r];
    for (int i = 0; i < G; ++i) t -= u[i] * w[i][r];
    x[r] = t;
  }
}

/// If L column k is one run starting right below its pivot (row k + 1),
/// points v at its values and returns one past its last row; else -1.
inline int runBelow(const RunColumns& l, int k, const double*& v) {
  const auto c = static_cast<std::size_t>(k);
  if (l.ptr[c + 1] - l.ptr[c] != 1) return -1;
  const auto t = static_cast<std::size_t>(l.ptr[c]);
  if (l.start[t] != k + 1) return -1;
  v = l.val.data() + l.off[t];
  return k + 1 + (l.off[t + 1] - l.off[t]);
}

/// Columns one grouped pass applies at most.
constexpr int kGroup = 4;

/// Left-looking update by pivot column k, whose L column is one run right
/// below its pivot and whose u = x[k] is nonzero, grouped with as many of
/// the columns k+1 .. k+3 below `limit` as can join it.  A column joins
/// when its L column has the same shape and its u, resolved by the head
/// triangle (the group's updates to rows k+1, k+2, ...), is nonzero.  The
/// rows past the head then take the group's updates in one pass over x.
/// Every element takes its updates in ascending pivot order, so x ends
/// bitwise as per-column axpyRuns leave it.  Writes the members' u to
/// u[0, size), sets `end` one past the last row updated, returns size.
int groupUpdate(double* x, const RunColumns& l, int k, int limit,
                double (&u)[kGroup], int& end) {
  const double* v[kGroup];
  int e[kGroup];
  u[0] = x[k];
  e[0] = runBelow(l, k, v[0]);
  int g = 1;
  int head = k + 1;  // rows [k+1, head) have taken every group update
  for (; g < kGroup; ++g) {
    const int r = k + g;
    if (r >= limit || (e[g] = runBelow(l, r, v[g])) < 0) break;
    double t = x[r];
    for (int i = 0; i < g; ++i) {
      if (r < e[i]) t -= u[i] * v[i][r - (k + i + 1)];
    }
    x[r] = t;
    head = r + 1;
    if (t == 0.0) break;
    u[g] = t;
  }
  int common = e[0];
  end = e[0];
  for (int i = 1; i < g; ++i) {
    common = std::min(common, e[i]);
    end = std::max(end, e[i]);
  }
  if (head < common) {
    const double* w[kGroup];
    for (int i = 0; i < g; ++i) w[i] = v[i] + (head - (k + i + 1));
    double* xs = x + head;
    const int len = common - head;
    switch (g) {
      case 1: axpyRun(xs, w[0], len, u[0]); break;
      case 2: axpyGroup<2>(xs, w, u, len); break;
      case 3: axpyGroup<3>(xs, w, u, len); break;
      default: axpyGroup<4>(xs, w, u, len); break;
    }
  }
  // Rows past the shortest run, column by column in ascending order.
  const int from = std::max(head, common);
  for (int i = 0; i < g; ++i) {
    if (from < e[i]) {
      axpyRun(x + from, v[i] + (from - (k + i + 1)), e[i] - from, u[i]);
    }
  }
  return g;
}

using Word = std::uint64_t;
constexpr int kWordBits = 64;

/// Calls fn(wordIndex, mask) for each bitset word overlapping [s, s+len).
/// Inlined: factorize() marks every run it updates through it.
template <class F>
[[gnu::always_inline]] inline void forRangeWords(int s, int len, F&& fn) {
  const int e = s + len;
  for (int w = s / kWordBits; w * kWordBits < e; ++w) {
    const int lo = std::max(s - w * kWordBits, 0);
    const int hi = std::min(e - w * kWordBits, kWordBits);
    const Word top = hi == kWordBits ? ~Word{0} : (Word{1} << hi) - 1;
    fn(w, top & ~((Word{1} << lo) - 1));
  }
}

/// Calls fn(bit) for each set bit of `m`, ascending; `base` is the word's
/// first index.
template <class F>
inline void forBits(Word m, int base, F&& fn) {
  while (m != 0) {
    fn(base + std::countr_zero(m));
    m &= m - 1;
  }
}

/// Calls fn(i), ascending, for each set bit i of words [lo, hi] of `set`.
template <class F>
void forTouched(const std::vector<Word>& set, int lo, int hi, F&& fn) {
  for (int w = lo; w <= hi; ++w) {
    forBits(set[static_cast<std::size_t>(w)], w * kWordBits, fn);
  }
}
}  // namespace

long long symbolicFactorizations() {
  return gSymbolicFactorizations.load(std::memory_order_relaxed);
}

long long numericRefactorizations() {
  return gNumericRefactorizations.load(std::memory_order_relaxed);
}

/// Flattened run-stored triangular factors in pivot coordinates.
struct Factorization::Impl {
  int n = 0;
  Options options;
  Stats stats;
  std::vector<int> q;        ///< column permutation (position -> original col)
  std::vector<int> pinv;     ///< original row -> pivot position
  std::vector<double> rowScale;  ///< row equilibration factors (or empty)

  // The factorized matrix's sparsity pattern, kept so refactorize() can
  // verify its SamePattern precondition instead of silently producing a
  // wrong factorization.
  std::vector<int> aColPtr, aRowIdx;

  RunColumns l;  ///< unit lower triangular, off-diagonal entries only
  RunColumns u;  ///< strictly upper entries; runs ascend by row
  std::vector<double> uDiag;

  // Options::lowPrecision float32 mirrors of the factor values.  The double
  // arrays above are retained (refactorize() replays its left-looking
  // updates through them), but the triangular solves read only these, so
  // each solve moves half the factor-value bytes.  Empty in double mode.
  std::vector<float> lValF, uValF, uDiagF;

  /// Dense work column: factorize() sizes it and uses it by row,
  /// refactorize() by pivot position; all zero between calls.
  std::vector<double> work;

  /// Allocates on first use only: refactorize() keeps the sizes.
  void mirrorFactorsToFloat() {
    lValF.assign(l.val.begin(), l.val.end());
    uValF.assign(u.val.begin(), u.val.end());
    uDiagF.assign(uDiag.begin(), uDiag.end());
  }

  /// Factor-value bytes one triangular-solve pass reads (L + U + diagonal).
  [[nodiscard]] long long factorValueCount() const {
    return static_cast<long long>(l.val.size()) +
           static_cast<long long>(u.val.size()) +
           static_cast<long long>(uDiag.size());
  }

  /// Row equilibration factors of `a` (1 / max|row|) into rowScale.
  void computeRowScale(const CscMatrix& a) {
    std::fill(rowScale.begin(), rowScale.end(), 0.0);
    for (std::size_t k = 0; k < a.values.size(); ++k) {
      auto& s = rowScale[static_cast<std::size_t>(a.rowIdx[k])];
      s = std::max(s, std::abs(a.values[k]));
    }
    for (double& s : rowScale) {
      LISI_CHECK(s != 0.0, "SLU: structurally zero row");
      s = 1.0 / s;
    }
  }

  [[nodiscard]] double scaleOf(int r) const {
    return rowScale.empty() ? 1.0 : rowScale[static_cast<std::size_t>(r)];
  }

  int replay(const CscMatrix& a);
  template <class V>
  void solveColumns(const V* lVal, const V* uVal, const V* uDiagV,
                    std::span<const double> b, std::span<double> x,
                    int numRhs) const;
};

Factorization::Factorization() : impl_(new Impl) {}
Factorization::~Factorization() = default;
Factorization::Factorization(Factorization&&) noexcept = default;
Factorization& Factorization::operator=(Factorization&&) noexcept = default;

const Stats& Factorization::stats() const { return impl_->stats; }
int Factorization::order() const { return impl_->n; }

Factorization Factorization::factorize(const CscMatrix& a,
                                       const Options& options) {
  a.check();
  LISI_CHECK(a.rows == a.cols, "SLU: matrix must be square");
  const int n = a.cols;
  const auto nz = static_cast<std::size_t>(n);

  gSymbolicFactorizations.fetch_add(1, std::memory_order_relaxed);
  lisi::obs::count("slu.factor.symbolic");
  lisi::obs::Span span("slu.factor.symbolic");
  Factorization fact;
  Impl& f = *fact.impl_;
  f.n = n;
  f.options = options;
  f.stats.n = n;
  f.stats.nnzA = a.nnz();
  f.aColPtr = a.colPtr;
  f.aRowIdx = a.rowIdx;
  f.q = computeOrdering(a, options.ordering);
  if (options.equilibrate) {
    f.rowScale.resize(nz);
    f.computeRowScale(a);
  }

  // Rows in ordering coordinates: c = qinv[r].  pivotOf[c] is the pivot
  // position of row c (-1 until pivoted), rowAt its inverse.
  std::vector<int> qinv(nz), pivotOf(nz, -1), rowAt(nz);
  for (int j = 0; j < n; ++j) {
    qinv[static_cast<std::size_t>(f.q[static_cast<std::size_t>(j)])] = j;
  }

  // Rows [0, diag) are pivoted on the diagonal (pivotOf[c] == c), and no row
  // at or past pivHi is pivoted.  `rows` marks the touched rows; `pos`
  // marks, by pivot position, the touched pivoted rows at or past diag,
  // where a row and its position may differ.
  int diag = 0, pivHi = 0;
  const std::size_t words = (nz + kWordBits - 1) / kWordBits;
  std::vector<Word> rows(words, 0), pos(words, 0);
  auto bit = [](int i) { return Word{1} << (i % kWordBits); };
  auto word = [](std::vector<Word>& set, int i) -> Word& {
    return set[static_cast<std::size_t>(i / kWordBits)];
  };
  auto pivoted = [&](int c) { return pivotOf[static_cast<std::size_t>(c)] >= 0; };

  f.work.assign(nz, 0.0);
  double* x = f.work.data();  // indexed by row here, left all zero
  RunColumns l;  // rows in ordering coordinates until the end
  RunColumns& u = f.u;
  f.uDiag.assign(nz, 0.0);
  double maxA = 0.0, maxU = 0.0;  // for the pivot growth

  for (int j = 0; j < n; ++j) {
    const int col = f.q[static_cast<std::size_t>(j)];
    // Word windows [lo, hi] of the touched rows and positions.
    int rLo = static_cast<int>(words), rHi = -1;
    int pLo = static_cast<int>(words), pHi = -1;
    // Row c, newly touched: if it was pivoted where a row and its position
    // may differ, marks its position.  Out of line, off the runs' path.
    auto markPosition = [&](int c) __attribute__((noinline)) {
      if (c < diag || !pivoted(c)) return;
      const int k = pivotOf[static_cast<std::size_t>(c)];
      word(pos, k) |= bit(k);
      pLo = std::min(pLo, k / kWordBits);
      pHi = std::max(pHi, k / kWordBits);
    };
    // Marks rows [s, e) touched with word masks.  Inlined: every run of
    // every update calls it.
    auto mark = [&](int s, int e) __attribute__((always_inline)) {
      const bool broken = e > diag && s < pivHi;
      forRangeWords(s, e - s, [&](int w, Word m) {
        Word& rw = rows[static_cast<std::size_t>(w)];
        if (broken) forBits(m & ~rw, w * kWordBits, markPosition);
        rw |= m;
      });
    };
    // Widens the row window to rows [s, e).
    auto widen = [&](int s, int e) {
      rLo = std::min(rLo, s / kWordBits);
      rHi = std::max(rHi, (e - 1) / kWordBits);
    };
    // Column k's update, one run at a time; u = xk != 0.  The runs ascend,
    // so the window widens once, to the first and the last.
    auto update = [&](int k, double xk) {
      u.append(k, xk);
      maxU = std::max(maxU, std::abs(xk));
      const auto t0 = static_cast<std::size_t>(l.ptr[static_cast<std::size_t>(k)]);
      const auto t1 =
          static_cast<std::size_t>(l.ptr[static_cast<std::size_t>(k) + 1]);
      if (t0 == t1) return;
      for (std::size_t t = t0; t < t1; ++t) {
        const int s = l.start[t], off = l.off[t], len = l.off[t + 1] - off;
        axpyRun(x + s, l.val.data() + off, len, xk);
        mark(s, s + len);
      }
      widen(l.start[t0], l.start[t1 - 1] + (l.off[t1] - l.off[t1 - 1]));
    };

    // Scatter the column of A.
    for (int t = a.colPtr[static_cast<std::size_t>(col)];
         t < a.colPtr[static_cast<std::size_t>(col) + 1]; ++t) {
      const int r = a.rowIdx[static_cast<std::size_t>(t)];
      const int c = qinv[static_cast<std::size_t>(r)];
      const double v = a.values[static_cast<std::size_t>(t)] * f.scaleOf(r);
      maxA = std::max(maxA, std::abs(v));
      x[c] += v;
      mark(c, c + 1);
      widen(c, c + 1);
    }

    // Left-looking updates in ascending pivot position.  An update by
    // column k only touches rows pivoted after k, so neither sweep looks
    // back.  Below diag, positions are rows: pop the touched ones.
    for (int w = rLo; w * kWordBits < diag; ++w) {
      const int below = std::min(diag - w * kWordBits, kWordBits);
      const Word live = below == kWordBits ? ~Word{0} : (Word{1} << below) - 1;
      Word& rw = rows[static_cast<std::size_t>(w)];
      for (Word m; (m = rw & live) != 0;) {
        const int k = w * kWordBits + std::countr_zero(m);
        const double xk = x[k];
        const double* v = nullptr;
        if (xk == 0.0 || runBelow(l, k, v) < 0) {
          x[k] = 0.0;
          rw &= ~bit(k);
          if (xk != 0.0) update(k, xk);
          continue;
        }
        double us[kGroup];
        int end = 0;
        const int g = groupUpdate(x, l, k, diag, us, end);
        mark(k + 1, end);
        widen(k + 1, end);
        for (int i = 0; i < g; ++i) {
          u.append(k + i, us[i]);
          maxU = std::max(maxU, std::abs(us[i]));
          x[k + i] = 0.0;
          word(rows, k + i) &= ~bit(k + i);
        }
      }
    }
    // From diag on, the touched positions were marked one by one.
    for (int w = pLo; w <= pHi; ++w) {
      Word& pw = pos[static_cast<std::size_t>(w)];
      while (pw != 0) {
        const int k = w * kWordBits + std::countr_zero(pw);
        pw &= pw - 1;
        const int c = rowAt[static_cast<std::size_t>(k)];
        const double xk = x[c];
        x[c] = 0.0;
        if (xk != 0.0) update(k, xk);
      }
    }
    u.endColumn();

    // Pivot search over the touched rows, ascending, so the first of
    // equal-magnitude candidates (lowest ordering coordinate) wins.  Every
    // pivoted row's x was zeroed when it was popped, so only unpivoted rows
    // can win, and the rows below diag were all popped.
    const int rFrom = std::max(rLo, diag / kWordBits);
    double maxAbs = 0.0;
    int pc = -1;
    forTouched(rows, rFrom, rHi, [&](int c) {
      const double mag = std::abs(x[c]);
      if (mag > maxAbs) {
        maxAbs = mag;
        pc = c;
      }
    });
    LISI_CHECK(pc >= 0 && maxAbs > 0.0,
               "SLU: matrix is singular (zero pivot column " +
                   std::to_string(col) + ")");
    // Threshold pivoting: prefer the diagonal (ordering coordinate j) when
    // it is large enough.
    const double xd = x[j];
    if (pc != j && !pivoted(j) && xd != 0.0 &&
        std::abs(xd) >= options.diagPivotThresh * maxAbs) {
      pc = j;
    }
    if (pc != j) ++f.stats.offDiagonalPivots;
    const double pivot = x[pc];
    f.uDiag[static_cast<std::size_t>(j)] = pivot;
    maxU = std::max(maxU, std::abs(pivot));

    // Extract L below the pivot, ascending, and reset the work state.
    forTouched(rows, rFrom, rHi, [&](int c) {
      double& v = x[c];
      if (v != 0.0 && c != pc) l.append(c, v / pivot);
      v = 0.0;
    });
    std::fill(rows.begin() + rFrom, rows.begin() + rHi + 1, Word{0});
    l.endColumn();
    pivotOf[static_cast<std::size_t>(pc)] = j;
    rowAt[static_cast<std::size_t>(j)] = pc;
    if (pc == j && diag == j) ++diag;
    pivHi = std::max(pivHi, pc + 1);
  }

  // Renumber L's rows to pivot coordinates; the values keep their order,
  // only the run boundaries move where pivoting broke consecutiveness.
  // Without an off-diagonal pivot the renumbering is the identity.
  if (f.stats.offDiagonalPivots == 0) {
    f.l = std::move(l);
  } else {
    f.l.val = std::move(l.val);
    for (int k = 0; k < n; ++k) {
      forRuns(l, k, [&](int s, int off, int len) {
        for (int i = 0; i < len; ++i) {
          f.l.place(pivotOf[static_cast<std::size_t>(s + i)], off + i);
        }
      });
      f.l.endColumn(l.off[static_cast<std::size_t>(
          l.ptr[static_cast<std::size_t>(k) + 1])]);
    }
  }
  f.pinv.resize(nz);
  for (std::size_t r = 0; r < nz; ++r) {
    f.pinv[r] = pivotOf[static_cast<std::size_t>(qinv[r])];
  }

  f.stats.pivotGrowth = maxA > 0.0 ? maxU / maxA : 0.0;
  f.stats.nnzL = n + static_cast<long long>(f.l.val.size());
  f.stats.nnzU = n + static_cast<long long>(f.u.val.size());
  f.stats.fillRatio =
      f.stats.nnzA > 0 ? static_cast<double>(f.stats.nnzL + f.stats.nnzU - n) /
                             static_cast<double>(f.stats.nnzA)
                       : 0.0;
  if (options.lowPrecision) f.mirrorFactorsToFloat();
  return fact;
}

// lisi-lint: zero-alloc-begin(refactorize replay: factorize-sized work column)
/// Left-looking numeric replay over the frozen runs, in pivot coordinates
/// and ascending U-row order.  It groups columns as factorize() does, with
/// groups cut at the end of a U run instead; grouping never changes the
/// order in which an element takes its updates.  Only the
/// [lo, hi] window a column touched is cleared afterwards: update writes
/// may land on positions the (numerically pruned) stored pattern misses,
/// and those must not leak into later columns.  Refreshes the pivot growth
/// and returns -1, or returns the position of an exactly zero pivot (with
/// the work column cleared).
int Factorization::Impl::replay(const CscMatrix& a) {
  double* x = work.data();
  double maxA = 0.0, maxU = 0.0;
  for (int j = 0; j < n; ++j) {
    const int col = q[static_cast<std::size_t>(j)];
    int lo = j, hi = j;
    for (int t = a.colPtr[static_cast<std::size_t>(col)];
         t < a.colPtr[static_cast<std::size_t>(col) + 1]; ++t) {
      const int r = a.rowIdx[static_cast<std::size_t>(t)];
      const int p = pinv[static_cast<std::size_t>(r)];
      const double v = a.values[static_cast<std::size_t>(t)] * scaleOf(r);
      maxA = std::max(maxA, std::abs(v));
      x[p] += v;
      lo = std::min(lo, p);
      hi = std::max(hi, p);
    }
    // Updates only reach rows below their pivot, so lo stays put.
    forRuns(u, j, [&](int s, int off, int len) {
      for (int i = 0; i < len; ++i) {
        const int k = s + i;
        const double ukj = x[k];
        u.val[static_cast<std::size_t>(off + i)] = ukj;
        maxU = std::max(maxU, std::abs(ukj));
        if (ukj == 0.0) continue;
        const double* v = nullptr;
        if (runBelow(l, k, v) >= 0) {
          double us[kGroup];
          int end = 0;
          const int g = groupUpdate(x, l, k, s + len, us, end);
          for (int m = 1; m < g; ++m) {
            u.val[static_cast<std::size_t>(off + i + m)] = us[m];
            maxU = std::max(maxU, std::abs(us[m]));
          }
          hi = std::max(hi, end - 1);
          i += g - 1;
          continue;
        }
        forRuns(l, k, [&](int ls, int loff, int llen) {
          axpyRun(x + ls, l.val.data() + loff, llen, ukj);
          hi = std::max(hi, ls + llen - 1);
        });
      }
    });
    const double pivot = x[j];
    if (pivot != 0.0) {
      uDiag[static_cast<std::size_t>(j)] = pivot;
      maxU = std::max(maxU, std::abs(pivot));
      forRuns(l, j, [&](int s, int off, int len) {
        for (int i = 0; i < len; ++i) {
          l.val[static_cast<std::size_t>(off + i)] = x[s + i] / pivot;
        }
      });
    }
    std::fill(x + lo, x + hi + 1, 0.0);
    if (pivot == 0.0) return j;
  }
  stats.pivotGrowth = maxA > 0.0 ? maxU / maxA : 0.0;
  return -1;
}
// lisi-lint: zero-alloc-end

void Factorization::refactorize(const CscMatrix& a) {
  lisi::obs::Span span("slu.factor.numeric_refresh");
  Impl& f = *impl_;
  a.check();
  LISI_CHECK(a.rows == f.n && a.cols == f.n,
             "SLU refactorize: matrix order mismatch");
  LISI_CHECK(a.colPtr == f.aColPtr && a.rowIdx == f.aRowIdx,
             "SLU refactorize: sparsity pattern differs from the factorized "
             "matrix (SamePattern contract)");
  // Row equilibration factors depend on values; recompute over the fixed
  // pattern.
  if (f.options.equilibrate) f.computeRowScale(a);
  const int zeroPivot = f.replay(a);
  LISI_CHECK(zeroPivot < 0,
             "SLU refactorize: zero pivot at position " +
                 std::to_string(zeroPivot) +
                 " under the frozen pivot sequence; a full factorize() is "
                 "required");
  // The replay refreshed the pivot growth; the symbolic stats (fill,
  // permutation quality) are unchanged by construction.
  if (f.options.lowPrecision) f.mirrorFactorsToFloat();
  gNumericRefactorizations.fetch_add(1, std::memory_order_relaxed);
  lisi::obs::count("slu.factor.numeric_refresh");
}

/// solveMany's body for factor values of type V: per right-hand side,
/// c = P D b, forward L (unit diagonal) then backward U, column-oriented,
/// then x = Q c.
template <class V>
void Factorization::Impl::solveColumns(const V* lVal, const V* uVal,
                                       const V* uDiagV,
                                       std::span<const double> b,
                                       std::span<double> x,
                                       int numRhs) const {
  const auto nz = static_cast<std::size_t>(n);
  std::vector<V> cv(nz);
  V* c = cv.data();
  for (int rhs = 0; rhs < numRhs; ++rhs) {
    const double* bk = b.data() + nz * static_cast<std::size_t>(rhs);
    double* xk = x.data() + nz * static_cast<std::size_t>(rhs);
    for (std::size_t r = 0; r < nz; ++r) {
      c[pinv[r]] = static_cast<V>(bk[r] * scaleOf(static_cast<int>(r)));
    }
    for (int k = 0; k < n; ++k) {
      const V yk = c[k];
      if (yk == V(0)) continue;
      forRuns(l, k, [&](int s, int off, int len) {
        axpyRun(c + s, lVal + off, len, yk);
      });
    }
    for (int k = n - 1; k >= 0; --k) {
      const V zk = c[k] / uDiagV[k];
      c[k] = zk;
      if (zk == V(0)) continue;
      forRuns(u, k, [&](int s, int off, int len) {
        axpyRun(c + s, uVal + off, len, zk);
      });
    }
    for (std::size_t k = 0; k < nz; ++k) {
      xk[q[k]] = static_cast<double>(c[k]);
    }
  }
}

void Factorization::solve(std::span<const double> b,
                          std::span<double> x) const {
  solveMany(b, x, 1);
}

void Factorization::solveTranspose(std::span<const double> b,
                                   std::span<double> x) const {
  // A = D^{-1} P' L U Q', so A' = Q U' L' P D^{-1}:
  //   c = Q' b  ->  solve U' y = c  ->  solve L' z = y  ->  x = D P' z.
  const Impl& f = *impl_;
  const auto n = static_cast<std::size_t>(f.n);
  LISI_CHECK(b.size() == n && x.size() == n,
             "SLU solveTranspose: size mismatch");
  std::vector<double> c(n);
  // c = Q' b: c[k] = b[q[k]].
  for (std::size_t k = 0; k < n; ++k) {
    c[k] = b[static_cast<std::size_t>(f.q[k])];
  }
  // Column k of a factor is row k of its transpose, so each solve is a
  // dot product over the column's runs.
  auto dotRuns = [&](const RunColumns& t, int k, double acc) {
    forRuns(t, k, [&](int s, int off, int len) {
      for (int i = 0; i < len; ++i) {
        acc -= t.val[static_cast<std::size_t>(off + i)] *
               c[static_cast<std::size_t>(s + i)];
      }
    });
    return acc;
  };
  // Forward solve U' y = c.
  for (int k = 0; k < f.n; ++k) {
    c[static_cast<std::size_t>(k)] =
        dotRuns(f.u, k, c[static_cast<std::size_t>(k)]) /
        f.uDiag[static_cast<std::size_t>(k)];
  }
  // Backward solve L' z = y (unit diagonal).
  for (int k = f.n - 1; k >= 0; --k) {
    c[static_cast<std::size_t>(k)] =
        dotRuns(f.l, k, c[static_cast<std::size_t>(k)]);
  }
  // x = D P' z: x[r] = scale[r] * z[pinv[r]].
  for (std::size_t r = 0; r < n; ++r) {
    x[r] = f.scaleOf(static_cast<int>(r)) *
           c[static_cast<std::size_t>(f.pinv[r])];
  }
}

void Factorization::solveMany(std::span<const double> b, std::span<double> x,
                              int numRhs) const {
  const Impl& f = *impl_;
  const auto n = static_cast<std::size_t>(f.n);
  LISI_CHECK(numRhs >= 1, "SLU solve: numRhs must be >= 1");
  LISI_CHECK(b.size() == n * static_cast<std::size_t>(numRhs),
             "SLU solve: b size mismatch");
  LISI_CHECK(x.size() == b.size(), "SLU solve: x size mismatch");

  if (!f.uDiagF.empty()) {
    // Low-precision path: identical solve structure, but factor values and
    // the work vector are float32 (the float32 rounding of the solution is
    // what iterative refinement corrects).  The right-hand side is cast on
    // entry and the solution on exit.
    f.solveColumns(f.lValF.data(), f.uValF.data(), f.uDiagF.data(), b, x,
                   numRhs);
    for (int rhs = 0; rhs < numRhs; ++rhs) lisi::prec::noteLowApply();
    lisi::prec::noteBytesLow(4LL * f.factorValueCount() * numRhs);
    return;
  }
  f.solveColumns(f.l.val.data(), f.u.val.data(), f.uDiag.data(), b, x,
                 numRhs);
  lisi::prec::noteBytesHigh(8LL * f.factorValueCount() * numRhs);
}

int Factorization::solveRefined(const CscMatrix& a, std::span<const double> b,
                                std::span<double> x, int maxSteps) const {
  const auto n = static_cast<std::size_t>(impl_->n);
  LISI_CHECK(a.rows == impl_->n && a.cols == impl_->n,
             "solveRefined: matrix order mismatch");
  LISI_CHECK(b.size() == n && x.size() == n, "solveRefined: size mismatch");
  solve(b, x);
  const double bnorm = lisi::sparse::norm2(b);
  if (bnorm == 0.0) return 0;
  std::vector<double> r(n), d(n);
  int steps = 0;
  double prev = std::numeric_limits<double>::infinity();
  for (; steps < maxSteps; ++steps) {
    lisi::sparse::spmv(a, std::span<const double>(x), std::span<double>(r));
    for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
    const double rnorm = lisi::sparse::norm2(std::span<const double>(r));
    // Stop at machine-precision-level residuals or stagnation.
    if (rnorm <= 1e-16 * bnorm || rnorm >= 0.5 * prev) break;
    prev = rnorm;
    solve(std::span<const double>(r), std::span<double>(d));
    for (std::size_t i = 0; i < n; ++i) x[i] += d[i];
  }
  lisi::prec::noteRefineSweeps(steps);
  return steps;
}

void solve(const CscMatrix& a, std::span<const double> b, std::span<double> x,
           const Options& options, Stats* statsOut) {
  const Factorization fact = Factorization::factorize(a, options);
  fact.solve(b, x);
  if (statsOut) *statsOut = fact.stats();
}

}  // namespace slu
