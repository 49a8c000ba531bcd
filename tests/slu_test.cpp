// SLU direct-solver tests: exactness on small systems, residuals on large
// ones, orderings, pivoting (including matrices that *require* row
// pivoting), factor reuse across right-hand sides, singular detection,
// fill statistics, and the factor contract: refactorize() of the factorized
// values is bitwise factorize(), allocates nothing once warm, and recovers
// cleanly from a zero pivot.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>

#include "mesh/pde5pt.hpp"
#include "slu/slu.hpp"
#include "sparse/convert.hpp"
#include "sparse/generate.hpp"
#include "sparse/ops.hpp"
#include "support/rng.hpp"

// ---- global allocation counter ----------------------------------------
// Replaces the global allocation functions for this test binary so the
// allocation-free contract of Factorization::refactorize can be asserted
// directly.  Counting is off by default; tests toggle it around the
// measured region.
namespace {
std::atomic<bool> g_countAllocs{false};
std::atomic<std::size_t> g_allocCalls{0};

void* countedAlloc(std::size_t n) {
  if (g_countAllocs.load(std::memory_order_relaxed)) {
    g_allocCalls.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (!p) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return countedAlloc(n); }
void* operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace slu {
namespace {

using lisi::Rng;
using lisi::sparse::CscMatrix;
using lisi::sparse::CsrMatrix;
using lisi::sparse::csrToCsc;

double solveRelResidual(const CsrMatrix& a, const Options& opts,
                        std::vector<double>* xOut = nullptr,
                        Stats* statsOut = nullptr) {
  Rng rng(1234);
  std::vector<double> xTrue(static_cast<std::size_t>(a.rows));
  for (auto& v : xTrue) v = rng.uniform(-1, 1);
  std::vector<double> b(xTrue.size());
  lisi::sparse::spmv(a, std::span<const double>(xTrue), std::span<double>(b));
  std::vector<double> x(xTrue.size());
  solve(csrToCsc(a), std::span<const double>(b), std::span<double>(x), opts,
        statsOut);
  if (xOut) *xOut = x;
  const double rn = lisi::sparse::residualNorm(a, std::span<const double>(x),
                                               std::span<const double>(b));
  return rn / lisi::sparse::norm2(std::span<const double>(b));
}

TEST(SluBasic, Solves2x2Exactly) {
  // [2 1; 1 3] x = [5; 10]  ->  x = [1; 3]
  CsrMatrix a;
  a.rows = 2;
  a.cols = 2;
  a.rowPtr = {0, 2, 4};
  a.colIdx = {0, 1, 0, 1};
  a.values = {2, 1, 1, 3};
  std::vector<double> b{5, 10};
  std::vector<double> x(2);
  solve(csrToCsc(a), std::span<const double>(b), std::span<double>(x));
  EXPECT_NEAR(x[0], 1.0, 1e-14);
  EXPECT_NEAR(x[1], 3.0, 1e-14);
}

TEST(SluBasic, IdentityIsTrivial) {
  CsrMatrix a;
  a.rows = 5;
  a.cols = 5;
  a.rowPtr = {0, 1, 2, 3, 4, 5};
  a.colIdx = {0, 1, 2, 3, 4};
  a.values = {1, 1, 1, 1, 1};
  std::vector<double> b{1, 2, 3, 4, 5};
  std::vector<double> x(5);
  Stats st;
  solve(csrToCsc(a), std::span<const double>(b), std::span<double>(x), {}, &st);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(x[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)]);
  EXPECT_EQ(st.nnzL, 5);
  EXPECT_EQ(st.nnzU, 5);
}

TEST(SluPivoting, ZeroDiagonalNeedsRowPivot) {
  // [0 1; 1 0] is perfectly conditioned but has a zero diagonal: without
  // partial pivoting the factorization would fail.
  CsrMatrix a;
  a.rows = 2;
  a.cols = 2;
  a.rowPtr = {0, 1, 2};
  a.colIdx = {1, 0};
  a.values = {1.0, 1.0};
  std::vector<double> b{3.0, 7.0};
  std::vector<double> x(2);
  Stats st;
  Options opts;
  opts.ordering = Ordering::kNatural;
  solve(csrToCsc(a), std::span<const double>(b), std::span<double>(x), opts, &st);
  EXPECT_NEAR(x[0], 7.0, 1e-14);
  EXPECT_NEAR(x[1], 3.0, 1e-14);
  EXPECT_GT(st.offDiagonalPivots, 0);
}

TEST(SluPivoting, ThresholdZeroKeepsDiagonal) {
  // With diagPivotThresh = 0 the diagonal is always used when nonzero:
  // diagonally dominant systems factor without row swaps.
  Rng rng(5);
  const CsrMatrix a = lisi::sparse::randomDiagDominant(50, 4, 1.0, rng);
  Options opts;
  opts.diagPivotThresh = 0.0;
  Stats st;
  EXPECT_LT(solveRelResidual(a, opts, nullptr, &st), 1e-12);
  EXPECT_EQ(st.offDiagonalPivots, 0);
}

class SluOrderingP : public ::testing::TestWithParam<Ordering> {};

TEST_P(SluOrderingP, SolvesPdeSystemAccurately) {
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = 14;
  const auto sys = lisi::mesh::assembleGlobal(spec);
  Options opts;
  opts.ordering = GetParam();
  EXPECT_LT(solveRelResidual(sys.localA, opts), 1e-11);
}

TEST_P(SluOrderingP, SolvesRandomUnsymmetric) {
  Rng rng(6);
  const CsrMatrix a = lisi::sparse::randomDiagDominant(80, 6, 0.5, rng);
  Options opts;
  opts.ordering = GetParam();
  EXPECT_LT(solveRelResidual(a, opts), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(AllOrderings, SluOrderingP,
                         ::testing::Values(Ordering::kNatural, Ordering::kRcm,
                                           Ordering::kMinDeg));

TEST(SluOrderings, PermutationsAreValid) {
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = 8;
  const auto sys = lisi::mesh::assembleGlobal(spec);
  const CscMatrix a = csrToCsc(sys.localA);
  for (Ordering o : {Ordering::kNatural, Ordering::kRcm, Ordering::kMinDeg}) {
    const auto q = computeOrdering(a, o);
    ASSERT_EQ(q.size(), static_cast<std::size_t>(a.cols));
    std::vector<char> seen(q.size(), 0);
    for (int v : q) {
      ASSERT_GE(v, 0);
      ASSERT_LT(v, a.cols);
      EXPECT_FALSE(seen[static_cast<std::size_t>(v)]) << "duplicate in perm";
      seen[static_cast<std::size_t>(v)] = 1;
    }
  }
}

TEST(SluOrderings, RcmReducesFillOnPde) {
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = 20;
  const auto sys = lisi::mesh::assembleGlobal(spec);
  Options natural;
  natural.ordering = Ordering::kNatural;
  Options rcm;
  rcm.ordering = Ordering::kRcm;
  Stats stNat, stRcm;
  EXPECT_LT(solveRelResidual(sys.localA, natural, nullptr, &stNat), 1e-10);
  EXPECT_LT(solveRelResidual(sys.localA, rcm, nullptr, &stRcm), 1e-10);
  // The 5-point natural ordering is already banded (bandwidth N); RCM must
  // stay in the same ballpark, not explode the fill.
  EXPECT_LT(stRcm.nnzL + stRcm.nnzU, 2 * (stNat.nnzL + stNat.nnzU));
  EXPECT_GT(stRcm.fillRatio, 1.0);
}

TEST(SluReuse, FactorOnceSolveMany) {
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = 10;
  const auto sys = lisi::mesh::assembleGlobal(spec);
  const auto fact = Factorization::factorize(csrToCsc(sys.localA));
  Rng rng(7);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<double> xTrue(static_cast<std::size_t>(sys.globalN));
    for (auto& v : xTrue) v = rng.uniform(-1, 1);
    std::vector<double> b(xTrue.size());
    lisi::sparse::spmv(sys.localA, std::span<const double>(xTrue),
                       std::span<double>(b));
    std::vector<double> x(b.size());
    fact.solve(std::span<const double>(b), std::span<double>(x));
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(x[i], xTrue[i], 1e-9);
    }
  }
}

TEST(SluReuse, SolveManyMatchesRepeatedSolve) {
  Rng rng(8);
  const CsrMatrix a = lisi::sparse::randomDiagDominant(30, 4, 1.0, rng);
  const auto fact = Factorization::factorize(csrToCsc(a));
  const int nrhs = 3;
  std::vector<double> b(static_cast<std::size_t>(30 * nrhs));
  for (auto& v : b) v = rng.uniform(-1, 1);
  std::vector<double> xMany(b.size());
  fact.solveMany(std::span<const double>(b), std::span<double>(xMany), nrhs);
  for (int k = 0; k < nrhs; ++k) {
    std::vector<double> x1(30);
    fact.solve(std::span<const double>(b).subspan(static_cast<std::size_t>(30 * k), 30),
               std::span<double>(x1));
    for (int i = 0; i < 30; ++i) {
      EXPECT_DOUBLE_EQ(x1[static_cast<std::size_t>(i)],
                       xMany[static_cast<std::size_t>(30 * k + i)]);
    }
  }
}

TEST(SluErrors, SingularMatrixDetected) {
  // Second column is exactly zero.
  CsrMatrix a;
  a.rows = 3;
  a.cols = 3;
  a.rowPtr = {0, 2, 3, 5};
  a.colIdx = {0, 2, 0, 0, 2};
  a.values = {1, 2, 3, 4, 5};
  EXPECT_THROW((void)Factorization::factorize(csrToCsc(a)), lisi::Error);
}

TEST(SluErrors, RankDeficientDetected) {
  // Rows 0 and 2 are identical; they remain identical through every column
  // elimination step, so the final pivot candidate is exactly zero.  (A
  // generic rank deficiency only yields a ~1e-16 pivot and, like SuperLU
  // without condition estimation, the factorization would "succeed".)
  CsrMatrix a;
  a.rows = 3;
  a.cols = 3;
  a.rowPtr = {0, 3, 6, 9};
  a.colIdx = {0, 1, 2, 0, 1, 2, 0, 1, 2};
  a.values = {1, 2, 3, 4, 5, 6, 1, 2, 3};
  EXPECT_THROW((void)Factorization::factorize(csrToCsc(a)), lisi::Error);
}

TEST(SluErrors, RectangularRejected) {
  Rng rng(9);
  const CsrMatrix a = lisi::sparse::randomCsr(4, 5, 2, rng);
  CscMatrix csc = csrToCsc(a);
  EXPECT_THROW((void)Factorization::factorize(csc), lisi::Error);
}

TEST(SluErrors, SolveSizeMismatch) {
  const auto fact =
      Factorization::factorize(csrToCsc(lisi::sparse::laplacian1d(6)));
  std::vector<double> b(5), x(6);
  EXPECT_THROW(fact.solve(std::span<const double>(b), std::span<double>(x)),
               lisi::Error);
}

TEST(SluEquilibrate, HandlesBadlyScaledRows) {
  // Rows scaled by 1e12 vs 1e-12: equilibration keeps the solve accurate.
  Rng rng(10);
  CsrMatrix a = lisi::sparse::randomDiagDominant(40, 4, 1.0, rng);
  for (int i = 0; i < a.rows; ++i) {
    const double s = (i % 2 == 0) ? 1e12 : 1e-12;
    for (int k = a.rowPtr[static_cast<std::size_t>(i)];
         k < a.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      a.values[static_cast<std::size_t>(k)] *= s;
    }
  }
  std::vector<double> xTrue(40);
  for (auto& v : xTrue) v = rng.uniform(-1, 1);
  std::vector<double> b(40);
  lisi::sparse::spmv(a, std::span<const double>(xTrue), std::span<double>(b));
  Options opts;
  opts.equilibrate = true;
  std::vector<double> x(40);
  solve(csrToCsc(a), std::span<const double>(b), std::span<double>(x), opts);
  for (int i = 0; i < 40; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)], xTrue[static_cast<std::size_t>(i)],
                1e-6);
  }
}

TEST(SluLarge, Pde200x200ClassSystemSolves) {
  // A mid-size PDE system (the paper's smallest benchmark grid is 50x50;
  // use 50 here to keep the unit suite fast).
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = 50;
  const auto sys = lisi::mesh::assembleGlobal(spec);
  Stats st;
  EXPECT_LT(solveRelResidual(sys.localA, {}, nullptr, &st), 1e-10);
  EXPECT_EQ(st.nnzA, lisi::mesh::pde5ptNnz(50));
  EXPECT_GT(st.fillRatio, 1.0);  // direct solves fill in
}

TEST(SluStats, PivotGrowthModestWithPartialPivoting) {
  // Partial pivoting keeps |L| <= 1, so growth on a well-behaved matrix
  // stays small; the identity has growth exactly 1.
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = 12;
  const auto sys = lisi::mesh::assembleGlobal(spec);
  Stats st;
  EXPECT_LT(solveRelResidual(sys.localA, {}, nullptr, &st), 1e-10);
  EXPECT_GE(st.pivotGrowth, 1.0 - 1e-12);
  EXPECT_LT(st.pivotGrowth, 100.0);
}

TEST(SluTranspose, SolveTransposeMatchesTransposedMatrix) {
  Rng rng(21);
  const CsrMatrix a = lisi::sparse::randomDiagDominant(35, 4, 1.0, rng);
  const auto fact = Factorization::factorize(csrToCsc(a));
  std::vector<double> xTrue(35);
  for (auto& v : xTrue) v = rng.uniform(-1, 1);
  // b = A' * xTrue; then solveTranspose must recover xTrue.
  std::vector<double> b(35);
  lisi::sparse::spmvTranspose(a, std::span<const double>(xTrue),
                              std::span<double>(b));
  std::vector<double> x(35);
  fact.solveTranspose(std::span<const double>(b), std::span<double>(x));
  for (int i = 0; i < 35; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                xTrue[static_cast<std::size_t>(i)], 1e-9);
  }
}

TEST(SluTranspose, WorksWithPivotingAndOrdering) {
  // A matrix that needs row pivoting, non-natural ordering, equilibration:
  // the transpose solve must invert every transformation correctly.
  Rng rng(22);
  CsrMatrix a = lisi::sparse::randomDiagDominant(30, 4, 1.0, rng);
  // Break the diagonal dominance of a few rows to force pivoting.
  for (int i = 0; i < 5; ++i) {
    for (int k = a.rowPtr[static_cast<std::size_t>(i * 6)];
         k < a.rowPtr[static_cast<std::size_t>(i * 6) + 1]; ++k) {
      if (a.colIdx[static_cast<std::size_t>(k)] == i * 6) {
        a.values[static_cast<std::size_t>(k)] *= 1e-6;
      }
    }
  }
  Options opts;
  opts.ordering = Ordering::kRcm;
  opts.equilibrate = true;
  const auto fact = Factorization::factorize(csrToCsc(a), opts);
  std::vector<double> xTrue(30);
  for (auto& v : xTrue) v = rng.uniform(-1, 1);
  std::vector<double> b(30);
  lisi::sparse::spmvTranspose(a, std::span<const double>(xTrue),
                              std::span<double>(b));
  std::vector<double> x(30);
  fact.solveTranspose(std::span<const double>(b), std::span<double>(x));
  for (int i = 0; i < 30; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                xTrue[static_cast<std::size_t>(i)], 1e-6);
  }
}

TEST(SluRefinement, ImprovesIllConditionedSolve) {
  // Badly row-scaled system *without* equilibration: plain solve loses
  // digits; refinement recovers them.
  Rng rng(23);
  CsrMatrix a = lisi::sparse::randomDiagDominant(50, 4, 1.0, rng);
  for (int i = 0; i < a.rows; ++i) {
    const double s = std::pow(10.0, (i % 13) - 6);
    for (int k = a.rowPtr[static_cast<std::size_t>(i)];
         k < a.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      a.values[static_cast<std::size_t>(k)] *= s;
    }
  }
  std::vector<double> xTrue(50);
  for (auto& v : xTrue) v = rng.uniform(-1, 1);
  std::vector<double> b(50);
  lisi::sparse::spmv(a, std::span<const double>(xTrue), std::span<double>(b));
  const lisi::sparse::CscMatrix csc = csrToCsc(a);
  const auto fact = Factorization::factorize(csc);
  std::vector<double> x(50);
  const int steps = fact.solveRefined(csc, std::span<const double>(b),
                                      std::span<double>(x), 5);
  EXPECT_GE(steps, 0);
  const double rel =
      lisi::sparse::residualNorm(a, std::span<const double>(x),
                                 std::span<const double>(b)) /
      lisi::sparse::norm2(std::span<const double>(b));
  EXPECT_LT(rel, 1e-13);
}

TEST(SluRefinement, ZeroRhsTakesNoSteps) {
  const lisi::sparse::CscMatrix a = csrToCsc(lisi::sparse::laplacian1d(10));
  const auto fact = Factorization::factorize(a);
  std::vector<double> b(10, 0.0), x(10, 7.0);
  EXPECT_EQ(fact.solveRefined(a, std::span<const double>(b),
                              std::span<double>(x)),
            0);
  for (double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(SluStats, ExactSolveOfTriangularHasNoFill) {
  // Lower bidiagonal matrix: L = A, U = diag -> no fill at natural order.
  const int n = 20;
  CsrMatrix a;
  a.rows = n;
  a.cols = n;
  a.rowPtr.resize(static_cast<std::size_t>(n) + 1);
  a.rowPtr[0] = 0;
  for (int i = 0; i < n; ++i) {
    if (i > 0) {
      a.colIdx.push_back(i - 1);
      a.values.push_back(-1.0);
    }
    a.colIdx.push_back(i);
    a.values.push_back(2.0);
    a.rowPtr[static_cast<std::size_t>(i) + 1] = static_cast<int>(a.values.size());
  }
  Options opts;
  opts.ordering = Ordering::kNatural;
  opts.diagPivotThresh = 0.0;  // keep diagonal pivots
  Stats st;
  EXPECT_LT(solveRelResidual(a, opts, nullptr, &st), 1e-12);
  EXPECT_EQ(st.nnzL + st.nnzU - n, st.nnzA);  // zero fill
}

// ---- factor contract ------------------------------------------------------

CscMatrix pdeCsc(int gridN) {
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = gridN;
  return csrToCsc(lisi::mesh::assembleGlobal(spec).localA);
}

/// Random unsymmetric matrix whose shrunken diagonal forces row
/// interchanges under classic partial pivoting (diagPivotThresh = 1).
CsrMatrix randomNeedsPivoting(int n, Rng& rng) {
  CsrMatrix a = lisi::sparse::randomDiagDominant(n, 6, 0.5, rng);
  for (int i = 0; i < n; ++i) {
    for (int k = a.rowPtr[static_cast<std::size_t>(i)];
         k < a.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      if (a.colIdx[static_cast<std::size_t>(k)] == i) {
        a.values[static_cast<std::size_t>(k)] *= 1e-3;
      }
    }
  }
  return a;
}

/// Solutions of three fixed right-hand sides, concatenated.
std::vector<double> threeSolves(const Factorization& f) {
  const auto n = static_cast<std::size_t>(f.order());
  Rng rng(99);
  std::vector<double> b(3 * n), x(3 * n);
  for (auto& v : b) v = rng.uniform(-1, 1);
  for (std::size_t k = 0; k < 3; ++k) {
    f.solve(std::span<const double>(b).subspan(k * n, n),
            std::span<double>(x).subspan(k * n, n));
  }
  return x;
}

bool bitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void expectSameStats(const Stats& a, const Stats& b) {
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.nnzA, b.nnzA);
  EXPECT_EQ(a.nnzL, b.nnzL);
  EXPECT_EQ(a.nnzU, b.nnzU);
  EXPECT_EQ(a.fillRatio, b.fillRatio);
  EXPECT_EQ(a.offDiagonalPivots, b.offDiagonalPivots);
  EXPECT_EQ(a.pivotGrowth, b.pivotGrowth);
}

/// factorize(A), then refactorize(A) on the same object: the replay applies
/// the updates in the order factorize did, so the factors (observed through
/// three solves) and the Stats must not change by a single bit.
void expectRefactorizeIsBitwiseFactorize(const CscMatrix& a,
                                         const Options& opts) {
  auto fact = Factorization::factorize(a, opts);
  const Stats before = fact.stats();
  const std::vector<double> x0 = threeSolves(fact);
  fact.refactorize(a);
  EXPECT_TRUE(bitwiseEqual(x0, threeSolves(fact)));
  expectSameStats(before, fact.stats());
}

/// Max-norm error of solving a x = a xTrue, relative to max|xTrue|.
double knownSolutionError(const CsrMatrix& a, const Options& opts,
                          bool refine) {
  Rng rng(77);
  std::vector<double> xTrue(static_cast<std::size_t>(a.rows));
  for (auto& v : xTrue) v = rng.uniform(-1, 1);
  std::vector<double> b(xTrue.size()), x(xTrue.size());
  lisi::sparse::spmv(a, std::span<const double>(xTrue), std::span<double>(b));
  const CscMatrix csc = csrToCsc(a);
  const auto fact = Factorization::factorize(csc, opts);
  if (refine) {
    (void)fact.solveRefined(csc, std::span<const double>(b),
                            std::span<double>(x), 10);
  } else {
    fact.solve(std::span<const double>(b), std::span<double>(x));
  }
  double err = 0.0, ref = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    err = std::max(err, std::abs(x[i] - xTrue[i]));
    ref = std::max(ref, std::abs(xTrue[i]));
  }
  return err / ref;
}

TEST(SluContract, RcmPdeFillAndPivotsPinned) {
  // The fill of RCM on the 63x63 paper PDE is a property of the ordering
  // and the pivot rule, not of the kernel that computes it.
  const auto fact = Factorization::factorize(pdeCsc(63));
  EXPECT_EQ(fact.stats().nnzL, 172578);
  EXPECT_EQ(fact.stats().nnzU, 172578);
  EXPECT_EQ(fact.stats().offDiagonalPivots, 0);
}

TEST(SluContract, RefactorizeIsBitwiseFactorizeOnRcmPde) {
  expectRefactorizeIsBitwiseFactorize(pdeCsc(63), Options{});
}

TEST(SluContract, RefactorizeIsBitwiseFactorizeUnderRowInterchanges) {
  // Real row interchanges fragment the L columns into many row runs.
  for (Ordering o : {Ordering::kNatural, Ordering::kMinDeg}) {
    Rng rng(31);
    const CscMatrix a = csrToCsc(randomNeedsPivoting(200, rng));
    Options opts;
    opts.ordering = o;
    opts.diagPivotThresh = 1.0;
    EXPECT_GT(Factorization::factorize(a, opts).stats().offDiagonalPivots, 0);
    expectRefactorizeIsBitwiseFactorize(a, opts);
  }
}

TEST(SluContract, EquilibratedSolveHitsKnownSolution) {
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = 24;
  CsrMatrix a = lisi::mesh::assembleGlobal(spec).localA;
  for (int i = 0; i < a.rows; ++i) {
    const double s = std::pow(10.0, (i % 7) - 3);
    for (int k = a.rowPtr[static_cast<std::size_t>(i)];
         k < a.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      a.values[static_cast<std::size_t>(k)] *= s;
    }
  }
  Options opts;
  opts.equilibrate = true;
  EXPECT_LT(knownSolutionError(a, opts, false), 1e-12);
}

TEST(SluContract, LowPrecisionRefinedSolveHitsKnownSolution) {
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = 24;
  Options opts;
  opts.lowPrecision = true;
  EXPECT_LT(knownSolutionError(lisi::mesh::assembleGlobal(spec).localA, opts,
                               true),
            1e-12);
}

TEST(SluContract, WarmRefactorizeAllocatesNothing) {
  Rng rng(41);
  const CscMatrix pde = pdeCsc(20);
  const CscMatrix pivoting = csrToCsc(randomNeedsPivoting(120, rng));
  Options mixed;
  mixed.equilibrate = true;
  mixed.lowPrecision = true;
  Options natural;
  natural.ordering = Ordering::kNatural;
  for (const auto& [a, opts] : {std::pair{&pde, Options{}},
                                std::pair{&pde, mixed},
                                std::pair{&pivoting, natural}}) {
    auto fact = Factorization::factorize(*a, opts);
    fact.refactorize(*a);  // warm
    g_allocCalls.store(0);
    g_countAllocs.store(true);
    fact.refactorize(*a);
    g_countAllocs.store(false);
    EXPECT_EQ(g_allocCalls.load(), 0u);
  }
}

TEST(SluContract, ZeroPivotReplayLeavesNoStaleState) {
  // Natural ordering on the PDE pivots on the diagonal.  Rewriting the
  // leading 2x2 block to [1 2; 3 6] makes the frozen pivot at position 1
  // exactly 6 - 3*2 = 0 while the rest of that column is live, so the
  // replay throws with nonzero work entries in flight.
  lisi::mesh::Pde5ptSpec spec;
  spec.gridN = 12;
  const CsrMatrix good = lisi::mesh::assembleGlobal(spec).localA;
  CsrMatrix bad = good;
  const double block[2][2] = {{1.0, 2.0}, {3.0, 6.0}};
  for (int i = 0; i < 2; ++i) {
    for (int k = bad.rowPtr[static_cast<std::size_t>(i)];
         k < bad.rowPtr[static_cast<std::size_t>(i) + 1]; ++k) {
      const int j = bad.colIdx[static_cast<std::size_t>(k)];
      if (j < 2) bad.values[static_cast<std::size_t>(k)] = block[i][j];
    }
  }
  Options opts;
  opts.ordering = Ordering::kNatural;
  auto fact = Factorization::factorize(csrToCsc(good), opts);
  ASSERT_EQ(fact.stats().offDiagonalPivots, 0);
  EXPECT_THROW(fact.refactorize(csrToCsc(bad)), lisi::Error);
  fact.refactorize(csrToCsc(good));
  const auto fresh = Factorization::factorize(csrToCsc(good), opts);
  EXPECT_TRUE(bitwiseEqual(threeSolves(fresh), threeSolves(fact)));
  expectSameStats(fresh.stats(), fact.stats());
}

}  // namespace
}  // namespace slu
