// Conversion tests: every format must round-trip through CSR exactly.
// Property sweeps (TEST_P) run over randomized matrices of several shapes,
// since format-conversion bugs hide in edge rows (empty, full, duplicate).
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "sparse/convert.hpp"
#include "sparse/generate.hpp"
#include "sparse/ops.hpp"
#include "support/rng.hpp"

namespace lisi::sparse {
namespace {

TEST(CooToCsr, SumsDuplicates) {
  CooMatrix coo;
  coo.rows = 2;
  coo.cols = 2;
  coo.rowIdx = {0, 0, 1, 0};
  coo.colIdx = {1, 1, 0, 1};
  coo.values = {1.0, 2.0, 5.0, 4.0};
  const CsrMatrix csr = cooToCsr(coo);
  EXPECT_EQ(csr.nnz(), 2);
  const auto dense = toDense(csr);
  EXPECT_DOUBLE_EQ(dense[1], 7.0);   // (0,1) = 1+2+4
  EXPECT_DOUBLE_EQ(dense[2], 5.0);   // (1,0)
}

TEST(CooToCsr, EmptyMatrix) {
  CooMatrix coo;
  coo.rows = 3;
  coo.cols = 4;
  const CsrMatrix csr = cooToCsr(coo);
  EXPECT_EQ(csr.nnz(), 0);
  EXPECT_NO_THROW(csr.check());
}

TEST(CsrCooRoundTrip, PreservesEntries) {
  Rng rng(1);
  const CsrMatrix a = randomCsr(13, 9, 4, rng);
  const CsrMatrix back = cooToCsr(csrToCoo(a));
  EXPECT_DOUBLE_EQ(maxAbsDiff(a, back), 0.0);
}

TEST(CsrCscRoundTrip, PreservesEntries) {
  Rng rng(2);
  const CsrMatrix a = randomCsr(11, 17, 3, rng);
  const CsrMatrix back = cscToCsr(csrToCsc(a));
  EXPECT_DOUBLE_EQ(maxAbsDiff(a, back), 0.0);
}

TEST(CsrCsc, TransposeRelationship) {
  Rng rng(3);
  const CsrMatrix a = randomCsr(6, 8, 3, rng);
  const CscMatrix csc = csrToCsc(a);
  // CSC arrays of A are exactly the CSR arrays of A'.
  const CsrMatrix at = transpose(a);
  EXPECT_EQ(csc.colPtr, at.rowPtr);
  EXPECT_EQ(csc.rowIdx, at.colIdx);
  for (std::size_t k = 0; k < csc.values.size(); ++k) {
    EXPECT_DOUBLE_EQ(csc.values[k], at.values[k]);
  }
}

TEST(CsrMsrRoundTrip, SquareWithFullDiagonal) {
  Rng rng(4);
  const CsrMatrix a = randomDiagDominant(20, 4, 0.5, rng);
  const MsrMatrix msr = csrToMsr(a);
  const CsrMatrix back = msrToCsr(msr);
  EXPECT_LT(maxAbsDiff(a, back), 1e-15);
}

TEST(CsrMsrRoundTrip, MissingDiagonalBecomesExplicitZero) {
  CsrMatrix a;
  a.rows = 2;
  a.cols = 2;
  a.rowPtr = {0, 1, 2};
  a.colIdx = {1, 0};
  a.values = {3.0, 4.0};  // zero diagonal, stored nowhere
  const MsrMatrix msr = csrToMsr(a);
  EXPECT_DOUBLE_EQ(msr.val[0], 0.0);
  EXPECT_DOUBLE_EQ(msr.val[1], 0.0);
  const CsrMatrix back = msrToCsr(msr);
  // Round trip inserts explicit zero diagonals; values must agree.
  EXPECT_LT(maxAbsDiff(a, dropZeros(back)), 1e-15);
}

TEST(CsrMsr, RejectsRectangular) {
  Rng rng(5);
  const CsrMatrix a = randomCsr(3, 4, 2, rng);
  EXPECT_THROW((void)csrToMsr(a), Error);
}

TEST(CsrVbrRoundTrip, UniformBlocks) {
  Rng rng(6);
  const CsrMatrix a = randomCsr(12, 12, 4, rng);
  for (int bs : {1, 2, 3, 5, 12, 20}) {
    const VbrMatrix vbr = csrToVbrUniform(a, bs);
    EXPECT_NO_THROW(vbr.check());
    const CsrMatrix back = dropZeros(vbrToCsr(vbr));
    EXPECT_LT(maxAbsDiff(dropZeros(a), back), 1e-15) << "block size " << bs;
  }
}

TEST(CsrVbrRoundTrip, IrregularPartitions) {
  Rng rng(7);
  const CsrMatrix a = randomCsr(10, 8, 3, rng);
  const std::vector<int> rowPart{0, 1, 4, 10};
  const std::vector<int> colPart{0, 5, 8};
  const VbrMatrix vbr = csrToVbr(a, rowPart, colPart);
  EXPECT_NO_THROW(vbr.check());
  EXPECT_LT(maxAbsDiff(dropZeros(a), dropZeros(vbrToCsr(vbr))), 1e-15);
}

TEST(Vbr, BadPartitionRejected) {
  Rng rng(8);
  const CsrMatrix a = randomCsr(4, 4, 2, rng);
  EXPECT_THROW((void)csrToVbr(a, {0, 3}, {0, 4}), Error);   // rows don't cover
  EXPECT_THROW((void)csrToVbr(a, {1, 4}, {0, 4}), Error);   // must start at 0
}

TEST(DropZeros, RemovesOnlyZeros) {
  CsrMatrix a;
  a.rows = 1;
  a.cols = 4;
  a.rowPtr = {0, 4};
  a.colIdx = {0, 1, 2, 3};
  a.values = {0.0, 1e-30, 0.0, 2.0};
  const CsrMatrix d = dropZeros(a);
  EXPECT_EQ(d.nnz(), 2);
  const CsrMatrix d2 = dropZeros(a, 1e-20);
  EXPECT_EQ(d2.nnz(), 1);
}

// Property sweep: spmv result is invariant under every format conversion.
// gtest names a parameter it cannot print after its raw bytes, and ctest
// registers each case under that name, so the struct must have no padding:
// `pad` (always 0) fills the four bytes between nnzPerRow and seed, which
// otherwise hold stack garbage and change the test names from build to build.
struct ShapeParam {
  int rows;
  int cols;
  int nnzPerRow;
  int pad;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<ShapeParam>);

class ConversionProperty : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(ConversionProperty, SpmvInvariantAcrossFormats) {
  const ShapeParam p = GetParam();
  Rng rng(p.seed);
  const CsrMatrix a = randomCsr(p.rows, p.cols, p.nnzPerRow, rng);
  std::vector<double> x(static_cast<std::size_t>(p.cols));
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  std::vector<double> yRef(static_cast<std::size_t>(p.rows));
  spmv(a, std::span<const double>(x), std::span<double>(yRef));

  auto expectSame = [&](std::span<const double> y, const char* what) {
    for (std::size_t i = 0; i < yRef.size(); ++i) {
      EXPECT_NEAR(y[i], yRef[i], 1e-12 * (1.0 + std::abs(yRef[i]))) << what;
    }
  };

  std::vector<double> y(static_cast<std::size_t>(p.rows));
  spmv(csrToCoo(a), std::span<const double>(x), std::span<double>(y));
  expectSame(y, "COO");
  spmv(csrToCsc(a), std::span<const double>(x), std::span<double>(y));
  expectSame(y, "CSC");
  if (p.rows == p.cols) {
    spmv(csrToMsr(a), std::span<const double>(x), std::span<double>(y));
    expectSame(y, "MSR");
  }
  spmv(csrToVbrUniform(a, 3), std::span<const double>(x), std::span<double>(y));
  expectSame(y, "VBR");
}

TEST_P(ConversionProperty, RoundTripsExact) {
  const ShapeParam p = GetParam();
  Rng rng(p.seed + 1000);
  const CsrMatrix a = randomCsr(p.rows, p.cols, p.nnzPerRow, rng);
  EXPECT_DOUBLE_EQ(maxAbsDiff(a, cooToCsr(csrToCoo(a))), 0.0);
  EXPECT_DOUBLE_EQ(maxAbsDiff(a, cscToCsr(csrToCsc(a))), 0.0);
  EXPECT_LT(maxAbsDiff(dropZeros(a), dropZeros(vbrToCsr(csrToVbrUniform(a, 4)))),
            1e-15);
  if (p.rows == p.cols) {
    EXPECT_LT(maxAbsDiff(dropZeros(a), dropZeros(msrToCsr(csrToMsr(a)))), 1e-15);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConversionProperty,
    ::testing::Values(ShapeParam{1, 1, 1, 0, 11}, ShapeParam{5, 5, 2, 0, 12},
                      ShapeParam{16, 16, 5, 0, 13}, ShapeParam{33, 7, 3, 0, 14},
                      ShapeParam{7, 33, 3, 0, 15}, ShapeParam{64, 64, 8, 0, 16},
                      ShapeParam{10, 10, 0, 0, 17},
                      ShapeParam{100, 100, 6, 0, 18}));

}  // namespace
}  // namespace lisi::sparse
