// Unit tests for the internal sparse storage formats: validation and
// canonicalization.
#include <gtest/gtest.h>

#include "sparse/formats.hpp"

namespace lisi::sparse {
namespace {

CsrMatrix tinyCsr() {
  // [ 1 0 2 ]
  // [ 0 3 0 ]
  CsrMatrix a;
  a.rows = 2;
  a.cols = 3;
  a.rowPtr = {0, 2, 3};
  a.colIdx = {0, 2, 1};
  a.values = {1.0, 2.0, 3.0};
  return a;
}

TEST(Coo, CheckAcceptsValid) {
  CooMatrix c;
  c.rows = 2;
  c.cols = 2;
  c.rowIdx = {0, 1, 0};
  c.colIdx = {0, 1, 1};
  c.values = {1, 2, 3};
  EXPECT_NO_THROW(c.check());
  EXPECT_EQ(c.nnz(), 3);
}

TEST(Coo, CheckRejectsOutOfRange) {
  CooMatrix c;
  c.rows = 2;
  c.cols = 2;
  c.rowIdx = {0, 2};
  c.colIdx = {0, 1};
  c.values = {1, 2};
  EXPECT_THROW(c.check(), Error);
}

TEST(Coo, CheckRejectsLengthMismatch) {
  CooMatrix c;
  c.rows = 1;
  c.cols = 1;
  c.rowIdx = {0};
  c.colIdx = {0, 0};
  c.values = {1.0};
  EXPECT_THROW(c.check(), Error);
}

TEST(Csr, CheckAcceptsValid) {
  EXPECT_NO_THROW(tinyCsr().check());
}

TEST(Csr, CheckRejectsBadRowPtr) {
  CsrMatrix a = tinyCsr();
  a.rowPtr = {0, 5, 3};  // non-monotone / wrong end
  EXPECT_THROW(a.check(), Error);
}

TEST(Csr, CheckRejectsColOutOfRange) {
  CsrMatrix a = tinyCsr();
  a.colIdx[0] = 99;
  EXPECT_THROW(a.check(), Error);
}

TEST(Csr, CanonicalizeSortsAndMerges) {
  CsrMatrix a;
  a.rows = 1;
  a.cols = 4;
  a.rowPtr = {0, 4};
  a.colIdx = {3, 1, 3, 0};
  a.values = {1.0, 2.0, 10.0, 4.0};
  EXPECT_FALSE(a.isCanonical());
  a.canonicalize();
  EXPECT_TRUE(a.isCanonical());
  ASSERT_EQ(a.nnz(), 3);
  EXPECT_EQ(a.colIdx, (std::vector<int>{0, 1, 3}));
  EXPECT_DOUBLE_EQ(a.values[2], 11.0);  // duplicates summed
}

TEST(Csr, CanonicalOnEmptyRows) {
  CsrMatrix a;
  a.rows = 3;
  a.cols = 3;
  a.rowPtr = {0, 0, 1, 1};
  a.colIdx = {2};
  a.values = {5.0};
  a.canonicalize();
  EXPECT_NO_THROW(a.check());
  EXPECT_EQ(a.nnz(), 1);
}

TEST(Csc, CheckValidAndInvalid) {
  CscMatrix c;
  c.rows = 3;
  c.cols = 2;
  c.colPtr = {0, 1, 3};
  c.rowIdx = {2, 0, 1};
  c.values = {1, 2, 3};
  EXPECT_NO_THROW(c.check());
  c.rowIdx[0] = 3;
  EXPECT_THROW(c.check(), Error);
}

}  // namespace
}  // namespace lisi::sparse
