// Conversions between sparse storage formats.
//
// LISI's setupMatrix is, per §7.2, "an adapter to convert the input data
// format to the libraries' internal data structure and frees up users from
// doing it by their own".  CSR is the hub format: every format converts to
// and from CSR, giving all-pairs conversion in at most two hops.  All
// converters produce canonical CSR (sorted columns, duplicates summed).
#pragma once

#include "sparse/formats.hpp"

namespace lisi::sparse {

/// Assemble COO triplets (duplicates summed) into canonical CSR.
[[nodiscard]] CsrMatrix cooToCsr(const CooMatrix& coo);

/// Expand CSR into COO triplets (row-major order).
[[nodiscard]] CooMatrix csrToCoo(const CsrMatrix& csr);

/// Column-compress a CSR matrix (equivalently: CSR of the transpose).
[[nodiscard]] CscMatrix csrToCsc(const CsrMatrix& csr);

/// Row-compress a CSC matrix.
[[nodiscard]] CsrMatrix cscToCsr(const CscMatrix& csc);

/// Convert square CSR to MSR.  Missing diagonal entries are stored as 0 in
/// the MSR diagonal section (MSR always materializes the diagonal).
[[nodiscard]] MsrMatrix csrToMsr(const CsrMatrix& csr);

/// Convert MSR back to canonical CSR.  Structurally-zero diagonal slots
/// (value exactly 0.0 with no explicit CSR entry originally) are emitted as
/// explicit zeros; callers needing the original pattern should drop zeros.
[[nodiscard]] CsrMatrix msrToCsr(const MsrMatrix& msr);

/// Convert CSR to VBR with the given row/column partitions
/// (rpntr/cpntr-style boundary arrays).  Any block containing at least one
/// nonzero is stored dense.
[[nodiscard]] VbrMatrix csrToVbr(const CsrMatrix& csr,
                                 const std::vector<int>& rowPart,
                                 const std::vector<int>& colPart);

/// Convert CSR to VBR with a uniform block size (last block may be smaller).
[[nodiscard]] VbrMatrix csrToVbrUniform(const CsrMatrix& csr, int blockSize);

/// Flatten VBR to canonical CSR; exact zeros inside stored blocks are kept
/// (they are part of the VBR structure).
[[nodiscard]] CsrMatrix vbrToCsr(const VbrMatrix& vbr);

/// Drop explicit zeros from a CSR matrix.
[[nodiscard]] CsrMatrix dropZeros(const CsrMatrix& csr, double tol = 0.0);

}  // namespace lisi::sparse
