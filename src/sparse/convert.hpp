// Conversions between the internal sparse storage formats.
//
// LISI's setupMatrix is, per §7.2, "an adapter to convert the input data
// format to the libraries' internal data structure and frees up users from
// doing it by their own".  That adapter (src/lisi/solver_base.cpp) decodes
// the MSR and VBR input layouts itself, straight into CSR, and assembles
// COO/FEM triplets with cooToCsr below.  The other converters serve the
// packages: CSC is the direct solver's native input.  Every converter to
// CSR produces canonical CSR (sorted columns, duplicates summed).
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

}  // namespace lisi::sparse
