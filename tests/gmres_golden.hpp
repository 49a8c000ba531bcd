// Shared inputs for the GMRES golden pins of pksp_test and aztec_test: a
// cyclic shift operator, whose Krylov vectors are exact unit vectors, and a
// hash of a solution's bits.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>

#include "sparse/formats.hpp"

namespace lisi::testref {

/// The n x n cyclic shift S e_j = e_{(j+1) mod n}: row i holds one 1 in
/// column (i - 1) mod n.  GMRES with no preconditioner on S and b = e_0
/// stagnates for n - 1 steps, and step n - 1 cancels exactly to zero (a
/// lucky breakdown); a right-hand side of period d < n closes its Krylov
/// space after d steps.
inline sparse::CsrMatrix cyclicShift(int n) {
  sparse::CsrMatrix s;
  s.rows = n;
  s.cols = n;
  for (int i = 0; i <= n; ++i) s.rowPtr.push_back(i);
  for (int i = 0; i < n; ++i) {
    s.colIdx.push_back((i + n - 1) % n);
    s.values.push_back(1.0);
  }
  return s;
}

/// 64-bit FNV-1a over the bits of `v`.
inline std::uint64_t hashBits(std::span<const double> v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double d : v) {
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof u);
    for (int b = 0; b < 8; ++b) {
      h = (h ^ ((u >> (8 * b)) & 0xffU)) * 0x100000001b3ULL;
    }
  }
  return h;
}

}  // namespace lisi::testref
