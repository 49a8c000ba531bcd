// Central message-tag registry for every fixed point-to-point protocol in
// the repository.
//
// MiniMPI's tag space splits in two:
//
//   * User tags `[0, kMaxUserTag]` — available to applications and to the
//     library's own fixed protocols.  Every fixed protocol tag the library
//     uses is declared HERE, in one place, so a new protocol can claim a
//     value without grepping the tree for collisions (the static_asserts
//     below fail the build on overlap).
//   * Collective-internal tags `(kMaxUserTag, kMaxUserTag + 2^20]` — drawn
//     from a per-communicator sequence that all ranks advance in lockstep:
//     one per collective stage (the star allreduce, a reduce then a bcast,
//     draws two), and `Comm::reserveCollectiveTags()` blocks for long-lived
//     protocols (e.g. a matrix's rotating spmv halo tags).  Never hard-code
//     a value in this range.
//
// Rationale for the split: fixed tags identify a *protocol* (any two
// messages with the same fixed tag belong to the same exchange pattern and
// rely on per-pair FIFO ordering), while sequence tags identify a protocol
// *instance* (two overlapping allreduces must not cross-match even between
// the same rank pair, so each draws a fresh tag).
#pragma once

#include "comm/comm.hpp"

namespace lisi::comm::tags {

// ---- fixed protocol tags (user-tag space) ------------------------------

/// DistCsrMatrix::scatterFromRoot block shipping (row lengths, columns,
/// values travel as three FIFO-ordered messages per rank pair).
inline constexpr int kMatrixScatter = 701;

/// distMatMul SpGEMM row traffic (src/sparse/matmul.cpp).
inline constexpr int kMatMulRowFetch = 702;

/// One-time halo-plan index exchange in DistCsrMatrix::buildHaloPlan.
inline constexpr int kHaloPlan = 703;

/// Matrix-free stencil halo exchange (examples/matrix_free.cpp): boundary
/// rows shipped to the previous / next block-row neighbour.  Two tags, one
/// per direction, so the up- and down-travelling rows of one exchange never
/// cross-match between the same rank pair.
inline constexpr int kStencilHaloToPrev = 704;
inline constexpr int kStencilHaloToNext = 705;

// ---- reserved-block sizes (collective-internal space) ------------------

/// Tags each DistCsrMatrix reserves for its spmv ghost exchange; per-spmv
/// traffic rotates through the block so overlapping spmv rounds on one
/// communicator cannot cross-match (src/sparse/dist_csr.cpp).
inline constexpr int kSpmvTagRounds = 16;

// ---- collision guards --------------------------------------------------

namespace detail {
inline constexpr int kFixedTags[] = {kMatrixScatter, kMatMulRowFetch,
                                     kHaloPlan, kStencilHaloToPrev,
                                     kStencilHaloToNext};

/// Fixed protocol tags live in one contiguous registry block so an
/// application scanning this header can pick a clear value at a glance.
inline constexpr int kRegistryBlockFirst = 700;
inline constexpr int kRegistryBlockLast = 799;

constexpr bool allInUserRange() {
  for (const int t : kFixedTags) {
    if (t < 0 || t > kMaxUserTag) return false;
  }
  return true;
}

constexpr bool allInRegistryBlock() {
  for (const int t : kFixedTags) {
    if (t < kRegistryBlockFirst || t > kRegistryBlockLast) return false;
  }
  return true;
}

constexpr bool allDistinct() {
  const int n = static_cast<int>(sizeof(kFixedTags) / sizeof(kFixedTags[0]));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (kFixedTags[i] == kFixedTags[j]) return false;
    }
  }
  return true;
}
}  // namespace detail

static_assert(detail::allInUserRange(),
              "fixed protocol tags must lie in the user-tag space");
static_assert(detail::allDistinct(),
              "fixed protocol tags must be pairwise distinct");
static_assert(detail::allInRegistryBlock(),
              "fixed protocol tags must stay inside the registry block "
              "[700, 799] — claim the next free value, do not scatter");
static_assert(kSpmvTagRounds > 0, "spmv needs at least one reserved tag");
static_assert(detail::kRegistryBlockLast < kMaxUserTag,
              "the registry block must sit strictly inside user tag space");

}  // namespace lisi::comm::tags
