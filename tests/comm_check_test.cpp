// Seeded-violation tests for the LISI_COMM_CHECK verifier: each test commits
// one deliberate crime against the MiniMPI contract and asserts that the
// checker aborts the world with a diagnostic naming the offense.  On a build
// configured without -DLISI_COMM_CHECK=ON every test skips (the hooks do not
// exist, and several of the seeded programs would otherwise only die by recv
// timeout).
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "support/error.hpp"

namespace lisi {
namespace {

using comm::Comm;
using comm::World;

// Every seeded program here is expected to die by checker diagnosis, not by
// waiting out the recv timeout — shrink it so a missed detection fails the
// test in seconds.  Set before main() so the first World::run already sees it.
const bool kShortTimeout = [] {
  setenv("LISI_COMM_TIMEOUT_SEC", "5", 1);
  return true;
}();

#define SKIP_IF_UNCHECKED()                                           \
  if (!comm::check::enabled()) {                                      \
    GTEST_SKIP() << "lisi_comm built without LISI_COMM_CHECK";        \
  }                                                                   \
  static_assert(true, "")

/// Run `body` on `nranks` ranks and return the diagnostic of the Error that
/// World::run surfaces.  Fails the test if the world finishes cleanly.
std::string runExpectViolation(int nranks,
                               const std::function<void(Comm&)>& body) {
  try {
    World::run(nranks, body);
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected a checker violation at " << nranks
                << " ranks, but World::run returned cleanly";
  return {};
}

void expectContains(const std::string& msg, const std::string& needle) {
  EXPECT_NE(msg.find(needle), std::string::npos)
      << "diagnostic missing \"" << needle << "\": " << msg;
}

// ---- 1. lockstep collective verification -------------------------------

TEST(CommCheck, LockstepMismatchDiagnosed) {
  SKIP_IF_UNCHECKED();
  for (const int nranks : {2, 4}) {
    const std::string msg = runExpectViolation(nranks, [](Comm& c) {
      if (c.rank() == 0) {
        // lisi-lint: allow(rank-branch) seeded violation: this test exists to provoke the runtime lockstep diagnostic
        (void)c.bcastValue(1, 0);  // everyone else reduces: divergent stream
      } else {
        // lisi-lint: allow(rank-branch) seeded violation (divergent arm of the same seeded mismatch)
        (void)c.allreduceValue(1.0, comm::ReduceOp::kSum);
      }
    });
    expectContains(msg, "lockstep collective mismatch");
    expectContains(msg, "history");  // both call sites' recent streams shown
  }
}

TEST(CommCheck, LockstepPayloadSizeMismatchDiagnosed) {
  SKIP_IF_UNCHECKED();
  for (const int nranks : {2, 4}) {
    const std::string msg = runExpectViolation(nranks, [](Comm& c) {
      // Same collective, same op — but rank 0 contributes a different
      // payload size, which would cross-match buffers mid-schedule.
      std::vector<double> in(c.rank() == 0 ? 3 : 2, 1.0);
      std::vector<double> out(in.size());
      c.allreduce(std::span<const double>(in), std::span<double>(out),
                  comm::ReduceOp::kSum);
    });
    expectContains(msg, "lockstep collective mismatch");
  }
}

// ---- 2. wait-for-graph deadlock detection -------------------------------

TEST(CommCheck, RecvRecvCycleDiagnosed) {
  SKIP_IF_UNCHECKED();
  for (const int nranks : {2, 4}) {
    const std::string msg = runExpectViolation(nranks, [](Comm& c) {
      // Partner pairs (0<->1, 2<->3) each recv from the other first: the
      // smallest closed wait set, diagnosed at the second rank's beginWait
      // instead of hanging until the recv timeout.
      (void)c.recvBytes(c.rank() ^ 1, 5);
    });
    expectContains(msg, "deadlock detected");
    expectContains(msg, "blocked in recv");
  }
}

// ---- 3. tag-space lint --------------------------------------------------

TEST(CommCheck, TagBeyondTagSpaceDiagnosed) {
  SKIP_IF_UNCHECKED();
  // Beyond even the collective tag window: not a tag any schedule can issue.
  const int wildTag = comm::kMaxUserTag + (1 << 20) + 1;
  for (const int nranks : {2, 4}) {
    const std::string msg = runExpectViolation(nranks, [&](Comm& c) {
      if (c.rank() == 0) {
        c.sendValue(1, 1, wildTag);
      } else {
        (void)c.recvBytes(0, 7);  // woken by the abort
      }
    });
    expectContains(msg, "outside the tag space");
  }
}

TEST(CommCheck, SendIntoCollectiveTagSpaceDiagnosed) {
  SKIP_IF_UNCHECKED();
  // Inside the collective window but never issued to a schedule and never
  // reserved: a stray send that could corrupt a collective in flight.
  const int strayTag = comm::kMaxUserTag + 10;
  for (const int nranks : {2, 4}) {
    const std::string msg = runExpectViolation(nranks, [&](Comm& c) {
      if (c.rank() == 0) {
        c.sendValue(1, 1, strayTag);
      } else {
        (void)c.recvBytes(0, 7);  // woken by the abort
      }
    });
    expectContains(msg, "reserved collective tag space");
    expectContains(msg, "reserveCollectiveTags()");
  }
}

TEST(CommCheck, ReservedBlockSendIsLegal) {
  SKIP_IF_UNCHECKED();
  // Control for the stray-send lint: the identical send is legal once the
  // tag comes from a reserveCollectiveTags() block.
  for (const int nranks : {2, 4}) {
    World::run(nranks, [](Comm& c) {
      const std::vector<int> block = c.reserveCollectiveTags(4);
      if (c.rank() == 0) {
        c.sendValue(42, 1, block[2]);
      } else if (c.rank() == 1) {
        EXPECT_EQ(c.recvValue<int>(0, block[2]), 42);
      }
      c.barrier();
    });
  }
}

/// RAII guard: shrink the collective tag window for the enclosed worlds so
/// the seq->tag wrap happens after a handful of collectives instead of 2^20.
/// The window is read per WorldContext construction, so setting the env var
/// here affects exactly the worlds started inside the test body.
class TagWindowGuard {
 public:
  explicit TagWindowGuard(int window) {
    setenv("LISI_COMM_TAG_WINDOW", std::to_string(window).c_str(), 1);
  }
  ~TagWindowGuard() { unsetenv("LISI_COMM_TAG_WINDOW"); }
  TagWindowGuard(const TagWindowGuard&) = delete;
  TagWindowGuard& operator=(const TagWindowGuard&) = delete;
};

TEST(CommCheck, WrapIntoReservedBlockDiagnosed) {
  SKIP_IF_UNCHECKED();
  // Reserve a block right at the start of the window, then run enough
  // collectives that the rotating sequence wraps around and would hand a
  // schedule a tag inside the still-reserved block.
  const TagWindowGuard guard(64);
  for (const int nranks : {2, 4}) {
    const std::string msg = runExpectViolation(nranks, [](Comm& c) {
      (void)c.reserveCollectiveTags(8);  // seq 0..7: block at window start
      for (int i = 8; i < 64; ++i) c.barrier();  // seq 8..63
      c.barrier();  // seq 64 wraps to the reserved first slot
    });
    expectContains(msg, "wrapped into a reserved block");
    expectContains(msg, "reserveCollectiveTags");
  }
}

TEST(CommCheck, ReservationWrapOverlapDiagnosed) {
  SKIP_IF_UNCHECKED();
  // Two reservations whose tag ranges collide after the window wraps: the
  // second starts at a different first tag but covers part of the first
  // block, which the checker must reject (an identical re-reservation of
  // the same block is the one legal case, so the blocks are offset here).
  const TagWindowGuard guard(64);
  for (const int nranks : {2, 4}) {
    const std::string msg = runExpectViolation(nranks, [](Comm& c) {
      for (int i = 0; i < 4; ++i) c.barrier();  // seq 0..3
      (void)c.reserveCollectiveTags(8);         // seq 4..11: block [W+4, W+12)
      for (int i = 12; i < 64; ++i) c.barrier();  // seq 12..63
      // seq 64..71 wraps to [W+0, W+8): overlaps the live block above.
      (void)c.reserveCollectiveTags(8);
    });
    expectContains(msg, "reserveCollectiveTags overlap");
  }
}

// ---- enabled() reporting -------------------------------------------------

TEST(CommCheck, CheckedBuildReportsEnabled) {
  // Not skipped: on either configuration this documents which library the
  // test binary linked, and the seeded tests above key off the same value.
  EXPECT_EQ(comm::check::enabled(), comm::check::enabled());
}

}  // namespace
}  // namespace lisi
