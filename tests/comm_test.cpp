// Tests for the MiniMPI substrate: point-to-point semantics, collectives,
// sub-communicators, failure propagation, and the long-handle registry.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <numeric>

#include "comm/comm.hpp"
#include "comm/comm_handle.hpp"

namespace lisi::comm {
namespace {

TEST(World, SingleRankRuns) {
  int observedSize = 0;
  World::run(1, [&](Comm& c) {
    EXPECT_EQ(c.rank(), 0);
    observedSize = c.size();
  });
  EXPECT_EQ(observedSize, 1);
}

TEST(World, RanksAreDistinct) {
  std::atomic<int> mask{0};
  World::run(4, [&](Comm& c) { mask.fetch_or(1 << c.rank()); });
  EXPECT_EQ(mask.load(), 0b1111);
}

TEST(World, ExceptionPropagatesToCaller) {
  EXPECT_THROW(
      World::run(3,
                 [](Comm& c) {
                   if (c.rank() == 1) throw Error("rank 1 failed");
                   // Other ranks block; the abort must wake them.
                   (void)c.recvBytes(kAnySource, 5);
                 }),
      Error);
}

TEST(World, OriginalExceptionPreferredOverAbortEchoes) {
  try {
    World::run(4, [](Comm& c) {
      if (c.rank() == 2) throw Error("genuine failure on rank 2");
      c.barrier();  // never completes
    });
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("genuine failure on rank 2"),
              std::string::npos);
  }
}

TEST(PointToPoint, SendRecvRoundTrip) {
  World::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      const std::vector<double> data{1.5, -2.5, 3.25};
      c.send(std::span<const double>(data), 1, 7);
    } else {
      std::vector<double> got(3);
      Status st;
      c.recv(std::span<double>(got), 0, 7, &st);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.bytes, 3 * sizeof(double));
      EXPECT_DOUBLE_EQ(got[0], 1.5);
      EXPECT_DOUBLE_EQ(got[2], 3.25);
    }
  });
}

TEST(PointToPoint, FifoOrderPerPair) {
  World::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 50; ++i) c.sendValue(i, 1, 3);
    } else {
      for (int i = 0; i < 50; ++i) EXPECT_EQ(c.recvValue<int>(0, 3), i);
    }
  });
}

TEST(PointToPoint, TagSelectivity) {
  World::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      c.sendValue(111, 1, 1);
      c.sendValue(222, 1, 2);
    } else {
      // Receive tag 2 first even though tag 1 arrived first.
      EXPECT_EQ(c.recvValue<int>(0, 2), 222);
      EXPECT_EQ(c.recvValue<int>(0, 1), 111);
    }
  });
}

TEST(PointToPoint, AnySourceAndAnyTag) {
  World::run(3, [](Comm& c) {
    if (c.rank() != 0) {
      c.sendValue(c.rank() * 10, 0, c.rank());
    } else {
      int sum = 0;
      for (int i = 0; i < 2; ++i) {
        Status st;
        sum += c.recvValue<int>(kAnySource, kAnyTag, &st);
        EXPECT_EQ(st.tag, st.source);  // we tagged with the sender rank
      }
      EXPECT_EQ(sum, 30);
    }
  });
}

TEST(PointToPoint, ZeroLengthMessage) {
  World::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      c.sendBytes(nullptr, 0, 1, 9);
    } else {
      Status st;
      auto bytes = c.recvBytes(0, 9, &st);
      EXPECT_TRUE(bytes.empty());
      EXPECT_EQ(st.bytes, 0u);
    }
  });
}

TEST(PointToPoint, RecvVectorUnknownSize) {
  World::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> data(17);
      std::iota(data.begin(), data.end(), 0);
      c.send(std::span<const int>(data), 1, 4);
    } else {
      auto got = c.recvVector<int>(0, 4);
      ASSERT_EQ(got.size(), 17u);
      EXPECT_EQ(got[16], 16);
    }
  });
}

TEST(PointToPoint, SizeMismatchThrows) {
  EXPECT_THROW(World::run(2,
                          [](Comm& c) {
                            if (c.rank() == 0) {
                              c.sendValue(1.0, 1, 2);
                            } else {
                              std::vector<double> buf(5);
                              c.recv(std::span<double>(buf), 0, 2);
                            }
                          }),
               Error);
}

TEST(PointToPoint, SelfSendWorks) {
  World::run(1, [](Comm& c) {
    c.sendValue(42, 0, 0);
    EXPECT_EQ(c.recvValue<int>(0, 0), 42);
  });
}

class CollectiveP : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveP, Barrier) {
  const int p = GetParam();
  std::atomic<int> entered{0};
  World::run(p, [&](Comm& c) {
    entered.fetch_add(1);
    c.barrier();
    // After the barrier every rank must have entered.
    EXPECT_EQ(entered.load(), p);
    c.barrier();
  });
}

TEST_P(CollectiveP, BcastFromEveryRoot) {
  const int p = GetParam();
  World::run(p, [&](Comm& c) {
    for (int root = 0; root < p; ++root) {
      std::vector<int> data(4, c.rank() == root ? root + 100 : -1);
      c.bcast(std::span<int>(data), root);
      for (int v : data) EXPECT_EQ(v, root + 100);
    }
  });
}

TEST_P(CollectiveP, AllreduceSumMatchesFormula) {
  const int p = GetParam();
  World::run(p, [&](Comm& c) {
    const double mine = c.rank() + 1.0;
    const double sum = c.allreduceValue(mine, ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(sum, p * (p + 1) / 2.0);
    EXPECT_DOUBLE_EQ(c.allreduceValue(mine, ReduceOp::kMax), p);
    EXPECT_DOUBLE_EQ(c.allreduceValue(mine, ReduceOp::kMin), 1.0);
  });
}

TEST_P(CollectiveP, ReduceVectorOnRoot) {
  const int p = GetParam();
  World::run(p, [&](Comm& c) {
    std::vector<long long> in{c.rank(), 2LL * c.rank()};
    std::vector<long long> out(2, -1);
    c.reduce(std::span<const long long>(in), std::span<long long>(out),
             ReduceOp::kSum, 0);
    if (c.rank() == 0) {
      const long long s = 1LL * p * (p - 1) / 2;
      EXPECT_EQ(out[0], s);
      EXPECT_EQ(out[1], 2 * s);
    }
  });
}

TEST_P(CollectiveP, GathervConcatenatesByRank) {
  const int p = GetParam();
  World::run(p, [&](Comm& c) {
    // Rank r contributes r+1 copies of the value r.
    std::vector<int> mine(static_cast<std::size_t>(c.rank()) + 1, c.rank());
    std::vector<int> counts;
    auto all = c.gatherv(std::span<const int>(mine), 0, &counts);
    if (c.rank() == 0) {
      ASSERT_EQ(counts.size(), static_cast<std::size_t>(p));
      std::size_t pos = 0;
      for (int r = 0; r < p; ++r) {
        EXPECT_EQ(counts[static_cast<std::size_t>(r)], r + 1);
        for (int k = 0; k <= r; ++k) EXPECT_EQ(all[pos++], r);
      }
      EXPECT_EQ(pos, all.size());
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST_P(CollectiveP, AllgathervGivesEveryoneEverything) {
  const int p = GetParam();
  World::run(p, [&](Comm& c) {
    const int mine = 7 * c.rank();
    auto all = c.allgatherv(std::span<const int>(&mine, 1), nullptr);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) EXPECT_EQ(all[static_cast<std::size_t>(r)], 7 * r);
  });
}

TEST_P(CollectiveP, ScattervDistributesChunks) {
  const int p = GetParam();
  World::run(p, [&](Comm& c) {
    std::vector<double> all;
    std::vector<int> counts(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      counts[static_cast<std::size_t>(r)] = r + 1;
      for (int k = 0; k <= r; ++k) all.push_back(r + 0.5);
    }
    auto mine = c.scatterv(
        std::span<const double>(c.rank() == 0 ? all : std::vector<double>{}),
        std::span<const int>(counts), 0);
    ASSERT_EQ(mine.size(), static_cast<std::size_t>(c.rank()) + 1);
    for (double v : mine) EXPECT_DOUBLE_EQ(v, c.rank() + 0.5);
  });
}

TEST_P(CollectiveP, GatherScatterFixedSizeRoundTrip) {
  const int p = GetParam();
  World::run(p, [&](Comm& c) {
    for (int root = 0; root < p; ++root) {
      // gather: rank r contributes {r, r+0.5}.
      const std::vector<double> mine{1.0 * c.rank(), c.rank() + 0.5};
      std::vector<double> all(c.rank() == root ? 2 * static_cast<std::size_t>(p)
                                               : 0);
      c.gather(std::span<const double>(mine), std::span<double>(all), root);
      if (c.rank() == root) {
        for (int r = 0; r < p; ++r) {
          EXPECT_DOUBLE_EQ(all[2 * static_cast<std::size_t>(r)], r);
          EXPECT_DOUBLE_EQ(all[2 * static_cast<std::size_t>(r) + 1], r + 0.5);
        }
      }
      // scatter the gathered data straight back.
      std::vector<double> back(2, -1.0);
      c.scatter(std::span<const double>(all), std::span<double>(back), root);
      EXPECT_DOUBLE_EQ(back[0], c.rank());
      EXPECT_DOUBLE_EQ(back[1], c.rank() + 0.5);
    }
  });
}

TEST_P(CollectiveP, EmptySpansAreLegal) {
  const int p = GetParam();
  World::run(p, [&](Comm& c) {
    std::vector<double> nothing;
    c.bcast(std::span<double>(nothing), 0);
    c.reduce(std::span<const double>(nothing), std::span<double>(nothing),
             ReduceOp::kSum, 0);
    c.allreduce(std::span<const double>(nothing), std::span<double>(nothing),
                ReduceOp::kSum);
    c.gather(std::span<const double>(nothing), std::span<double>(nothing), 0);
    c.scatter(std::span<const double>(nothing), std::span<double>(nothing), 0);
    std::vector<int> counts;
    const auto all = c.allgatherv(std::span<const double>(nothing), &counts);
    EXPECT_TRUE(all.empty());
    ASSERT_EQ(counts.size(), static_cast<std::size_t>(p));
    for (int n : counts) EXPECT_EQ(n, 0);
    // A rank count-sized sanity op afterwards proves nothing deadlocked.
    EXPECT_EQ(c.allreduceValue(1, ReduceOp::kSum), p);
  });
}

TEST_P(CollectiveP, AllgathervWithSomeEmptyContributions) {
  const int p = GetParam();
  World::run(p, [&](Comm& c) {
    // Even ranks contribute nothing; odd ranks contribute rank copies.
    std::vector<int> mine;
    if (c.rank() % 2 == 1) {
      mine.assign(static_cast<std::size_t>(c.rank()), c.rank());
    }
    std::vector<int> counts;
    const auto all = c.allgatherv(std::span<const int>(mine), &counts);
    std::size_t pos = 0;
    for (int r = 0; r < p; ++r) {
      const int expected = r % 2 == 1 ? r : 0;
      EXPECT_EQ(counts[static_cast<std::size_t>(r)], expected);
      for (int k = 0; k < expected; ++k) EXPECT_EQ(all[pos++], r);
    }
    EXPECT_EQ(pos, all.size());
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveP,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8));

TEST(Collectives, ReserveCollectiveTagsAgreeAcrossRanks) {
  World::run(4, [](Comm& c) {
    const std::vector<int> tags = c.reserveCollectiveTags(8);
    ASSERT_EQ(tags.size(), 8u);
    for (int t : tags) EXPECT_GT(t, kMaxUserTag);
    // Every rank must hold the same block: compare against rank 0's copy.
    std::vector<int> ref = tags;
    c.bcast(std::span<int>(ref), 0);
    EXPECT_EQ(ref, tags);
    // Reserved tags work for point-to-point traffic.
    if (c.rank() == 0) {
      c.sendValue(41, 1, tags[3]);
    } else if (c.rank() == 1) {
      EXPECT_EQ(c.recvValue<int>(0, tags[3]), 41);
    }
    c.barrier();
  });
}

/// RAII pin of the collective schedule family; restores kAuto on exit.
class ScheduleGuard {
 public:
  explicit ScheduleGuard(CollectiveSchedule s) { setCollectiveSchedule(s); }
  ~ScheduleGuard() { setCollectiveSchedule(CollectiveSchedule::kAuto); }
};

class ScheduleP : public ::testing::TestWithParam<int> {};

TEST_P(ScheduleP, BothFamiliesRunEveryCollective) {
  const int p = GetParam();
  for (const CollectiveSchedule sched :
       {CollectiveSchedule::kTree, CollectiveSchedule::kStar}) {
    ScheduleGuard guard(sched);
    World::run(p, [&](Comm& c) {
      EXPECT_EQ(c.bcastValue(c.rank() == p - 1 ? 2.5 : 0.0, p - 1), 2.5);
      const int root = p / 2;
      const long mine = c.rank() + 1;
      std::vector<long> out(1, 0);
      c.reduce(std::span<const long>(&mine, 1), std::span<long>(out),
               ReduceOp::kSum, root);
      if (c.rank() == root) {
        EXPECT_EQ(out[0], static_cast<long>(p) * (p + 1) / 2);
      }
      EXPECT_EQ(c.allreduceValue(c.rank() + 1, ReduceOp::kSum),
                p * (p + 1) / 2);
      EXPECT_EQ(c.allreduceValue(c.rank(), ReduceOp::kMax), p - 1);
      std::vector<int> chunk(static_cast<std::size_t>(c.rank() + 1),
                             c.rank());
      std::vector<int> counts;
      const auto all = c.allgatherv(std::span<const int>(chunk), &counts);
      std::size_t pos = 0;
      for (int r = 0; r < p; ++r) {
        EXPECT_EQ(counts[static_cast<std::size_t>(r)], r + 1);
        for (int k = 0; k <= r; ++k) EXPECT_EQ(all[pos++], r);
      }
      EXPECT_EQ(pos, all.size());
      c.barrier();
    });
  }
}

TEST_P(ScheduleP, FamiliesAgreeOnIntegerReductions) {
  // Integer sums are exact regardless of association order, so the two
  // families must produce identical results.
  const int p = GetParam();
  long tree = 0;
  long star = 0;
  {
    ScheduleGuard guard(CollectiveSchedule::kTree);
    World::run(p, [&](Comm& c) {
      const long v = c.allreduceValue(static_cast<long>(c.rank()) * c.rank(),
                                      ReduceOp::kSum);
      if (c.rank() == 0) tree = v;
    });
  }
  {
    ScheduleGuard guard(CollectiveSchedule::kStar);
    World::run(p, [&](Comm& c) {
      const long v = c.allreduceValue(static_cast<long>(c.rank()) * c.rank(),
                                      ReduceOp::kSum);
      if (c.rank() == 0) star = v;
    });
  }
  EXPECT_EQ(tree, star);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScheduleP, ::testing::Values(1, 2, 3, 5, 8));

TEST(Split, EvenOddGroups) {
  World::run(4, [](Comm& c) {
    Comm sub = c.split(c.rank() % 2, c.rank());
    ASSERT_TRUE(sub.valid());
    EXPECT_EQ(sub.size(), 2);
    EXPECT_EQ(sub.rank(), c.rank() / 2);
    // Communication inside the sub-communicator is isolated.
    const int sum = sub.allreduceValue(c.rank(), ReduceOp::kSum);
    EXPECT_EQ(sum, c.rank() % 2 == 0 ? 0 + 2 : 1 + 3);
  });
}

TEST(Split, KeyControlsOrdering) {
  World::run(3, [](Comm& c) {
    // Reverse the ranks via the key.
    Comm sub = c.split(0, -c.rank());
    EXPECT_EQ(sub.rank(), c.size() - 1 - c.rank());
  });
}

TEST(Split, NegativeColorOptsOut) {
  World::run(3, [](Comm& c) {
    Comm sub = c.split(c.rank() == 0 ? -1 : 5, c.rank());
    if (c.rank() == 0) {
      EXPECT_FALSE(sub.valid());
    } else {
      ASSERT_TRUE(sub.valid());
      EXPECT_EQ(sub.size(), 2);
    }
  });
}

TEST(Split, DupIsolatesTraffic) {
  World::run(2, [](Comm& c) {
    Comm d = c.dup();
    if (c.rank() == 0) {
      c.sendValue(1, 1, 5);
      d.sendValue(2, 1, 5);
    } else {
      // Same tag, same peer — the dup'd context must keep them apart.
      EXPECT_EQ(d.recvValue<int>(0, 5), 2);
      EXPECT_EQ(c.recvValue<int>(0, 5), 1);
    }
  });
}

TEST(Split, NestedSplitOfSplit) {
  World::run(8, [](Comm& c) {
    Comm half = c.split(c.rank() / 4, c.rank());  // two groups of 4
    ASSERT_EQ(half.size(), 4);
    Comm quarter = half.split(half.rank() / 2, half.rank());  // groups of 2
    ASSERT_EQ(quarter.size(), 2);
    const int sum = quarter.allreduceValue(1, ReduceOp::kSum);
    EXPECT_EQ(sum, 2);
  });
}

TEST(Split, TagWindowsAndPinsArePerSession) {
  World::run(4, [](Comm& c) {
    const int session = c.rank() / 2;
    Comm sub = c.split(session, c.rank() % 2);
    sub.setLabel("session" + std::to_string(session));
    // Children inherit the parent window at creation...
    const int parentWindow = c.collectiveTagWindow();
    EXPECT_EQ(sub.collectiveTagWindow(), parentWindow);
    // ...then tune independently: each session picks its own window and
    // schedule pin; the parent and the sibling session stay untouched.
    sub.setCollectiveTagWindow(session == 0 ? 64 : 128);
    sub.pinCollectiveSchedule(session == 0 ? CollectiveSchedule::kTree
                                           : CollectiveSchedule::kStar);
    EXPECT_EQ(sub.collectiveTagWindow(), session == 0 ? 64 : 128);
    EXPECT_EQ(c.collectiveTagWindow(), parentWindow);
    EXPECT_EQ(sub.label(), "session" + std::to_string(session));
    EXPECT_EQ(sub.pinnedCollectiveSchedule(),
              session == 0 ? CollectiveSchedule::kTree
                           : CollectiveSchedule::kStar);
    // Both sessions run collectives concurrently, wrapping the smaller
    // window several times — isolation means no cross-session tag clash.
    for (int i = 0; i < 200; ++i) {
      ASSERT_EQ(sub.allreduceValue(1, ReduceOp::kSum), 2);
    }
    // The parent still works afterwards under its own window.
    EXPECT_EQ(c.allreduceValue(1, ReduceOp::kSum), 4);
  });
}

TEST(Split, UnevenGroupsRunFullCollectives) {
  World::run(7, [](Comm& c) {
    // Groups of 3 and 4 — both non-power-of-two relative to the parent.
    const int color = c.rank() < 3 ? 0 : 1;
    Comm sub = c.split(color, c.rank());
    ASSERT_TRUE(sub.valid());
    const int q = sub.size();
    ASSERT_EQ(q, color == 0 ? 3 : 4);
    // Logarithmic schedules must work on the sub-communicator.
    const int sum = sub.allreduceValue(sub.rank() + 1, ReduceOp::kSum);
    EXPECT_EQ(sum, q * (q + 1) / 2);
    const int fromLast = sub.bcastValue(sub.rank() * 11, q - 1);
    EXPECT_EQ(fromLast, (q - 1) * 11);
    const auto all =
        sub.allgatherv(std::span<const int>(&sum, 1), nullptr);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(q));
    for (int v : all) EXPECT_EQ(v, sum);
    sub.barrier();
  });
}

TEST(Handles, RegistryRoundTrip) {
  World::run(2, [](Comm& c) {
    const long h = registerHandle(c);
    Comm back = commFromHandle(h);
    EXPECT_EQ(back.rank(), c.rank());
    EXPECT_EQ(back.size(), 2);
    // The returned handle still names the same communicator: message test.
    if (c.rank() == 0) {
      back.sendValue(99, 1, 8);
    } else {
      EXPECT_EQ(c.recvValue<int>(0, 8), 99);
    }
    releaseHandle(h);
  });
}

TEST(Handles, UnknownHandleThrows) {
  EXPECT_THROW((void)commFromHandle(987654321L), Error);
}

TEST(Handles, ReleaseRemoves) {
  World::run(1, [](Comm& c) {
    const std::size_t before = liveHandleCount();
    const long h = registerHandle(c);
    EXPECT_EQ(liveHandleCount(), before + 1);
    releaseHandle(h);
    EXPECT_EQ(liveHandleCount(), before);
    EXPECT_THROW((void)commFromHandle(h), Error);
  });
}

TEST(Stress, ManyConcurrentPairsExchange) {
  World::run(8, [](Comm& c) {
    // Every rank sends to every other rank and receives from everyone.
    for (int dst = 0; dst < c.size(); ++dst) {
      if (dst == c.rank()) continue;
      c.sendValue(c.rank() * 100 + dst, dst, 12);
    }
    int total = 0;
    for (int src = 0; src < c.size(); ++src) {
      if (src == c.rank()) continue;
      const int v = c.recvValue<int>(src, 12);
      EXPECT_EQ(v, src * 100 + c.rank());
      ++total;
    }
    EXPECT_EQ(total, c.size() - 1);
  });
}

}  // namespace
}  // namespace lisi::comm
