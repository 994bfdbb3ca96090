// BoundedSpscQueue stress: millions of items through both backpressure
// policies with randomized producer/consumer stalls. Runs in the slow lane
// and under the TSan CI job, where the randomized interleavings give the
// sanitizer real schedules to chew on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "gateway/spsc_queue.hpp"
#include "util/rng.hpp"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CHOIR_TSAN 1
#endif
#endif
#if !defined(CHOIR_TSAN) && defined(__SANITIZE_THREAD__)
#define CHOIR_TSAN 1
#endif

namespace choir {
namespace {

using gateway::BoundedSpscQueue;
using gateway::OverflowPolicy;

// TSan multiplies per-op cost ~10x; keep its wall time comparable.
#if defined(CHOIR_TSAN)
constexpr std::uint64_t kItems = 2'000'000;
#else
constexpr std::uint64_t kItems = 4'000'000;
#endif

// Sparse randomized stalls: mostly full speed, occasionally yield, rarely
// sleep — enough scheduling noise to shake out ordering assumptions
// without turning the test into a sleep marathon.
void maybe_stall(Rng& rng) {
  const int r = rng.uniform_int(0, 9999);
  if (r < 20) {
    std::this_thread::sleep_for(std::chrono::microseconds(rng.uniform_int(1, 50)));
  } else if (r < 120) {
    std::this_thread::yield();
  }
}

TEST(BoundedQueueStress, BlockPolicyDeliversEverySequenceInOrder) {
  BoundedSpscQueue<std::uint64_t> q(1024, OverflowPolicy::kBlock);

  std::thread producer([&] {
    Rng rng(1001);
    for (std::uint64_t i = 0; i < kItems; ++i) {
      ASSERT_TRUE(q.push(i));
      maybe_stall(rng);
    }
    q.close();
  });

  Rng rng(2002);
  std::uint64_t expected = 0;
  while (auto item = q.pop()) {
    ASSERT_EQ(*item, expected) << "reordered or lost under kBlock";
    ++expected;
    maybe_stall(rng);
  }
  producer.join();

  EXPECT_EQ(expected, kItems);
  EXPECT_EQ(q.dropped(), 0u);
  EXPECT_LE(q.high_water(), q.capacity());
  EXPECT_GE(q.high_water(), 1u);
}

TEST(BoundedQueueStress, DropNewestAccountsForEveryItem) {
  BoundedSpscQueue<std::uint64_t> q(64, OverflowPolicy::kDropNewest);

  std::atomic<std::uint64_t> accepted{0};
  std::thread producer([&] {
    Rng rng(3003);
    std::uint64_t ok = 0;
    for (std::uint64_t i = 0; i < kItems; ++i) {
      if (q.push(i)) ++ok;
      maybe_stall(rng);
    }
    accepted.store(ok);
    q.close();
  });

  // Deliberately slower consumer so the queue actually overflows.
  Rng rng(4004);
  std::uint64_t popped = 0;
  std::uint64_t last = 0;
  bool first = true;
  while (auto item = q.pop()) {
    // Dropping the newest keeps the survivors a strictly increasing
    // subsequence of the produced sequence.
    if (!first) {
      ASSERT_GT(*item, last) << "reordered under kDropNewest";
    }
    last = *item;
    first = false;
    ++popped;
    if (rng.uniform_int(0, 99) < 30) std::this_thread::yield();
  }
  producer.join();

  // Conservation: every produced item was either accepted (and popped —
  // the consumer drained the queue) or counted as dropped.
  EXPECT_EQ(popped, accepted.load());
  EXPECT_EQ(accepted.load() + q.dropped(), kItems);
  EXPECT_GT(q.dropped(), 0u) << "consumer never fell behind; stress too weak";
  EXPECT_LE(q.high_water(), q.capacity());
}

TEST(BoundedQueueStress, CloseWhileStreamingNeverLosesPoppedPrefix) {
  // Producer closes mid-stream at a random point; whatever the consumer got
  // must still be the exact prefix 0..n-1.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    BoundedSpscQueue<std::uint64_t> q(32, OverflowPolicy::kBlock);
    std::thread producer([&] {
      Rng rng(5000 + seed);
      const auto stop_at =
          static_cast<std::uint64_t>(rng.uniform_int(10'000, 200'000));
      for (std::uint64_t i = 0; i < stop_at; ++i) {
        if (!q.push(i)) break;
      }
      q.close();
    });
    std::uint64_t expected = 0;
    while (auto item = q.pop()) {
      ASSERT_EQ(*item, expected);
      ++expected;
    }
    producer.join();
    EXPECT_GT(expected, 0u);
  }
}

}  // namespace
}  // namespace choir
