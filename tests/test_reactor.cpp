// Reactor subsystem tests: the message ring's visibility/drop
// semantics, poller and timed-poller dispatch, one-shot timers, and
// run_until_idle's clock-forwarding.
#include <gtest/gtest.h>

#include "vfpga/reactor/reactor.hpp"

namespace vfpga::reactor {
namespace {

struct ReactorFixture : ::testing::Test {
  sim::Xoshiro256 rng{42};
  sim::NoiseModel quiet{sim::NoiseConfig{.enabled = false}};
  hostos::CostModelConfig costs = hostos::CostModelConfig::fedora_defaults();
  hostos::HostThread thread{rng, costs, quiet};
  Reactor reactor{{.id = 1}, thread};
};

// ---- message ring ---------------------------------------------------------

TEST(MessageRing, CapacityRoundsUpAndDropsWhenFull) {
  MessageRing ring{3};
  EXPECT_EQ(ring.capacity(), 4u);
  for (u32 i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.try_push([] {}, sim::SimTime{}));
  }
  EXPECT_TRUE(ring.full());
  EXPECT_FALSE(ring.try_push([] {}, sim::SimTime{}));
  EXPECT_EQ(ring.dropped_full(), 1u);
  EXPECT_EQ(ring.enqueued(), 4u);
  EXPECT_EQ(ring.high_watermark(), 4u);
}

TEST(MessageRing, InvisibleHeadBlocksFifoOrder) {
  MessageRing ring{4};
  int ran = 0;
  // Head posted "in the future" (producer core ahead of the consumer);
  // the visible message behind it must NOT overtake — FIFO means the
  // consumer advances its clock instead.
  ASSERT_TRUE(ring.try_push([&] { ran = 1; }, sim::SimTime{100}));
  ASSERT_TRUE(ring.try_push([&] { ran = 2; }, sim::SimTime{0}));
  EXPECT_FALSE(ring.try_pop(sim::SimTime{50}).has_value());
  ASSERT_TRUE(ring.next_visible_at().has_value());
  EXPECT_EQ(ring.next_visible_at()->picos(), 100);

  auto head = ring.try_pop(sim::SimTime{100});
  ASSERT_TRUE(head.has_value());
  (*head)();
  EXPECT_EQ(ran, 1);
  auto second = ring.try_pop(sim::SimTime{100});
  ASSERT_TRUE(second.has_value());
  (*second)();
  EXPECT_EQ(ran, 2);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.dequeued(), 2u);
}

// ---- pollers --------------------------------------------------------------

TEST_F(ReactorFixture, PollerRunsEveryIterationWithStats) {
  u32 runs = 0;
  reactor.register_poller("count", [&](sim::SimTime) {
    ++runs;
    return runs <= 2;  // busy twice, then dry
  });
  const sim::SimTime start = thread.now();
  for (int i = 0; i < 5; ++i) {
    reactor.poll_once();
  }
  EXPECT_EQ(runs, 5u);
  EXPECT_GT(thread.now(), start);  // every iteration costs loop time
  EXPECT_EQ(reactor.stats().iterations, 5u);
  EXPECT_EQ(reactor.stats().busy_iterations, 2u);

  const auto stats = reactor.poller_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].name, "count");
  EXPECT_EQ(stats[0].runs, 5u);
  EXPECT_EQ(stats[0].busy_runs, 2u);
}

TEST_F(ReactorFixture, TimedPollerHonoursPeriod) {
  u32 runs = 0;
  reactor.register_poller(
      "timed", [&](sim::SimTime) { ++runs; return false; },
      sim::microseconds(10));
  const sim::SimTime start = thread.now();
  while (thread.now() < start + sim::microseconds(100)) {
    reactor.poll_once();
  }
  // ~10 period expiries over 100us, far fewer than loop iterations.
  EXPECT_GE(runs, 8u);
  EXPECT_LE(runs, 13u);
  EXPECT_GT(reactor.stats().iterations, u64{runs} * 10);
}

TEST_F(ReactorFixture, PollerCanUnregisterItself) {
  u32 runs = 0;
  u64 id = 0;
  id = reactor.register_poller("self", [&](sim::SimTime) {
    ++runs;
    if (runs == 3) {
      reactor.unregister_poller(id);
    }
    return true;
  });
  for (int i = 0; i < 6; ++i) {
    reactor.poll_once();
  }
  EXPECT_EQ(runs, 3u);
  EXPECT_TRUE(reactor.poller_stats().empty());
}

// ---- timers ---------------------------------------------------------------

TEST_F(ReactorFixture, OneShotTimerFiresAtDeadlineAndCancelWorks) {
  const sim::SimTime start = thread.now();
  bool fired = false;
  sim::SimTime fired_at{};
  reactor.schedule_timer(sim::microseconds(50), [&] {
    fired = true;
    fired_at = thread.now();
  });
  const u64 cancelled = reactor.schedule_timer(sim::microseconds(500), [] {});
  EXPECT_TRUE(reactor.cancel_timer(cancelled));
  EXPECT_FALSE(reactor.cancel_timer(cancelled));  // already gone

  reactor.run_until_idle();
  EXPECT_TRUE(fired);
  // Fired at the first iteration at/after the deadline, never before,
  // and without waiting for the cancelled timer's horizon.
  EXPECT_GE(fired_at, start + sim::microseconds(50));
  EXPECT_LT(fired_at, start + sim::microseconds(55));
  EXPECT_EQ(reactor.stats().timers_fired, 1u);
  EXPECT_FALSE(reactor.has_pending_work());
}

// ---- messages through the loop --------------------------------------------

TEST_F(ReactorFixture, MessagesRespectPostedTimeVisibility) {
  const sim::SimTime visible_at = thread.now() + sim::microseconds(30);
  int ran = 0;
  ASSERT_TRUE(reactor.post([&] { ++ran; }, visible_at));
  reactor.poll_once();
  EXPECT_EQ(ran, 0);  // the producer's store is not visible yet
  ASSERT_TRUE(reactor.next_wakeup().has_value());
  EXPECT_EQ(reactor.next_wakeup()->picos(), visible_at.picos());

  reactor.run_until_idle();  // spins the clock forward to the message
  EXPECT_EQ(ran, 1);
  EXPECT_GE(thread.now(), visible_at);
  EXPECT_EQ(reactor.stats().messages_processed, 1u);
}

TEST_F(ReactorFixture, NextWakeupIsEarliestOfTimerAndMessage) {
  reactor.schedule_timer(sim::microseconds(20), [] {});
  const sim::SimTime msg_at = thread.now() + sim::microseconds(5);
  ASSERT_TRUE(reactor.post([] {}, msg_at));
  ASSERT_TRUE(reactor.next_wakeup().has_value());
  EXPECT_EQ(reactor.next_wakeup()->picos(), msg_at.picos());
}

TEST_F(ReactorFixture, MsgBatchBoundsPerIterationDispatch) {
  Reactor small{{.id = 2, .msg_ring_capacity = 8, .msg_batch = 2}, thread};
  int ran = 0;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(small.post([&] { ++ran; }, thread.now()));
  }
  small.poll_once();
  EXPECT_EQ(ran, 2);  // batch limit, not the whole backlog
  small.poll_once();
  EXPECT_EQ(ran, 4);
  small.poll_once();
  EXPECT_EQ(ran, 5);
}

TEST_F(ReactorFixture, RunUntilIdleCountsConsecutiveDryIterations) {
  const u64 iterations = reactor.run_until_idle(/*idle_limit=*/3);
  EXPECT_EQ(iterations, 3u);
  EXPECT_EQ(reactor.stats().busy_iterations, 0u);
}

}  // namespace
}  // namespace vfpga::reactor
