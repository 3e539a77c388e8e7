// Unit + property tests: simulated time, RNG, distributions, scheduler,
// noise model.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "vfpga/sim/distributions.hpp"
#include "vfpga/sim/noise.hpp"
#include "vfpga/sim/rng.hpp"
#include "vfpga/sim/scheduler.hpp"
#include "vfpga/sim/time.hpp"

namespace vfpga::sim {
namespace {

TEST(SimTime, DurationArithmetic) {
  const Duration a = microseconds(3);
  const Duration b = nanoseconds(500);
  EXPECT_EQ((a + b).picos(), 3'500'000);
  EXPECT_EQ((a - b).picos(), 2'500'000);
  EXPECT_EQ((a * 2).picos(), 6'000'000);
  EXPECT_DOUBLE_EQ(a.micros(), 3.0);
  EXPECT_DOUBLE_EQ(b.nanos(), 500.0);
}

TEST(SimTime, PointMinusPointIsDuration) {
  const SimTime t0{1000};
  const SimTime t1 = t0 + nanoseconds(5);
  EXPECT_EQ((t1 - t0).picos(), 5000);
  EXPECT_LT(t0, t1);
}

TEST(SimTime, FromNanosRounds) {
  EXPECT_EQ(from_nanos(1.4).picos(), 1400);
  EXPECT_EQ(from_nanos(0.0004).picos(), 0);
  EXPECT_EQ(from_nanos(0.0006).picos(), 1);
}

TEST(SimTime, RoundToClockTicks) {
  const Duration tick = nanoseconds(8);
  EXPECT_EQ(round_up_to(nanoseconds(1), tick), nanoseconds(8));
  EXPECT_EQ(round_up_to(nanoseconds(8), tick), nanoseconds(8));
  EXPECT_EQ(round_up_to(nanoseconds(9), tick), nanoseconds(16));
  EXPECT_EQ(round_down_to(nanoseconds(15), tick), nanoseconds(8));
}

TEST(Rng, DeterministicStream) {
  Xoshiro256 a{42};
  Xoshiro256 b{42};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a{1};
  Xoshiro256 b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, Uniform01InRange) {
  Xoshiro256 rng{7};
  double sum = 0;
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(Rng, UniformBelowIsUnbiasedish) {
  Xoshiro256 rng{11};
  std::array<int, 7> histogram{};
  for (int i = 0; i < 70'000; ++i) {
    ++histogram[rng.uniform_below(7)];
  }
  for (int count : histogram) {
    EXPECT_NEAR(count, 10'000, 600);
  }
}

TEST(Rng, SplitStreamsAreIndependentish) {
  Xoshiro256 parent{99};
  Xoshiro256 child = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent() == child()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

// ---- distributions (statistical property tests) ------------------------------

TEST(Distributions, LognormalMedianIsMedian) {
  Xoshiro256 rng{5};
  int below = 0;
  constexpr int kN = 20'000;
  for (int i = 0; i < kN; ++i) {
    if (sample_lognormal(rng, 100.0, 0.5) < 100.0) {
      ++below;
    }
  }
  EXPECT_NEAR(static_cast<double>(below) / kN, 0.5, 0.02);
}

TEST(Distributions, ExponentialMean) {
  Xoshiro256 rng{6};
  double sum = 0;
  constexpr int kN = 50'000;
  for (int i = 0; i < kN; ++i) {
    sum += sample_exponential(rng, 250.0);
  }
  EXPECT_NEAR(sum / kN, 250.0, 10.0);
}

TEST(Distributions, ParetoIsNonNegativeAndHeavy) {
  Xoshiro256 rng{8};
  double max_seen = 0;
  for (int i = 0; i < 50'000; ++i) {
    const double v = sample_pareto(rng, 10.0, 2.0);
    ASSERT_GE(v, 0.0);
    max_seen = std::max(max_seen, v);
  }
  EXPECT_GT(max_seen, 100.0);  // heavy tail reaches >10x scale
}

TEST(Distributions, PoissonMeanMatches) {
  Xoshiro256 rng{9};
  for (double mean : {0.1, 1.0, 5.0, 40.0}) {
    u64 sum = 0;
    constexpr int kN = 20'000;
    for (int i = 0; i < kN; ++i) {
      sum += sample_poisson(rng, mean);
    }
    EXPECT_NEAR(static_cast<double>(sum) / kN, mean, mean * 0.1 + 0.05)
        << "mean " << mean;
  }
}

// Knuth's loop exactly as sample_poisson ran it before the early exit:
// the oracle the exit must match draw for draw.
u64 knuth_poisson(Xoshiro256& rng, double mean) {
  const double limit = std::exp(-mean);
  double product = rng.uniform01();
  u64 count = 0;
  while (product > limit) {
    product *= rng.uniform01();
    ++count;
  }
  return count;
}

TEST(Distributions, PoissonMatchesKnuthLoopDrawForDraw) {
  std::vector<double> means;
  // Log-spaced 1e-12 .. 29.99 (the inversion branch's whole range).
  constexpr int kGrid = 64;
  for (int i = 0; i < kGrid; ++i) {
    const double t = static_cast<double>(i) / (kGrid - 1);
    means.push_back(1e-12 * std::pow(29.99 / 1e-12, t));
  }
  // The means the cost model actually asks for: default noise rates over
  // software segments of tens of ns to a millisecond.
  const NoiseConfig noise;
  for (const double us : {0.03, 0.14, 0.28, 0.64, 1.0, 2.6, 8.0, 40.0,
                          1000.0}) {
    means.push_back(noise.common_rate_per_us * us);
    means.push_back(noise.rare_rate_per_us * us);
  }
  Xoshiro256 rng{424242};
  Xoshiro256 oracle = rng;
  constexpr std::size_t kCalls = 1'200'000;
  for (std::size_t i = 0; i < kCalls; ++i) {
    const double mean = means[i % means.size()];
    const u64 got = sample_poisson(rng, mean);
    const u64 want = knuth_poisson(oracle, mean);
    ASSERT_EQ(got, want) << "call " << i << " mean " << mean;
    ASSERT_EQ(rng.state(), oracle.state()) << "call " << i << " mean " << mean;
  }
}

// The early exit's premise: a u at or below 1 - mean - 2^-50 (as
// computed in doubles) is never above the computed exp(-mean). Walk u
// across the threshold one representable double at a time.
TEST(Distributions, PoissonEarlyExitThresholdIsBelowExp) {
  for (const double mean :
       {1e-12, 3e-9, 8e-5, 4e-5 * 0.28, 0.00336, 0.012, 0.05, 0.1, 0.25,
        0.5, 0.75, 0.9}) {
    const double threshold = 1.0 - mean - 0x1p-50;
    const double limit = std::exp(-mean);
    double u = threshold - 0x1p-40;
    int checked = 0;
    while (u <= threshold + 0x1p-40) {
      if (u <= threshold) {
        ASSERT_LE(u, limit) << "mean " << mean << " u " << u;
        ++checked;
      }
      u = std::nextafter(u, 2.0);
    }
    EXPECT_GT(checked, 4000) << "mean " << mean;
  }
}

TEST(Distributions, JitteredSegmentRespectsBounds) {
  Xoshiro256 rng{10};
  JitteredSegment segment{nanoseconds(1000), 0.8, nanoseconds(800),
                          nanoseconds(1500)};
  for (int i = 0; i < 5'000; ++i) {
    const Duration d = segment.sample(rng);
    ASSERT_GE(d, nanoseconds(800));
    ASSERT_LE(d, nanoseconds(1500));
  }
}

TEST(Distributions, ZeroSigmaIsDeterministic) {
  Xoshiro256 rng{11};
  JitteredSegment segment{nanoseconds(750), 0.0, {}, {}};
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(segment.sample(rng), nanoseconds(750));
  }
}

TEST(Distributions, MixtureSelectsAllComponents) {
  Xoshiro256 rng{12};
  MixtureSegment mixture{{
      {0.5, {nanoseconds(100), 0.0, {}, {}}},
      {0.5, {nanoseconds(900), 0.0, {}, {}}},
  }};
  int fast = 0;
  constexpr int kN = 10'000;
  for (int i = 0; i < kN; ++i) {
    if (mixture.sample(rng) == nanoseconds(100)) {
      ++fast;
    }
  }
  EXPECT_NEAR(static_cast<double>(fast) / kN, 0.5, 0.03);
}

// ---- scheduler ---------------------------------------------------------------

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(SimTime{300}, [&] { order.push_back(3); });
  sched.schedule_at(SimTime{100}, [&] { order.push_back(1); });
  sched.schedule_at(SimTime{200}, [&] { order.push_back(2); });
  EXPECT_EQ(sched.run_until_idle(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now().picos(), 300);
}

TEST(Scheduler, FifoTieBreakAtEqualTimes) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.schedule_at(SimTime{50}, [&, i] { order.push_back(i); });
  }
  sched.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, ActionsCanScheduleMore) {
  Scheduler sched;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 10) {
      sched.schedule_after(nanoseconds(10), chain);
    }
  };
  sched.schedule_at(SimTime{0}, chain);
  sched.run_until_idle();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(sched.now(), SimTime{} + nanoseconds(90));
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(SimTime{100}, [&] { ++fired; });
  sched.schedule_at(SimTime{200}, [&] { ++fired; });
  EXPECT_EQ(sched.run_until(SimTime{150}), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), SimTime{150});
  sched.run_until_idle();
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, StopExitsRunLoop) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(SimTime{1}, [&] {
    ++fired;
    sched.stop();
  });
  sched.schedule_at(SimTime{2}, [&] { ++fired; });
  EXPECT_EQ(sched.run_until_stopped(), 1u);
  EXPECT_EQ(fired, 1);
}

// ---- SmallFn + event arena ---------------------------------------------------

TEST(SmallFn, InlineCaptureAllocatesNothing) {
  const u64 before = SmallFn::heap_allocations();
  int hits = 0;
  i64 stamp = 41;
  SmallFn fn([&hits, &stamp] { ++hits; ++stamp; });
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(stamp, 43);
  EXPECT_EQ(SmallFn::heap_allocations(), before);
}

TEST(SmallFn, OversizedCaptureFallsBackToHeapAndIsCounted) {
  const u64 before = SmallFn::heap_allocations();
  std::array<u64, 16> big{};  // 128 bytes: misses the 48-byte buffer
  big[0] = 7;
  u64 out = 0;
  SmallFn fn([big, &out] { out = big[0]; });
  EXPECT_EQ(SmallFn::heap_allocations(), before + 1);
  fn();
  EXPECT_EQ(out, 7u);
}

TEST(SmallFn, MoveTransfersTheTargetAndEmptiesTheSource) {
  int hits = 0;
  SmallFn a([&hits] { ++hits; });
  SmallFn b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);

  SmallFn c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFn, DestroysTheCaptureExactlyOnce) {
  auto token = std::make_shared<int>(5);
  EXPECT_EQ(token.use_count(), 1);
  {
    SmallFn fn([token] { (void)*token; });
    EXPECT_EQ(token.use_count(), 2);
    SmallFn moved = std::move(fn);
    EXPECT_EQ(token.use_count(), 2);  // relocated, not duplicated
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Scheduler, SteadyStateReschedulingAllocatesNothing) {
  Scheduler sched;
  u64 fired = 0;
  // A self-rescheduling chain whose capture is two pointers + a count —
  // the scheduler hot-path shape. The first events warm the arena chunk;
  // after that, neither node pool nor callable may touch the heap.
  struct Chain {
    Scheduler* sched;
    u64* fired;
    u64 limit;
    void operator()() const {
      if (++*fired < limit) {
        sched->schedule_after(nanoseconds(5), *this);
      }
    }
  };
  sched.schedule_at(SimTime{}, Chain{&sched, &fired, 10'000});
  sched.run_until(SimTime{} + nanoseconds(500));  // warm-up
  ASSERT_GT(fired, 0u);

  const u64 nodes_before = sched.arena().node_allocations();
  const u64 heap_before = SmallFn::heap_allocations();
  sched.run_until_idle();
  EXPECT_EQ(fired, 10'000u);
  EXPECT_EQ(sched.arena().node_allocations(), nodes_before);
  EXPECT_EQ(SmallFn::heap_allocations(), heap_before);
  EXPECT_EQ(sched.arena().live(), 0u);
}

TEST(Scheduler, ExecutedCountsLifetimeEvents) {
  Scheduler sched;
  for (int i = 0; i < 5; ++i) {
    sched.schedule_at(SimTime{i + 1}, [] {});
  }
  EXPECT_EQ(sched.pending(), 5u);
  EXPECT_EQ(sched.next_due(), SimTime{1});
  sched.run_until(SimTime{3});
  EXPECT_EQ(sched.executed(), 3u);
  sched.run_until_idle();
  EXPECT_EQ(sched.executed(), 5u);
  EXPECT_TRUE(sched.idle());
}

// ---- noise model ----------------------------------------------------------------

TEST(Noise, DisabledProducesNothing) {
  NoiseConfig config;
  config.enabled = false;
  NoiseModel noise{config};
  Xoshiro256 rng{1};
  EXPECT_EQ(noise.interference(rng, microseconds(1000)), Duration{});
  EXPECT_EQ(noise.rare_stall(rng, microseconds(1000)), Duration{});
}

TEST(Noise, InterferenceScalesWithExposure) {
  NoiseModel noise{NoiseConfig{}};
  Xoshiro256 rng{2};
  double short_total = 0;
  double long_total = 0;
  for (int i = 0; i < 3'000; ++i) {
    short_total += noise.interference(rng, microseconds(5)).micros();
    long_total += noise.interference(rng, microseconds(50)).micros();
  }
  EXPECT_GT(long_total, short_total * 5);
}

TEST(Noise, RareStallsAreRareButLarge) {
  NoiseModel noise{NoiseConfig{}};
  Xoshiro256 rng{3};
  int stalls = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    const Duration d = noise.rare_stall(rng, microseconds(30));
    if (d > Duration{}) {
      ++stalls;
      EXPECT_GT(d.micros(), 20.0);   // offset floor
      EXPECT_LE(d.micros(), 450.0);  // capped (allowing multi-event)
    }
  }
  // ~0.12% per 30us window.
  EXPECT_GT(stalls, 30);
  EXPECT_LT(stalls, 400);
}

}  // namespace
}  // namespace vfpga::sim
