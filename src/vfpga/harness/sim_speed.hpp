// Self-benchmark of the simulation core: sharded lanes at scale.
//
// Every other bench measures the modelled device; this one measures the
// simulator. It builds one EventLane per queue-pair shard, gives each
// lane a private single-pair testbed plus a FlowGen population (the
// lane's slice of the global Toeplitz RSS space), and drives every
// generated packet through a real UDP echo round trip on that lane's
// host thread. Lanes only touch their own state during a window;
// flow-completion notifications hop to the next lane through the
// cross-lane message rings, so the parallel machinery is genuinely
// exercised, not just present.
//
// Two numbers matter:
//  * simulated packets per wall-clock second, and its speedup at N
//    worker threads over 1 (the perf claim), and
//  * the merged statistics, which must be BIT-IDENTICAL at every thread
//    count (the determinism claim — VFPGA_THREADS=1 is the oracle).
#pragma once

#include "vfpga/net/flowgen.hpp"
#include "vfpga/sim/event_lane.hpp"
#include "vfpga/stats/summary.hpp"

namespace vfpga::harness {

struct SimSpeedConfig {
  /// Lane (shard) count == queue pairs in the global RSS space.
  u32 lanes = 8;
  /// Live flow-table slots per lane (population stays at this level).
  u32 flows_per_lane = 1250;
  /// Echo round trips each lane performs before draining.
  u64 packets_per_lane = 2000;

  /// Conservative window (lookahead) of the lane set.
  sim::Duration window = sim::microseconds(100);
  u32 ring_capacity = 4096;

  /// Traffic shape (see net::FlowGenConfig).
  net::ArrivalProcess arrivals = net::ArrivalProcess::kMmpp2;
  double mean_gap_us = 50.0;
  u64 size_max_packets = 512;
  u32 payload_min = 64;
  u32 payload_max = 1400;

  u64 seed = 0x51'eedull;
  /// Worker threads for LaneSet::run; 0 = worker_threads(lanes).
  unsigned threads = 0;
};

struct SimSpeedResult {
  u32 lanes = 0;
  unsigned threads_used = 0;

  // ---- deterministic at any thread count (the --stats-only JSON) ----
  u64 packets = 0;   ///< echo round trips completed
  u64 events = 0;    ///< lane scheduler events fired
  u64 windows = 0;   ///< committed window phases
  u64 barriers = 0;  ///< barrier (round) phases executed
  u64 cross_lane_messages = 0;
  u64 cross_lane_received = 0;  ///< notification handlers that ran
  u64 dropped_messages = 0;     ///< must be 0: rings were sized right
  u64 failures = 0;             ///< echoes that exhausted the retry budget
  u64 flows_created = 0;
  u64 flows_completed = 0;
  u64 flows_abandoned = 0;
  double sim_makespan_us = 0;  ///< latest lane activity, simulated time
  stats::LatencySummary latency{};  ///< merged echo latency
  u64 sample_count = 0;

  // ---- sync machinery (also deterministic) --------------------------
  u64 window_growths = 0;
  u64 window_shrinks = 0;
  std::vector<sim::LaneSet::LaneResidency> residency;

  // ---- allocator health (deterministic: same events -> same arenas) -
  /// EventArena chunk allocations summed across lane schedulers — the
  /// high-water mark of pooled event nodes (chunks are never freed
  /// mid-run).
  u64 arena_nodes = 0;
  /// SmallFn captures that spilled to the heap during this run (delta
  /// of the process-wide counter): must stay 0, every hot-path lambda
  /// fits the inline buffer.
  u64 smallfn_heap_fallbacks = 0;

  // ---- wall-clock (excluded from the determinism diff) --------------
  double wall_seconds = 0;
  double packets_per_wall_second = 0;
};

/// Run the lane-sharded traffic simulation once. Everything in the
/// result except the wall-clock fields is a pure function of `config`
/// (including `threads` NOT affecting it — that is the determinism gate).
SimSpeedResult run_sim_speed(const SimSpeedConfig& config);

/// The million-flow soak: a churn stress on the flow table itself.
///
/// Each lane owns a FlowGen shard (its slice of the global RSS space,
/// over a per-lane-disjoint client-IP range) and a periodic tick event
/// that advances a batch of slots: draw the slot's next packet, and
/// when the flow finishes, churn the slot so a fresh flow (new 4-tuple
/// from the freelists) takes its place. No testbed — the object under
/// stress is the SoA table, the tuple freelists, and the lazy steer
/// caches at population scale, plus the lane-set barrier machinery
/// around them. Sparse cross-lane counter messages keep the rings
/// honest without letting message pressure pin the adaptive window.
struct FlowSoakConfig {
  u32 lanes = 8;
  /// Table slots per lane: 8 x 125k = the million-slot table.
  u32 flows_per_lane = 125'000;
  /// Client IPs per lane (disjoint ranges). One IP's port band yields
  /// ~44k/lanes tuples steering to the lane's own pair, so the default
  /// 32 gives ~1.4x headroom over 125k live slots.
  u16 host_ips_per_lane = 32;
  /// Churn rounds per lane, and slots advanced per round.
  u32 ticks = 48;
  u32 slots_per_tick = 8192;
  sim::Duration tick = sim::microseconds(200);
  /// Post the cross-lane counter message every Nth tick (sparse).
  u32 notify_every = 8;

  sim::Duration window = sim::microseconds(100);
  bool adaptive = true;  ///< off = fixed window (the barrier baseline)
  u32 ring_capacity = 4096;

  /// Mice-heavy sizes so slots churn several times within the soak.
  u64 size_max_packets = 8;
  double mean_gap_us = 20.0;
  u64 seed = 0xf10f'50adull;
  unsigned threads = 0;
};

struct FlowSoakResult {
  u32 lanes = 0;
  u64 table_slots = 0;
  unsigned threads_used = 0;

  // ---- deterministic at any thread count ----------------------------
  u64 packets = 0;
  u64 ticks_run = 0;
  u64 flows_created = 0;
  u64 flows_completed = 0;
  u64 flows_open = 0;  ///< live population when the soak stopped
  u64 windows = 0;
  u64 barriers = 0;
  u64 window_growths = 0;
  u64 window_shrinks = 0;
  u64 cross_lane_messages = 0;
  u64 cross_lane_received = 0;
  /// Allocated flow-table bytes across all shards, and per slot — the
  /// soak bench gates bytes_per_flow against DESIGN.md §15's 48 B/flow.
  u64 footprint_bytes = 0;
  double bytes_per_flow = 0;
  double sim_makespan_us = 0;

  // ---- wall-clock (excluded from the determinism diff) --------------
  double wall_seconds = 0;
  double packets_per_wall_second = 0;
};

/// Run the flow-table soak. Deterministic fields are a pure function of
/// `config` — `threads` never affects them, and `adaptive` only changes
/// the window/barrier counters, never the simulated traffic (the test
/// asserting the adaptive controller's barrier reduction relies on
/// this).
FlowSoakResult run_flow_soak(const FlowSoakConfig& config);

}  // namespace vfpga::harness
