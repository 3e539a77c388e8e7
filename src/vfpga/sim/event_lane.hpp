// Sharded parallel event lanes: conservative time-window sync.
//
// A LaneSet partitions a simulation into K independent EventLanes (one
// per queue pair in the scale harness, one per sweep cell in the paper
// sweeps), each owning a private Scheduler. Simulated time advances in
// ROUNDS of one window: every lane executes its own events up to the
// window end with NO shared state, all lanes barrier, the staged
// cross-lane messages are routed, and the set advances to the window
// containing the earliest pending work.
//
// This is classic conservative parallel discrete-event simulation, where
// the window length is the lookahead: a message sent in window W can
// only take effect in window W+1 or later, so no lane can ever observe
// an effect from a peer whose clock it has already passed. Results are
// therefore bit-identical at ANY worker thread count; `VFPGA_THREADS=1`
// is the oracle (the determinism gates in bench/sim_speed and CI
// enforce exactly this).
//
// Cross-lane sends travel through the visibility-gated MessageRing: one
// SPSC ring per (source, destination) lane pair, posted_at carrying the
// message's due time. Staging is lane-local during the parallel phase;
// the actual ring pushes happen in the single-threaded barrier phase in
// canonical (source id, FIFO) order, and receivers drain rings in
// source-id order at each window start. Every ordering decision is a
// pure function of simulation state.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "vfpga/reactor/message_ring.hpp"
#include "vfpga/sim/scheduler.hpp"

namespace vfpga::sim {

struct LaneSetConfig {
  u32 lanes = 1;
  /// Window length == conservative lookahead: the minimum cross-lane
  /// latency. Larger windows barrier less often but delay messages more.
  /// With the adaptive controller enabled this is only the STARTING
  /// width; the controller retunes it between rounds.
  Duration window = microseconds(100);
  /// Capacity of each (source, destination) message ring.
  u32 ring_capacity = 4096;

  /// Self-tuning window controller. The fixed window trades barrier
  /// frequency against cross-lane latency once, at configuration time;
  /// the controller re-makes that trade every round from two observed
  /// simulated-time quantities — cross-lane messages routed per round
  /// and the fraction of lanes that executed any event — so chatty
  /// phases keep messages prompt while idle-heavy phases stop paying a
  /// barrier per window. It runs entirely in the single-threaded
  /// barrier phase on integer fixed-point EWMAs, so the retuned
  /// schedule is exactly as thread-count-independent as the fixed one.
  struct AdaptiveWindow {
    bool enabled = false;
    /// Clamp bounds for the retuned window. min_window is also the
    /// cross-lane latency floor the controller may never trade away.
    Duration min_window = microseconds(25);
    Duration max_window = milliseconds(5);
    /// EWMA messages/round at or above this: halve the window (the
    /// lanes are talking — tighten the lookahead immediately).
    u32 high_messages = 8;
    /// EWMA messages/round at or below this counts as a quiet round.
    u32 low_messages = 1;
    /// Consecutive quiet rounds before the window doubles. Hysteresis:
    /// growth is patient, shrink is immediate.
    u32 grow_patience = 4;
  } adaptive;
};

class LaneSet;

/// One shard: a private Scheduler plus its cross-lane mailboxes. All
/// mutable state is owned by exactly one worker during a round.
class EventLane {
 public:
  EventLane(const EventLane&) = delete;
  EventLane& operator=(const EventLane&) = delete;

  [[nodiscard]] u32 id() const { return id_; }
  [[nodiscard]] Scheduler& scheduler() { return sched_; }
  [[nodiscard]] SimTime now() const { return sched_.now(); }
  /// Cross-lane messages delivered to this lane so far.
  [[nodiscard]] u64 received_messages() const { return received_; }

 private:
  friend class LaneSet;

  EventLane(u32 id, u32 sources, u32 ring_capacity) : id_(id) {
    inbox_.reserve(sources);
    for (u32 s = 0; s < sources; ++s) {
      inbox_.emplace_back(ring_capacity);
    }
  }

  struct Outgoing {
    u32 dst = 0;
    SimTime due{};
    SmallFn fn;
  };

  u32 id_ = 0;
  Scheduler sched_;
  /// inbox_[src]: SPSC ring carrying messages from lane `src`.
  std::vector<reactor::MessageRing> inbox_;
  /// Sends staged during this round, routed at the barrier.
  std::vector<Outgoing> outbox_;
  u64 received_ = 0;
  /// Whether this round's window fired any event (folded into stats at
  /// the barrier).
  bool round_busy_ = false;
};

class LaneSet {
 public:
  explicit LaneSet(LaneSetConfig config);

  [[nodiscard]] u32 size() const { return static_cast<u32>(lanes_.size()); }
  [[nodiscard]] EventLane& lane(u32 i) { return *lanes_.at(i); }
  /// Current window width — the configured value, or whatever the
  /// adaptive controller last retuned it to.
  [[nodiscard]] Duration window() const { return window_; }

  /// End of the window the lanes are executing: the earliest legal
  /// `due` for a cross-lane send. Stable for the whole parallel phase.
  [[nodiscard]] SimTime horizon() const { return horizon_; }

  /// Send `fn` to run on lane `dst` at simulated time `due`. Must be
  /// called from code executing on lane `src` (an event or a delivered
  /// message) with `due >= horizon()`: the message cannot take effect in
  /// the window that is still executing. Delivery respects per-(src,dst)
  /// FIFO order; a message is executed at max(due, visibility of
  /// everything queued ahead of it), exactly the MessageRing contract.
  void post(u32 src, u32 dst, SimTime due, SmallFn fn);

  /// Per-lane time residency over the executed windows.
  struct LaneResidency {
    u64 busy_windows = 0;  ///< windows with >= 1 event fired
    u64 idle_windows = 0;  ///< windows with no events
    /// Rounds this lane spent entirely idle while at least one peer
    /// executed events — windows it only attended for the barrier.
    u64 barrier_waits = 0;
  };

  struct RunStats {
    u64 windows = 0;   ///< executed window phases
    u64 barriers = 0;  ///< barrier (round) phases executed
    u64 events = 0;    ///< lane scheduler events fired
    u64 messages = 0;  ///< cross-lane messages routed into rings
    u64 dropped = 0;   ///< sends lost to a full ring (0 in a sane setup)
    /// Adaptive controller decisions (0 with the fixed window).
    u64 window_growths = 0;
    u64 window_shrinks = 0;
    std::vector<LaneResidency> residency;  ///< one entry per lane
  };

  /// Run to global quiescence (all schedulers idle, all rings and
  /// outboxes empty) on up to `threads` workers; `threads` is clamped
  /// to the lane count and <= 1 runs every lane on the calling thread.
  /// Workers claim lanes from a per-round cursor, so a slow lane never
  /// holds a fixed share of the others hostage. The result — every
  /// lane's event order, clocks, message deliveries — is bit-identical
  /// for every value of `threads`.
  RunStats run(unsigned threads);

 private:
  /// Parallel phase: claim lanes off the round cursor and execute each
  /// one's window until every lane of the round is taken.
  void step_claimed_lanes();
  /// Deliver the lane's inbound messages visible before the horizon,
  /// then run its events up to it. Touches only lane state.
  void step_lane(EventLane& lane);
  /// Barrier phase (single-threaded): route every staged send in
  /// canonical order, fold the round into the stats, open the next one.
  void finish_round();
  /// Barrier phase: open the round containing the earliest pending
  /// work; returns false (and latches done_) at global quiescence.
  bool begin_round();
  /// Barrier phase: when the adaptive controller is on, fold the
  /// finished round's message count and busy-lane fraction into the
  /// EWMAs and resize window_ under hysteresis. Pure integer arithmetic
  /// over simulated-time observations — deterministic at any thread
  /// count.
  void retune_window();

  LaneSetConfig config_;
  std::vector<std::unique_ptr<EventLane>> lanes_;
  /// End of the current round's window.
  SimTime horizon_{};
  bool done_ = false;
  /// Next lane index to claim this round; reset by begin_round().
  std::atomic<u32> next_lane_{0};
  RunStats stats_;
  /// Current window width (== config_.window when not adaptive).
  Duration window_{};
  // Controller state, x256 fixed point (reset by run()).
  i64 message_ewma_x256_ = 0;
  i64 busy_ewma_x256_ = 0;
  u64 messages_at_retune_ = 0;
  u32 quiet_streak_ = 0;
};

}  // namespace vfpga::sim
