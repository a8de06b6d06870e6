// edp::runtime — sharded parallel simulation runtime.
//
// Partitions a topo::Spec into shards (one sim::Scheduler + one
// topo::Network of owned switches/hosts per shard), runs the shards on a
// persistent worker pool, and exchanges cross-shard packet deliveries
// through bounded lock-free SPSC rings (spsc_ring.hpp).
//
// Synchronization is conservative, and *adaptive*: instead of one global
// window equal to the minimum cut-link delay, each shard advances per round
// to the earliest time another shard could still affect it. Let L(j, i) be
// the directed pair lookahead (minimum delay over cut links from shard j
// into shard i, ShardPlan::pair_lookahead_ps) and N_j shard j's earliest
// pending event. The *earliest activity bound* E_j — the earliest instant
// shard j could ever execute anything from the next round on — is the least
// fixpoint of
//
//   E_j = min(N_j, min over incoming k of min(E_k + L(k, j), M(k, j)))
//
// where M(k, j) is the earliest delivery time among messages already in
// flight in the k->j channel. Any future message into shard i therefore
// arrives at or after min_j(E_j + L(j, i)), so shard i may run the window
//
//   wend_i = min(deadline, min over incoming j of E_j + L(j, i) - 1 ps)
//
// using only information it already has (the -1 ps keeps the bound strict,
// exactly like the old (T, T+L] window rule). Three consequences:
//
//   * shards separated by multiple hops get multi-hop lookahead (the
//     fixpoint is a shortest-path relaxation over the shard graph);
//   * an idle shard (N = infinity) imposes no bound, so quiescent phases
//     fast-forward in one round instead of barriering once per min delay;
//   * pair delays enter individually — one short link no longer drags
//     every other pair's window down.
//
// The round loop (one barrier per round, not two): each worker, for every
// shard it owns, (1) computes wend from the previous round's published
// snapshot, (2) drains the previous round's inbound rings into the shard
// scheduler, (3) runs the shard to wend, pushing cross-shard sends into the
// *current* round's rings and publishing (now, next-event, in-flight-min)
// for the next round, then (4) barriers. Rings, in-flight minima and clock
// snapshots are double-buffered by round parity, so round q's producers
// never touch what round q's consumers read — the single barrier is the
// only ordering needed.
//
// Worker pool: created once (construction), parked on a condition variable
// between run_until() calls — the scenario engine's repeated-run pattern no
// longer pays a spawn+join per call. The pool is core-aware: by default
// min(num_shards, hardware threads) workers multiplex the shards, so an
// oversubscribed machine (more shards than cores) runs the round loop
// without futex ping-pong; RuntimeOptions::max_workers forces a size.
//
// Determinism: window boundaries are computed from published snapshots that
// are pure functions of simulation state, drains replay in fixed source-
// shard order with per-ring FIFO, and sequence numbers are minted in drain
// order — so a parallel run is bit-reproducible and matches the sequential
// scheduler exactly as long as the workload does not contain cross-switch
// same-picosecond ties (see docs/RUNTIME.md for the precise statement).
// The determinism property test in tests/test_runtime.cpp checks
// parallel-vs-sequential equality across seeds and shard counts.
#pragma once

#include <atomic>
#include <barrier>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/packet.hpp"
#include "runtime/spsc_ring.hpp"
#include "sim/scheduler.hpp"
#include "topo/network.hpp"
#include "topo/spec.hpp"

namespace edp::runtime {

struct RuntimeOptions {
  /// Per-channel SPSC ring capacity (rounded up to a power of two). When a
  /// ring fills mid-window the producer falls back to an overflow vector —
  /// correctness and FIFO order are preserved, only the lock-free fast
  /// path is lost (counted in overflow_messages()).
  std::size_t ring_capacity = 4096;
  /// Worker pool size: 0 = min(num_shards, hardware threads). Values above
  /// num_shards are clamped. With one worker the round loop runs inline on
  /// the caller's thread (no pool threads, no barrier) — the right shape
  /// for machines with fewer cores than shards.
  std::size_t max_workers = 0;
};

class ParallelRuntime {
 public:
  /// Builds one Network per shard from `spec`/`plan`. Switch configs get
  /// their `shard_id` tag filled in. Cut links become ring endpoints; the
  /// runtime does not support failing a cut link (intra-shard links keep
  /// full failure injection through link()).
  ParallelRuntime(const topo::Spec& spec, topo::ShardPlan plan,
                  RuntimeOptions options = {});
  ~ParallelRuntime();

  ParallelRuntime(const ParallelRuntime&) = delete;
  ParallelRuntime& operator=(const ParallelRuntime&) = delete;

  // ---- topology access (spec/global indices) --------------------------------
  // Valid before and after run_until(), not during (workers own the shards
  // while running).

  core::EventSwitch& sw(std::size_t spec_index);
  topo::Host& host(std::size_t spec_index);
  /// The shard-local Link for an intra-shard spec link. Cut links have no
  /// Link object; asserts on a cut index. O(1) via the owner-shard table.
  topo::Link& link(std::size_t spec_index);

  std::size_t shard_of_switch(std::size_t spec_index) const {
    return plan_.switch_shard[spec_index];
  }
  std::size_t shard_of_host(std::size_t spec_index) const {
    return plan_.host_shard[spec_index];
  }

  /// The scheduler that owns a node — traffic generators and timers driving
  /// that node must be created on it.
  sim::Scheduler& scheduler_of_switch(std::size_t spec_index);
  sim::Scheduler& scheduler_of_host(std::size_t spec_index);
  sim::Scheduler& shard_scheduler(std::size_t shard);

  // ---- execution ------------------------------------------------------------

  /// Advance every shard to `deadline` using adaptive windowed execution.
  /// Callable repeatedly; shards always share a common time at return.
  void run_until(sim::Time deadline);

  // ---- introspection --------------------------------------------------------

  std::size_t num_shards() const { return plan_.num_shards; }
  /// Threads actually executing shards (<= num_shards; 1 means the round
  /// loop runs inline on the caller).
  std::size_t num_workers() const { return pool_size_; }
  const topo::ShardPlan& plan() const { return plan_; }
  /// Global minimum cut delay (nullopt = no cut links). The adaptive
  /// windows use the per-pair matrix; this is the worst-case floor.
  std::optional<sim::Time> lookahead() const { return plan_.lookahead; }
  sim::Time now() const;

  /// Total callbacks executed across all shard schedulers.
  std::uint64_t total_executed() const;
  /// Cross-shard packets exchanged / of those, ones that hit a full ring.
  std::uint64_t cross_shard_messages() const;
  std::uint64_t overflow_messages() const;
  /// Consumer-side burst-drain statistics: nonempty ring burst pops and the
  /// messages they moved (ring_drained()/ring_drains() = avg burst size).
  std::uint64_t ring_drains() const;
  std::uint64_t ring_drained() const;
  /// Synchronization rounds executed by run_until() calls (cumulative),
  /// one per round on every path. A single-shard plan has no channels, so
  /// its window always reaches the deadline: one round per call that
  /// advances time.
  std::uint64_t windows() const { return windows_; }

 private:
  /// One enqueued cross-shard delivery. `deliver` is absolute simulated
  /// time; the destination is pre-resolved to a shard-local node.
  struct Msg {
    sim::Time deliver;
    bool to_host = false;
    std::uint32_t local_index = 0;  ///< shard-local switch/host index
    std::uint16_t port = 0;         ///< switch receive port (unused for hosts)
    net::Packet pkt;
  };

  /// Directed shard-pair transport for one round parity: SPSC ring + FIFO
  /// overflow fallback. All accesses are phase-separated by the round
  /// barrier — the producer writes a parity only during rounds of that
  /// parity, the consumer reads it only during rounds of the opposite
  /// parity — so `overflow` needs no lock; `debug_phase` asserts the
  /// invariant in debug builds (see push()/drain_inbound()).
  struct Channel {
    explicit Channel(std::size_t cap) : ring(cap) {}
    SpscRing<Msg> ring;
    std::vector<Msg> overflow;  ///< used only after the ring fills
    std::uint64_t pushed = 0;       ///< producer-side count
    std::uint64_t overflowed = 0;   ///< producer-side count
#ifndef NDEBUG
    /// 0 = idle, 1 = producer pushing, 2 = consumer draining. Never both:
    /// the barrier separates the phases. Relaxed is enough — we only check
    /// mutual exclusion, the barrier provides the ordering.
    std::atomic<int> debug_phase{0};
#endif
  };

  /// Per-shard published clock snapshot, double-buffered by round parity.
  /// Written by the owning worker before the round barrier, read by every
  /// worker after it (the barrier is the synchronization). Padded so two
  /// workers never share a line.
  struct alignas(64) ClockSnap {
    std::int64_t now_ps = 0;
    std::int64_t next_ps = 0;  ///< kInfinity when the shard queue is empty
  };

  struct Shard {
    std::unique_ptr<sim::Scheduler> sched;
    std::unique_ptr<topo::Network> net;
    // spec index -> shard-local index (ShardPlan::npos when not local)
    std::vector<std::size_t> switch_local;
    std::vector<std::size_t> host_local;
    /// Current round parity, read by this shard's TX closures mid-run to
    /// pick the outbound ring set. Only the owning worker writes it.
    std::size_t parity = 0;
    /// Fixed-size scratch for DPDK-style ring burst pops (worker-owned).
    std::vector<Msg> drain_burst;
    /// Staged deliveries handed to the scheduler as one inject_batch call.
    std::vector<sim::Scheduler::BatchItem> inject_burst;
    // Consumer-side drain statistics (read after the workers park).
    std::uint64_t ring_drains = 0;    ///< burst pops that returned >= 1 msg
    std::uint64_t ring_drained = 0;   ///< messages moved by those bursts
  };

  static constexpr std::int64_t kInfinity = topo::ShardPlan::kNoChannel;

  Channel* channel(std::size_t parity, std::size_t src, std::size_t dst) {
    return channels_[parity * plan_.num_shards * plan_.num_shards +
                     src * plan_.num_shards + dst]
        .get();
  }

  void push(std::size_t src, std::size_t dst, Msg&& m);
  void drain_inbound(std::size_t shard, std::size_t parity);
  /// Least fixpoint of the earliest-activity bound over the shard graph,
  /// from the parity-`snap` snapshot (Bellman-style relaxation; identical
  /// on every worker because the inputs are identical).
  void compute_activity_bounds(std::size_t snap, std::int64_t* e) const;
  /// One full round for every shard owned by `worker`; returns true when
  /// every shard has reached `deadline` (same verdict on every worker).
  bool run_round(std::size_t worker, std::uint64_t q, sim::Time deadline,
                 std::int64_t* e);
  /// The adaptive round loop (all workers, or inline when pool_size_ == 1).
  void run_rounds(std::size_t worker, sim::Time deadline);
  void pool_main(std::size_t worker);

  topo::ShardPlan plan_;
  RuntimeOptions options_;
  std::vector<Shard> shards_;
  /// channels_[parity * n * n + src * n + dst]; null on the diagonal and
  /// for pairs with no cut link between them. Producers fill parity q&1
  /// during round q; consumers drain it during round q+1.
  std::vector<std::unique_ptr<Channel>> channels_;
  /// Directed pair lookahead in ps (kInfinity = no channel), from the plan.
  std::vector<std::int64_t> pair_lookahead_ps_;
  /// clock_[parity][shard]: snapshot published at the end of each round.
  std::vector<ClockSnap> clock_[2];
  /// inflight_[parity][src * n + dst]: minimum delivery time among messages
  /// pushed into that channel during the round of that parity (kInfinity
  /// when none). Row `src` is written only by shard src's worker.
  std::vector<std::int64_t> inflight_[2];
  /// spec link index -> owning shard (npos for cut links): O(1) link().
  std::vector<std::size_t> link_owner_;
  /// spec link index -> shard-local link index (npos for cut links).
  std::vector<std::size_t> link_local_;

  std::uint64_t round_ = 0;   ///< next round index; parity persists across calls
  std::uint64_t windows_ = 0;

  // ---- persistent worker pool (created when pool_size_ > 1) ---------------
  std::size_t pool_size_ = 1;
  std::size_t shards_per_worker_ = 0;
  std::vector<std::thread> pool_;
  std::unique_ptr<std::barrier<>> round_barrier_;
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;   ///< workers wait for a new job epoch
  std::condition_variable done_cv_;   ///< caller waits for running_ == 0
  std::uint64_t job_epoch_ = 0;
  std::size_t running_ = 0;
  sim::Time job_deadline_;
  bool stop_ = false;
  /// Per-worker scratch for the activity-bound fixpoint (indexed by worker).
  std::vector<std::vector<std::int64_t>> bound_scratch_;
};

}  // namespace edp::runtime
