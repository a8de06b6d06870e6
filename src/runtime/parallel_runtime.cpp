#include "runtime/parallel_runtime.hpp"

#include <algorithm>
#include <cassert>

namespace edp::runtime {

namespace {
constexpr std::size_t kNpos = topo::ShardPlan::npos;
/// Ring messages moved per burst pop (DPDK burst-size ballpark): large
/// enough to amortize the atomic head publish and the inject_batch call,
/// small enough to keep the scratch resident in L1/L2.
constexpr std::size_t kDrainBurst = 256;

std::int64_t saturating_add(std::int64_t a, std::int64_t b) {
  constexpr std::int64_t inf = topo::ShardPlan::kNoChannel;
  return (a >= inf - b) ? inf : a + b;
}
}  // namespace

ParallelRuntime::ParallelRuntime(const topo::Spec& spec, topo::ShardPlan plan,
                                 RuntimeOptions options)
    : plan_(std::move(plan)), options_(options) {
  const std::size_t n = plan_.num_shards;
  assert(n >= 1);
  assert(plan_.switch_shard.size() == spec.num_switches());
  assert(plan_.host_shard.size() == spec.num_hosts());
  assert(plan_.pair_lookahead_ps.size() == n * n &&
         "plan predates the per-pair lookahead matrix; rebuild it with "
         "topo::plan_shards");

  shards_.resize(n);
  channels_.resize(2 * n * n);
  pair_lookahead_ps_ = plan_.pair_lookahead_ps;
  clock_[0].resize(n);
  clock_[1].resize(n);
  inflight_[0].assign(n * n, kInfinity);
  inflight_[1].assign(n * n, kInfinity);
  link_owner_.assign(spec.num_links(), kNpos);
  link_local_.assign(spec.num_links(), kNpos);
  for (auto& sh : shards_) {
    sh.sched = std::make_unique<sim::Scheduler>();     // hotpath-ok: setup
    sh.net = std::make_unique<topo::Network>(*sh.sched);  // hotpath-ok: setup
    sh.switch_local.assign(spec.num_switches(), kNpos);
    sh.host_local.assign(spec.num_hosts(), kNpos);
    sh.drain_burst.resize(kDrainBurst);    // hotpath-ok: setup
    sh.inject_burst.reserve(kDrainBurst);  // hotpath-ok: setup
  }

  // Nodes first (links reference them), in spec order so the sequential and
  // sharded builds enumerate identically.
  for (std::size_t i = 0; i < spec.num_switches(); ++i) {
    const std::size_t s = plan_.switch_shard[i];
    core::EventSwitchConfig cfg = spec.switch_config(i);
    cfg.shard_id = static_cast<std::uint32_t>(s);
    shards_[s].switch_local[i] = shards_[s].net->add_switch(std::move(cfg));
  }
  for (std::size_t i = 0; i < spec.num_hosts(); ++i) {
    const std::size_t s = plan_.host_shard[i];
    shards_[s].host_local[i] = shards_[s].net->add_host(spec.host_config(i));
  }

  // Channels exist for every directed shard pair joined by at least one cut
  // link (both directions: links are full duplex), one per round parity.
  for (std::size_t l : plan_.cut_links) {
    const auto& ls = spec.link_spec(l);
    const std::size_t sa =
        ls.host_side ? plan_.host_shard[ls.a] : plan_.switch_shard[ls.a];
    const std::size_t sb = plan_.switch_shard[ls.b];
    for (auto [src, dst] : {std::pair{sa, sb}, std::pair{sb, sa}}) {
      for (std::size_t parity : {std::size_t{0}, std::size_t{1}}) {
        auto& ch =
            channels_[parity * n * n + src * n + dst];
        if (!ch) {
          ch = std::make_unique<Channel>(options_.ring_capacity);  // hotpath-ok: setup
        }
      }
    }
  }

  for (std::size_t l = 0; l < spec.num_links(); ++l) {
    const auto& ls = spec.link_spec(l);
    const std::size_t sa =
        ls.host_side ? plan_.host_shard[ls.a] : plan_.switch_shard[ls.a];
    const std::size_t sb = plan_.switch_shard[ls.b];

    if (sa == sb) {
      Shard& sh = shards_[sa];
      const std::size_t local =
          ls.host_side
              ? sh.net->connect_host(sh.host_local[ls.a],
                                     sh.switch_local[ls.b], ls.pb, ls.config)
              : sh.net->connect_switches(sh.switch_local[ls.a], ls.pa,
                                         sh.switch_local[ls.b], ls.pb,
                                         ls.config);
      link_owner_[l] = sa;
      link_local_[l] = local;
      continue;
    }

    // Cut link: each side transmits into the directed channel toward the
    // peer's shard (parity chosen at push time); deliveries are injected at
    // the next round's drain. Senders are departure-stamped: a packet is
    // pushed when its serialization starts, stamped with its absolute
    // arrival (departure + link delay >= now() + delay, so the lookahead
    // still bounds it).
    const sim::Time delay = ls.config.delay;

    // B side is always a switch.
    core::EventSwitch& swb =
        shards_[sb].net->sw(shards_[sb].switch_local[ls.b]);
    const auto b_local = static_cast<std::uint32_t>(shards_[sb].switch_local[ls.b]);
    const std::uint16_t pb = ls.pb;

    if (ls.host_side) {
      topo::Host& ha = shards_[sa].net->host(shards_[sa].host_local[ls.a]);
      const auto a_local =
          static_cast<std::uint32_t>(shards_[sa].host_local[ls.a]);
      ha.connect_tx([this, sa, sb, delay, b_local, pb](net::Packet p,
                                                        sim::Time departure) {
        push(sa, sb, Msg{departure + delay, /*to_host=*/false, b_local, pb,
                         std::move(p)});
      });
      swb.connect_link(pb, [this, sb, sa, delay, a_local](net::Packet p,
                                                          sim::Time departure) {
        push(sb, sa, Msg{departure + delay, /*to_host=*/true, a_local, 0,
                         std::move(p)});
      });
    } else {
      core::EventSwitch& swa =
          shards_[sa].net->sw(shards_[sa].switch_local[ls.a]);
      const auto a_local =
          static_cast<std::uint32_t>(shards_[sa].switch_local[ls.a]);
      const std::uint16_t pa = ls.pa;
      swa.connect_link(pa, [this, sa, sb, delay, b_local,
                            pb](net::Packet p, sim::Time departure) {
        push(sa, sb, Msg{departure + delay, /*to_host=*/false, b_local, pb,
                         std::move(p)});
      });
      swb.connect_link(pb, [this, sb, sa, delay, a_local,
                            pa](net::Packet p, sim::Time departure) {
        push(sb, sa, Msg{departure + delay, /*to_host=*/false, a_local, pa,
                         std::move(p)});
      });
    }
  }

  // Persistent worker pool, sized to the hardware: more workers than cores
  // just trade real work for futex ping-pong, so by default each worker
  // multiplexes a contiguous block of shards and the pool never exceeds
  // the machine. One worker (or one shard) runs inline on the caller.
  std::size_t want = options_.max_workers;
  if (want == 0) {
    want = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  pool_size_ = std::min(n, want);
  shards_per_worker_ = (n + pool_size_ - 1) / pool_size_;
  bound_scratch_.assign(pool_size_, std::vector<std::int64_t>(n, kInfinity));
  if (pool_size_ > 1) {
    round_barrier_ = std::make_unique<std::barrier<>>(  // hotpath-ok: setup
        static_cast<std::ptrdiff_t>(pool_size_));
    pool_.reserve(pool_size_);
    for (std::size_t w = 0; w < pool_size_; ++w) {
      pool_.emplace_back([this, w] { pool_main(w); });
    }
  }
}

ParallelRuntime::~ParallelRuntime() {
  if (!pool_.empty()) {
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      stop_ = true;
    }
    pool_cv_.notify_all();
    for (auto& t : pool_) {
      t.join();
    }
  }
}

core::EventSwitch& ParallelRuntime::sw(std::size_t spec_index) {
  Shard& sh = shards_[plan_.switch_shard[spec_index]];
  assert(sh.switch_local[spec_index] != kNpos);
  return sh.net->sw(sh.switch_local[spec_index]);
}

topo::Host& ParallelRuntime::host(std::size_t spec_index) {
  Shard& sh = shards_[plan_.host_shard[spec_index]];
  assert(sh.host_local[spec_index] != kNpos);
  return sh.net->host(sh.host_local[spec_index]);
}

topo::Link& ParallelRuntime::link(std::size_t spec_index) {
  const std::size_t owner = link_owner_[spec_index];
  assert(owner != kNpos && "cut links have no Link object");
  return shards_[owner].net->link(link_local_[spec_index]);
}

sim::Scheduler& ParallelRuntime::scheduler_of_switch(std::size_t spec_index) {
  return *shards_[plan_.switch_shard[spec_index]].sched;
}

sim::Scheduler& ParallelRuntime::scheduler_of_host(std::size_t spec_index) {
  return *shards_[plan_.host_shard[spec_index]].sched;
}

sim::Scheduler& ParallelRuntime::shard_scheduler(std::size_t shard) {
  return *shards_[shard].sched;
}

sim::Time ParallelRuntime::now() const { return shards_[0].sched->now(); }

std::uint64_t ParallelRuntime::total_executed() const {
  std::uint64_t sum = 0;
  for (const auto& sh : shards_) {
    sum += sh.sched->executed();
  }
  return sum;
}

std::uint64_t ParallelRuntime::cross_shard_messages() const {
  std::uint64_t sum = 0;
  for (const auto& ch : channels_) {
    if (ch) {
      sum += ch->pushed;
    }
  }
  return sum;
}

std::uint64_t ParallelRuntime::overflow_messages() const {
  std::uint64_t sum = 0;
  for (const auto& ch : channels_) {
    if (ch) {
      sum += ch->overflowed;
    }
  }
  return sum;
}

std::uint64_t ParallelRuntime::ring_drains() const {
  std::uint64_t sum = 0;
  for (const auto& sh : shards_) {
    sum += sh.ring_drains;
  }
  return sum;
}

std::uint64_t ParallelRuntime::ring_drained() const {
  std::uint64_t sum = 0;
  for (const auto& sh : shards_) {
    sum += sh.ring_drained;
  }
  return sum;
}

void ParallelRuntime::push(std::size_t src, std::size_t dst, Msg&& m) {
  const std::size_t parity = shards_[src].parity;
  Channel& ch = *channel(parity, src, dst);
#ifndef NDEBUG
  // Barrier-ordering invariant: the producer owns this parity's channel for
  // the whole round; the consumer drains it only in the next round, after
  // the barrier. So push never runs concurrently with drain_inbound on the
  // same channel, and `overflow` needs no lock.
  int expected = 0;
  assert((ch.debug_phase.compare_exchange_strong(expected, 1,
                                                 std::memory_order_relaxed) ||
          expected == 1) &&
         "cross-shard push raced a drain: round-parity invariant broken");
#endif
  ++ch.pushed;
  std::int64_t& mn = inflight_[parity][src * plan_.num_shards + dst];
  mn = std::min(mn, m.deliver.ps());
  // Once the ring has filled inside a round it cannot drain until the
  // barrier (the consumer drains only at its next round start), so after
  // the first failed push every subsequent message must ALSO take the
  // overflow path or FIFO order would break when the drain replays
  // ring-then-overflow.
  if (!ch.overflow.empty() || !ch.ring.try_push(std::move(m))) {
    ch.overflow.push_back(std::move(m));
    ++ch.overflowed;
  }
#ifndef NDEBUG
  ch.debug_phase.store(0, std::memory_order_relaxed);
#endif
}

void ParallelRuntime::drain_inbound(std::size_t shard, std::size_t parity) {
  // Fixed source-shard order + per-ring FIFO makes the injection sequence —
  // and therefore the destination scheduler's tie-breaking ids — a pure
  // function of the plan, independent of thread timing. Batching changes
  // only the transport granularity: messages are staged in FIFO order and
  // inject_batch mints sequence numbers in array order, so the resulting
  // (when, seq) keys are identical to a per-message inject loop.
  Shard& sh = shards_[shard];
  const std::size_t n = plan_.num_shards;
  auto stage = [&sh](Msg&& m) {
    assert(m.deliver >= sh.sched->now());
    if (m.to_host) {
      topo::Host* h = &sh.net->host(m.local_index);
      sh.inject_burst.push_back(sim::Scheduler::BatchItem{
          m.deliver, [h, pkt = std::move(m.pkt)]() mutable {
            h->receive(std::move(pkt));
          }});
    } else {
      core::EventSwitch* s = &sh.net->sw(m.local_index);
      const std::uint16_t port = m.port;
      sh.inject_burst.push_back(sim::Scheduler::BatchItem{
          m.deliver, [s, port, pkt = std::move(m.pkt)]() mutable {
            s->arrive(port, std::move(pkt));  // ends the callback
          }});
    }
  };
  for (std::size_t src = 0; src < n; ++src) {
    Channel* ch = channel(parity, src, shard);
    if (!ch) {
      continue;
    }
#ifndef NDEBUG
    int expected = 0;
    assert(ch->debug_phase.compare_exchange_strong(
               expected, 2, std::memory_order_relaxed) &&
           "cross-shard drain raced a push: round-parity invariant broken");
#endif
    for (;;) {
      const std::size_t got =
          ch->ring.pop_burst(sh.drain_burst.data(), sh.drain_burst.size());
      if (got == 0) {
        break;
      }
      ++sh.ring_drains;
      sh.ring_drained += got;
      sh.inject_burst.clear();
      for (std::size_t i = 0; i < got; ++i) {
        stage(std::move(sh.drain_burst[i]));
      }
      sh.sched->inject_batch(sh.inject_burst.data(), sh.inject_burst.size());
    }
    // Overflow replays *after* the ring so the producer-side FIFO order
    // (ring first, then overflow once the ring filled) is preserved. The
    // unlocked read/clear is safe: this channel's producer pushed it one
    // round ago and is phase-separated from us by the round barrier.
    if (!ch->overflow.empty()) {
      sh.inject_burst.clear();
      for (auto& om : ch->overflow) {
        stage(std::move(om));
      }
      ch->overflow.clear();
      sh.sched->inject_batch(sh.inject_burst.data(), sh.inject_burst.size());
    }
#ifndef NDEBUG
    ch->debug_phase.store(0, std::memory_order_relaxed);
#endif
  }
}

void ParallelRuntime::compute_activity_bounds(std::size_t snap,
                                              std::int64_t* e) const {
  // Least fixpoint of
  //   E_j = min(N_j, min_k(min(E_k + L(k, j), M(k, j))))
  // where N is the published next-event time, M the published in-flight
  // minimum and L the pair lookahead. Seed with min(N, M) — the in-flight
  // terms do not depend on E — then relax the E_k + L edges to a fixpoint;
  // shortest constraint paths have < n edges, so n-1 sweeps suffice.
  const std::size_t n = plan_.num_shards;
  const std::vector<ClockSnap>& clk = clock_[snap];
  const std::vector<std::int64_t>& infl = inflight_[snap];
  for (std::size_t j = 0; j < n; ++j) {
    std::int64_t v = clk[j].next_ps;
    for (std::size_t k = 0; k < n; ++k) {
      v = std::min(v, infl[k * n + j]);
    }
    e[j] = v;
  }
  for (std::size_t sweep = 1; sweep < n; ++sweep) {
    bool changed = false;
    for (std::size_t j = 0; j < n; ++j) {
      std::int64_t v = e[j];
      for (std::size_t k = 0; k < n; ++k) {
        const std::int64_t l = pair_lookahead_ps_[k * n + j];
        if (l != kInfinity && e[k] != kInfinity) {
          v = std::min(v, saturating_add(e[k], l));
        }
      }
      if (v < e[j]) {
        e[j] = v;
        changed = true;
      }
    }
    if (!changed) {
      break;
    }
  }
}

bool ParallelRuntime::run_round(std::size_t worker, std::uint64_t q,
                                sim::Time deadline, std::int64_t* e) {
  const std::size_t n = plan_.num_shards;
  const std::size_t parity = q & 1;
  const std::size_t snap = (q + 1) & 1;  // previous round's publications
  compute_activity_bounds(snap, e);

  const std::size_t first = worker * shards_per_worker_;
  const std::size_t last = std::min(n, first + shards_per_worker_);
  for (std::size_t i = first; i < last; ++i) {
    Shard& sh = shards_[i];
    sh.parity = parity;
    // Reset this shard's outbound in-flight row for the new parity before
    // any push can happen.
    for (std::size_t dst = 0; dst < n; ++dst) {
      inflight_[parity][i * n + dst] = kInfinity;
    }
    // Deliveries pushed during the previous round enter the queue before
    // the window runs — they may fall inside it.
    drain_inbound(i, snap);

    // wend_i = min(deadline, min_j(E_j + L(j, i)) - 1 ps): nothing another
    // shard does from here on can affect shard i at or before wend_i.
    std::int64_t wend_ps = kInfinity;
    for (std::size_t j = 0; j < n; ++j) {
      const std::int64_t l = pair_lookahead_ps_[j * n + i];
      if (l != kInfinity && e[j] != kInfinity) {
        wend_ps = std::min(wend_ps, saturating_add(e[j], l));
      }
    }
    sim::Time wend = deadline;
    if (wend_ps != kInfinity && sim::Time::picos(wend_ps - 1) < deadline) {
      wend = sim::Time::picos(wend_ps - 1);
    }
    if (wend > sh.sched->now()) {
      sh.sched->run_until(wend);
    }
    const auto next = sh.sched->next_event_time();
    clock_[parity][i] =
        ClockSnap{sh.sched->now().ps(), next ? next->ps() : kInfinity};
  }
  if (worker == 0) {
    ++windows_;
  }
  if (round_barrier_) {
    round_barrier_->arrive_and_wait();
  }
  // Everyone reads the same just-published snapshot, so every worker
  // reaches the same verdict — no extra coordination needed.
  for (std::size_t i = 0; i < n; ++i) {
    if (clock_[parity][i].now_ps < deadline.ps()) {
      return false;
    }
  }
  return true;
}

void ParallelRuntime::run_rounds(std::size_t worker, sim::Time deadline) {
  const std::size_t n = plan_.num_shards;
  std::int64_t* e = bound_scratch_[worker].data();
  std::uint64_t q = round_;

  // Job entry: republish next-event times into the snapshot slot the first
  // round will read. The caller may have scheduled (or cancelled) events on
  // any shard since the last run, so the parked snapshot can be stale in
  // either direction. now() is unchanged; in-flight minima persist (rings
  // cannot be written between jobs).
  const std::size_t entry_snap = (q + 1) & 1;
  const std::size_t first = worker * shards_per_worker_;
  const std::size_t last = std::min(n, first + shards_per_worker_);
  for (std::size_t i = first; i < last; ++i) {
    Shard& sh = shards_[i];
    const auto next = sh.sched->next_event_time();
    clock_[entry_snap][i] =
        ClockSnap{sh.sched->now().ps(), next ? next->ps() : kInfinity};
  }
  if (round_barrier_) {
    round_barrier_->arrive_and_wait();
  }

  while (!run_round(worker, q, deadline, e)) {
    ++q;
  }
  ++q;
  if (worker == 0) {
    round_ = q;
  }
  // Publish round_ before any worker can report the job done: the next
  // job's workers read it at entry, and without this barrier a fast worker
  // could finish, let the caller launch the next job, and race worker 0's
  // write above.
  if (round_barrier_) {
    round_barrier_->arrive_and_wait();
  }
}

void ParallelRuntime::pool_main(std::size_t worker) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    sim::Time deadline;
    {
      std::unique_lock<std::mutex> lock(pool_mu_);
      pool_cv_.wait(lock, [&] { return stop_ || job_epoch_ != seen_epoch; });
      if (stop_) {
        return;
      }
      seen_epoch = job_epoch_;
      deadline = job_deadline_;
    }
    run_rounds(worker, deadline);
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      if (--running_ == 0) {
        done_cv_.notify_all();
      }
    }
  }
}

void ParallelRuntime::run_until(sim::Time deadline) {
  const sim::Time start = shards_[0].sched->now();
  if (deadline <= start) {
    return;
  }
  if (pool_size_ == 1) {
    // One shard, or fewer cores than shards: multiplex every shard on the
    // caller's thread. Same round loop, no barrier, no futex — the
    // oversubscribed configuration degrades to sequential windowing
    // instead of context-switch thrash.
    run_rounds(0, deadline);
    return;
  }
  std::unique_lock<std::mutex> lock(pool_mu_);
  job_deadline_ = deadline;
  running_ = pool_size_;
  ++job_epoch_;
  pool_cv_.notify_all();
  done_cv_.wait(lock, [&] { return running_ == 0; });
}

}  // namespace edp::runtime
