// Hot-path event-kernel microbenchmark (docs/PERFORMANCE.md).
//
// Measures the simulation kernel's per-event cost on three axes:
//
//   schedule_fire   — tight schedule -> fire cycles through sim::Scheduler
//                     with a trivial callback: the pure dispatch floor.
//   schedule_cancel — schedule followed by cancel, never fired: the cost a
//                     retransmit timer or rearmed wakeup pays per event.
//   mixed_seq       — a 4-leaf/4-spine fabric with all-to-all Poisson
//                     traffic run sequentially (1 shard): the realistic
//                     blend of packets, timers, queues, and buffer events.
//   mixed_2shard    — the same spec on 2 shards through ParallelRuntime.
//   timer_storm     — 10k self-rescheduling periodic timers at the period
//                     classes the rate-based apps use (policer refill
//                     100 µs, liveness check 500 µs, AQM update 1 ms).
//                     Each policer-class refill additionally resets four
//                     flow-liveness watchdogs (cancel + re-arm 500 µs out,
//                     the mod_timer pattern: watchdogs are reset by traffic
//                     far more often than they fire). Run twice: once on
//                     the timing-wheel tier and once heap-only
//                     (timer_storm_heap), to keep the wheel win measured
//                     rather than asserted. The churn is where the wheel
//                     earns its keep: cancels are O(1) forget-and-skip,
//                     while the heap sifts every stale entry it pops.
//
// Results are written to BENCH_sched.json (argv[1] overrides the path).
// The mixed_seq result is compared against the recorded pre-PR baseline
// (measured on this repo at the PR-1 head with identical Release flags and
// workload), in simulated packets per second; the harness exits nonzero
// when the required speedup or the steady-state zero-allocation property
// (heap allocations per event over each timed phase, counted by the linked
// edp_heap_counter) is violated, so the win stays measured, not asserted.
// Build in Release (scripts/check.sh does).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "runtime/parallel_runtime.hpp"
#include "sim/heap_count.hpp"
#include "sim/scheduler.hpp"
#include "topo/routing.hpp"
#include "topo/spec.hpp"
#include "topo/traffic_gen.hpp"

namespace {

using namespace edp;
using net::Ipv4Address;

// Pre-PR baseline (commit 2ba4a3e, Release -O2 -DNDEBUG, this container):
// the std::function + unordered_set scheduler, best-of-3 on the identical
// workloads. Updated only when the workload itself changes.
constexpr double kPrePrScheduleFire = 6.01e6;   // events/sec
constexpr double kPrePrScheduleCancel = 4.41e6; // events/sec
constexpr double kPrePrMixedSeq = 1.21e6;       // events/sec
constexpr double kRequiredMixedSpeedup = 2.5;
// The mixed_seq gate counts packets: a kernel that folds scheduler
// callbacks simulates more packets per second at fewer events per second.
// The bar in packets is the events/sec bar divided by the events per
// packet of the timed phase on the last kernel that fired one callback
// per slot and per transmit completion — a deterministic count: 517,480
// callbacks for 33,959 packets (15.24 per packet). 2.5 x 1.21e6 events/s
// is thus 198,512 packets/s.
constexpr double kMixedSeqEventsPerPacket = 517480.0 / 33959.0;
constexpr double kRequiredMixedPacketsPerSec =
    kRequiredMixedSpeedup * kPrePrMixedSeq / kMixedSeqEventsPerPacket;
// timer_storm is gated against the heap-only run of the same binary (not a
// recorded baseline): the wheel tier must make dense periodic timers at
// least this much faster than 4-ary-heap scheduling of the same workload.
constexpr double kRequiredStormSpeedup = 3.0;
// Steady-state heap traffic tolerance over every timed phase (global
// operator new, all threads): pools and queues may still grow marginally
// as their high-water marks creep (a handful of allocations over half a
// million events), but per-event allocation is gone.
constexpr double kMaxAllocsPerEvent = 0.01;

struct WorkloadResult {
  std::string name;
  std::uint64_t events = 0;
  double wall_ms = 0;
  double events_per_sec = 0;
  double allocations_per_event = 0;
  std::uint64_t packets = 0;  ///< mixed workloads: packets the hosts sent
  double packets_per_sec = 0;
};

double secs_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Heap allocations so far. The harness links edp_heap_counter, so a
/// missing counter means a broken build, not a zero.
std::uint64_t heap_now() {
  const std::optional<std::uint64_t> n = sim::heap_allocations();
  if (!n) {
    std::fprintf(stderr, "FAIL: no heap counter linked\n");
    std::exit(1);
  }
  return *n;
}

double per_event(std::uint64_t allocs, std::uint64_t events) {
  return static_cast<double>(allocs) / static_cast<double>(events);
}

WorkloadResult bench_schedule_fire() {
  sim::Scheduler sched;
  constexpr std::size_t kBatch = 4096;
  constexpr std::size_t kRounds = 512;
  std::uint64_t count = 0;
  // Warm one round so vectors/pools reach steady-state capacity.
  for (std::size_t i = 0; i < kBatch; ++i) {
    sched.after(sim::Time::nanos(static_cast<std::int64_t>(i) + 1),
                [&count] { ++count; });
  }
  sched.run();

  const std::uint64_t allocs_before = heap_now();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < kRounds; ++r) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      sched.after(sim::Time::nanos(static_cast<std::int64_t>(i) + 1),
                  [&count] { ++count; });
    }
    sched.run();
  }
  const double wall = secs_since(t0);
  const std::uint64_t allocs = heap_now() - allocs_before;

  WorkloadResult r;
  r.name = "schedule_fire";
  r.events = kBatch * kRounds;
  r.wall_ms = wall * 1e3;
  r.events_per_sec = static_cast<double>(r.events) / wall;
  r.allocations_per_event = per_event(allocs, r.events);
  return r;
}

WorkloadResult bench_schedule_cancel() {
  sim::Scheduler sched;
  constexpr std::size_t kBatch = 4096;
  constexpr std::size_t kRounds = 512;
  std::vector<sim::EventId> ids(kBatch);
  std::uint64_t count = 0;
  const auto round = [&] {
    for (std::size_t i = 0; i < kBatch; ++i) {
      ids[i] = sched.after(sim::Time::nanos(static_cast<std::int64_t>(i) + 1),
                           [&count] { ++count; });
    }
    for (std::size_t i = 0; i < kBatch; ++i) {
      sched.cancel(ids[i]);
    }
    sched.run();  // collects the lazily-discarded heap entries
  };
  round();  // warm: vectors reach steady-state capacity

  const std::uint64_t allocs_before = heap_now();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < kRounds; ++r) {
    round();
  }
  const double wall = secs_since(t0);
  const std::uint64_t allocs = heap_now() - allocs_before;

  WorkloadResult r;
  r.name = "schedule_cancel";
  r.events = kBatch * kRounds;
  r.wall_ms = wall * 1e3;
  r.events_per_sec = static_cast<double>(r.events) / wall;
  r.allocations_per_event = per_event(allocs, r.events);
  if (count != 0) {
    std::fprintf(stderr, "FAIL: cancelled callback fired\n");
    std::exit(1);
  }
  return r;
}

// ---- timer storm (dense periodic timers, wheel vs heap-only) ----------------

/// A self-rescheduling periodic timer, the PeriodicTask pattern without the
/// std::function: what policer refill / liveness check / AQM update loops
/// reduce to at the kernel level. Policer-class timers also reset a block
/// of flow-liveness watchdogs each refill (cancel + re-arm, mod_timer
/// style); under healthy traffic those watchdogs never fire.
struct StormTimer {
  static constexpr int kWatchdogs = 4;

  sim::Scheduler* sched = nullptr;
  sim::Time period = sim::Time::zero();
  std::uint64_t fires = 0;
  sim::EventId* watchdogs = nullptr;  ///< block of kWatchdogs ids, or null
  sim::Time watchdog_period = sim::Time::zero();

  void fire() {
    ++fires;
    if (watchdogs != nullptr) {
      sched->cancel_batch(watchdogs, kWatchdogs);
      for (int j = 0; j < kWatchdogs; ++j) {
        watchdogs[j] = sched->after(watchdog_period, [] {});
      }
    }
    sched->after(period, [this] { fire(); });
  }
};

WorkloadResult bench_timer_storm_mode(bool use_wheel) {
  constexpr std::size_t kTimers = 10000;
  constexpr auto kStormWarm = sim::Time::millis(2);
  constexpr auto kStormSpan = sim::Time::millis(20);
  // The rate-based apps' period classes (policer refill, liveness check,
  // AQM sample/update). All three re-arm inside the wheel horizon
  // (~2.1 ms), so with the wheel on the storm never touches the heap tier;
  // the heap-only run sifts every one of them.
  static constexpr std::int64_t kPeriodsUs[3] = {100, 500, 1000};

  sim::Scheduler sched{sim::SchedulerOptions{use_wheel}};
  std::vector<StormTimer> timers(kTimers);
  std::vector<sim::EventId> watchdog_ids(
      StormTimer::kWatchdogs * (kTimers / 3 + 1), 0);
  for (std::size_t i = 0; i < kTimers; ++i) {
    timers[i].sched = &sched;
    timers[i].period = sim::Time::micros(kPeriodsUs[i % 3]);
    if (i % 3 == 0) {
      // Policer class: each refill batch resets this block of watchdogs.
      timers[i].watchdogs =
          &watchdog_ids[StormTimer::kWatchdogs * (i / 3)];
      timers[i].watchdog_period = sim::Time::micros(500);
    }
    // Deterministic phase stagger so expirations arrive as dense bursts
    // across many ticks, not one synchronized spike per period.
    const sim::Time phase(static_cast<std::int64_t>((i * 977) % 100000) *
                          1000);
    StormTimer* t = &timers[i];
    sched.at(timers[i].period + phase, [t] { t->fire(); });
  }
  sched.run_until(kStormWarm);
  const std::uint64_t warm_events = sched.executed();

  const std::uint64_t allocs_before = heap_now();
  const auto t0 = std::chrono::steady_clock::now();
  sched.run_until(kStormSpan);
  const double wall = secs_since(t0);
  const std::uint64_t allocs = heap_now() - allocs_before;

  WorkloadResult r;
  r.name = use_wheel ? "timer_storm" : "timer_storm_heap";
  r.events = sched.executed() - warm_events;
  r.wall_ms = wall * 1e3;
  r.events_per_sec = static_cast<double>(r.events) / wall;
  r.allocations_per_event = per_event(allocs, r.events);
  return r;
}

WorkloadResult bench_timer_storm() { return bench_timer_storm_mode(true); }
WorkloadResult bench_timer_storm_heap() {
  return bench_timer_storm_mode(false);
}

// ---- mixed packet workload (the bench_runtime_scale fabric, shorter) --------

constexpr std::size_t kLeaves = 4;
constexpr std::size_t kSpines = 4;
constexpr std::size_t kHostsPerLeaf = 2;
constexpr auto kWarmSpan = sim::Time::millis(2);
constexpr auto kSpan = sim::Time::millis(20);
constexpr std::uint64_t kSeed = 42;

topo::Spec make_spec() {
  topo::Spec spec;
  for (std::size_t l = 0; l < kLeaves; ++l) {
    core::EventSwitchConfig c;
    c.name = "leaf" + std::to_string(l);
    c.num_ports = static_cast<std::uint16_t>(kHostsPerLeaf + kSpines);
    spec.add_switch(c);
  }
  for (std::size_t s = 0; s < kSpines; ++s) {
    core::EventSwitchConfig c;
    c.name = "spine" + std::to_string(s);
    c.num_ports = static_cast<std::uint16_t>(kLeaves);
    spec.add_switch(c);
  }
  topo::Link::Config host_link;
  host_link.delay = sim::Time::nanos(500);
  topo::Link::Config fabric_link;
  fabric_link.delay = sim::Time::micros(2);
  for (std::size_t l = 0; l < kLeaves; ++l) {
    for (std::size_t k = 0; k < kHostsPerLeaf; ++k) {
      topo::Host::Config hc;
      hc.name = "h" + std::to_string(l * kHostsPerLeaf + k);
      hc.ip = Ipv4Address(10, 0, static_cast<std::uint8_t>(l),
                          static_cast<std::uint8_t>(1 + k));
      hc.mac = net::MacAddress::from_u64(0x020000000000ULL + hc.ip.value());
      const auto h = spec.add_host(hc);
      spec.connect_host(h, l, static_cast<std::uint16_t>(k), host_link);
    }
  }
  for (std::size_t l = 0; l < kLeaves; ++l) {
    for (std::size_t s = 0; s < kSpines; ++s) {
      spec.connect_switches(l, static_cast<std::uint16_t>(kHostsPerLeaf + s),
                            kLeaves + s, static_cast<std::uint16_t>(l),
                            fabric_link);
    }
  }
  return spec;
}

std::vector<std::unique_ptr<topo::L3Program>> make_programs() {
  std::vector<std::unique_ptr<topo::L3Program>> progs;
  for (std::size_t l = 0; l < kLeaves; ++l) {
    auto p = std::make_unique<topo::L3Program>();
    for (std::size_t m = 0; m < kLeaves; ++m) {
      for (std::size_t k = 0; k < kHostsPerLeaf; ++k) {
        const Ipv4Address ip(10, 0, static_cast<std::uint8_t>(m),
                             static_cast<std::uint8_t>(1 + k));
        if (m == l) {
          p->add_route(ip, 32, static_cast<std::uint16_t>(k));
        } else {
          p->add_route(ip, 32,
                       static_cast<std::uint16_t>(kHostsPerLeaf + m % kSpines));
        }
      }
    }
    progs.push_back(std::move(p));
  }
  for (std::size_t s = 0; s < kSpines; ++s) {
    auto p = std::make_unique<topo::L3Program>();
    for (std::size_t m = 0; m < kLeaves; ++m) {
      p->add_route(Ipv4Address(10, 0, static_cast<std::uint8_t>(m), 0), 24,
                   static_cast<std::uint16_t>(m));
    }
    progs.push_back(std::move(p));
  }
  return progs;
}

WorkloadResult bench_mixed(std::size_t shards) {
  const topo::Spec spec = make_spec();
  runtime::ParallelRuntime rt(spec, topo::plan_shards(spec, shards));
  auto progs = make_programs();
  for (std::size_t i = 0; i < spec.num_switches(); ++i) {
    rt.sw(i).set_program(progs[i].get());
  }
  const std::size_t num_hosts = spec.num_hosts();
  std::vector<std::unique_ptr<topo::PoissonGenerator>> gens;
  for (std::size_t h = 0; h < num_hosts; ++h) {
    topo::PoissonGenerator::Config c;
    c.flow.src = rt.host(h).ip();
    c.flow.dst = rt.host((h + 3) % num_hosts).ip();
    c.flow.src_port = static_cast<std::uint16_t>(10000 + h);
    c.flow.dst_port = static_cast<std::uint16_t>(20000 + h);
    c.flow.packet_size = 1000;
    c.mean_rate_bps = 2e9;
    c.stop = kSpan - sim::Time::millis(1);
    c.seed = kSeed * 1000 + h;
    gens.push_back(std::make_unique<topo::PoissonGenerator>(
        rt.scheduler_of_host(h), rt.host(h), c));
    gens.back()->start();
  }

  // Warmup phase: establishes pool/queue capacities before the timed phase
  // so the measurement reflects steady state, not cold-start allocation.
  rt.run_until(kWarmSpan);
  const std::uint64_t warm_events = rt.total_executed();
  const auto sent = [&gens] {
    std::uint64_t n = 0;
    for (const auto& g : gens) {
      n += g->sent();
    }
    return n;
  };
  const std::uint64_t warm_packets = sent();
  const std::uint64_t allocs_before = heap_now();

  const auto t0 = std::chrono::steady_clock::now();
  rt.run_until(kSpan);
  const double wall = secs_since(t0);
  const std::uint64_t allocs = heap_now() - allocs_before;

  WorkloadResult r;
  r.name = shards == 1 ? "mixed_seq" : ("mixed_" + std::to_string(shards) +
                                        "shard");
  r.events = rt.total_executed() - warm_events;
  r.wall_ms = wall * 1e3;
  r.events_per_sec = static_cast<double>(r.events) / wall;
  r.allocations_per_event = per_event(allocs, r.events);
  r.packets = sent() - warm_packets;
  r.packets_per_sec = static_cast<double>(r.packets) / wall;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_sched.json";
  std::printf("bench_sched_throughput: scheduler hot-path microbenchmark\n\n");

  // Best-of-5 per workload: this box is a single shared vCPU, and the
  // fastest repetition is the least-perturbed measurement of the kernel.
  constexpr int kRepeats = 5;
  const auto best = [](WorkloadResult (*fn)()) {
    WorkloadResult best_r = fn();
    for (int i = 1; i < kRepeats; ++i) {
      WorkloadResult r = fn();
      if (r.events_per_sec > best_r.events_per_sec) {
        best_r = r;
      }
    }
    return best_r;
  };
  const auto best_mixed = [](std::size_t shards) {
    WorkloadResult best_r = bench_mixed(shards);
    for (int i = 1; i < kRepeats; ++i) {
      WorkloadResult r = bench_mixed(shards);
      if (r.packets_per_sec > best_r.packets_per_sec) {
        best_r = r;
      }
    }
    return best_r;
  };

  std::vector<WorkloadResult> results;
  results.push_back(best(bench_schedule_fire));
  results.push_back(best(bench_schedule_cancel));
  results.push_back(best_mixed(1));
  results.push_back(best_mixed(2));
  results.push_back(best(bench_timer_storm));
  results.push_back(best(bench_timer_storm_heap));

  edp::bench::TextTable table({"workload", "events", "wall ms", "events/sec",
                               "packets/sec", "allocs/event"});
  for (const auto& r : results) {
    table.add_row({r.name, std::to_string(r.events),
                   edp::bench::fmt("%.1f", r.wall_ms),
                   edp::bench::fmt("%.3g", r.events_per_sec),
                   r.packets > 0 ? edp::bench::fmt("%.3g", r.packets_per_sec)
                                 : std::string("-"),
                   edp::bench::fmt("%.4f", r.allocations_per_event)});
  }
  table.print();

  // In packet terms: the baseline's events/sec at the events per packet of
  // the gate's calibration (see kMixedSeqEventsPerPacket).
  const double mixed_seq_pps = results[2].packets_per_sec;
  const double mixed_speedup =
      mixed_seq_pps * kMixedSeqEventsPerPacket / kPrePrMixedSeq;
  const double fire_speedup = results[0].events_per_sec / kPrePrScheduleFire;
  const double cancel_speedup =
      results[1].events_per_sec / kPrePrScheduleCancel;
  const double storm_speedup =
      results[4].events_per_sec / results[5].events_per_sec;
  std::printf("\nspeedup vs pre-PR baseline: schedule_fire %.2fx, "
              "schedule_cancel %.2fx, mixed_seq %.2fx in packets/sec "
              "(required: %.1fx = %.3g packets/sec)\n",
              fire_speedup, cancel_speedup, mixed_speedup,
              kRequiredMixedSpeedup, kRequiredMixedPacketsPerSec);
  std::printf("timer_storm wheel vs heap-only: %.2fx (required: %.1fx)\n",
              storm_speedup, kRequiredStormSpeedup);

  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"sched_throughput\",\n"
       << "  \"baseline\": {\"commit\": \"2ba4a3e\", \"schedule_fire\": "
       << static_cast<std::uint64_t>(kPrePrScheduleFire)
       << ", \"schedule_cancel\": "
       << static_cast<std::uint64_t>(kPrePrScheduleCancel)
       << ", \"mixed_seq\": " << static_cast<std::uint64_t>(kPrePrMixedSeq)
       << "},\n"
       << "  \"mixed_seq_packets_per_sec\": "
       << static_cast<std::uint64_t>(mixed_seq_pps)
       << ",\n  \"mixed_seq_gate_packets_per_sec\": "
       << static_cast<std::uint64_t>(kRequiredMixedPacketsPerSec)
       << ",\n  \"mixed_seq_speedup\": " << edp::bench::fmt("%.2f", mixed_speedup)
       << ",\n  \"timer_storm_speedup\": "
       << edp::bench::fmt("%.2f", storm_speedup) << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    json << "    {\"workload\": \"" << r.name << "\", \"events\": " << r.events
         << ", \"wall_ms\": " << r.wall_ms << ", \"events_per_sec\": "
         << static_cast<std::uint64_t>(r.events_per_sec)
         << ", \"packets\": " << r.packets << ", \"packets_per_sec\": "
         << static_cast<std::uint64_t>(r.packets_per_sec)
         << ", \"allocations_per_event\": " << r.allocations_per_event << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  json.flush();
  std::printf("wrote %s\n", json_path.c_str());

  bool ok = true;
  if (mixed_speedup < kRequiredMixedSpeedup) {
    std::fprintf(stderr,
                 "FAIL: mixed_seq %.3g packets/sec, speedup %.2fx < "
                 "required %.1fx\n",
                 mixed_seq_pps, mixed_speedup, kRequiredMixedSpeedup);
    ok = false;
  }
  if (storm_speedup < kRequiredStormSpeedup) {
    std::fprintf(stderr,
                 "FAIL: timer_storm wheel speedup %.2fx < required %.1fx "
                 "over heap-only\n",
                 storm_speedup, kRequiredStormSpeedup);
    ok = false;
  }
  for (const auto& r : results) {
    if (r.allocations_per_event > kMaxAllocsPerEvent) {
      std::fprintf(stderr,
                   "FAIL: %s makes %.4f heap allocations/event in steady "
                   "state (max %.2f)\n",
                   r.name.c_str(), r.allocations_per_event,
                   kMaxAllocsPerEvent);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
