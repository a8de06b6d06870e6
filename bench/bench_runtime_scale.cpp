// Scaling harness for the sharded parallel runtime (docs/RUNTIME.md).
//
// Workload: an 8-switch leaf-spine fabric (4 leaves x 4 spines), 8 hosts,
// all-to-all Poisson traffic arriving as storm bursts — kBursts ON windows
// of kBurstSpan separated by quiet gaps, the scenario-engine pattern
// (PR 6) and the paper's motivating shape: activity is episodic, so an
// event-driven runtime should pay per event, not per polling tick. The old
// runtime barriered once per global-min lookahead (2us) no matter what,
// burning 500 windows per simulated ms even while the fabric was silent;
// the adaptive windows skip straight across the gaps. The same topo::Spec
// is executed with 1, 2 and 4 workers; for each worker count we report
// wall time, aggregate
// events/sec, synchronization rounds (windows) per simulated millisecond
// and the plan's cut fraction, and we verify the result digest is
// bit-identical to the 1-worker run (the determinism guarantee the runtime
// is built around — see tests/test_runtime.cpp for the seed-sweep property
// test).
//
// The perf gate is core-aware (the hw_threads field in the JSON makes the
// branch auditable):
//   * >= 4 hardware threads: 4 workers must beat 1 worker by >= 1.5x —
//     multi-worker runs must WIN when cores exist;
//   * fewer (e.g. the 1-thread CI container): wall time cannot tell
//     parallelism anything, so the gate falls back to determinism plus the
//     overhead bounds the adaptive-window rework established: windows per
//     simulated ms must stay >= 3x below the old global-min-lookahead
//     baseline (span / 2us cut delay = 500 windows/ms — the old runtime's
//     window count is workload-independent, so the constant is exact), and
//     the 4-worker run may cost at most 1.2x the 1-worker run.
//
// Results are also written as JSON (default ./BENCH_runtime.json, or
// argv[1]) to continue the perf trajectory across PRs.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "runtime/parallel_runtime.hpp"
#include "sim/heap_count.hpp"
#include "topo/routing.hpp"
#include "topo/spec.hpp"
#include "topo/traffic_gen.hpp"

namespace {

using namespace edp;
using net::Ipv4Address;

constexpr std::size_t kLeaves = 4;
constexpr std::size_t kSpines = 4;
constexpr std::size_t kHostsPerLeaf = 2;
constexpr auto kWarmSpan = sim::Time::millis(2);  ///< untimed pool warmup
constexpr auto kSpan = sim::Time::millis(20);
constexpr std::uint64_t kSeed = 42;
// Storm-burst schedule: ON for kBurstSpan at each multiple of kBurstPeriod.
constexpr std::size_t kBursts = 4;
constexpr auto kBurstPeriod = sim::Time::millis(5);
constexpr auto kBurstSpan = sim::Time::micros(1500);

// The pre-adaptive-lookahead runtime barriered once per global minimum cut
// delay: 2us fabric links -> 500 windows per simulated millisecond, no
// matter what the event population looked like. The adaptive windows must
// hold a >= 3x improvement on this workload.
constexpr double kBaselineWindowsPerSimMs = 500.0;
constexpr double kWindowsImprovementGate = 3.0;
// On a machine that cannot run the workers in parallel at all, the 4-worker
// run may cost at most this factor over the 1-worker run (the old runtime
// sat at ~2.9x).
constexpr double kOversubscribedWallFactor = 1.2;
// With >= 4 hardware threads, 4 workers must actually win.
constexpr double kParallelSpeedupGate = 1.5;

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
          // Deterministic spine choice per destination leaf.
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

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

struct Result {
  std::size_t workers = 0;
  std::size_t pool_threads = 0;  ///< threads actually executing shards
  double wall_ms = 0;
  std::uint64_t events = 0;  ///< timed phase only (warmup excluded)
  std::uint64_t cross_shard = 0;
  std::uint64_t ring_drains = 0;   ///< nonempty burst pops at barriers
  std::uint64_t ring_drained = 0;  ///< messages moved by those bursts
  std::uint64_t windows = 0;       ///< synchronization rounds (whole run)
  double cut_fraction = 0;         ///< cut links / total links in the plan
  std::uint64_t digest = 0;
  double allocations_per_event = 0;  ///< heap allocations (all threads) / event
};

Result run(std::size_t workers) {
  const topo::Spec spec = make_spec();
  runtime::ParallelRuntime rt(spec, topo::plan_shards(spec, workers));
  auto progs = make_programs();
  for (std::size_t i = 0; i < spec.num_switches(); ++i) {
    rt.sw(i).set_program(progs[i].get());
  }
  const std::size_t num_hosts = spec.num_hosts();
  std::vector<std::unique_ptr<topo::PoissonGenerator>> gens;
  for (std::size_t h = 0; h < num_hosts; ++h) {
    for (std::size_t b = 0; b < kBursts; ++b) {
      topo::PoissonGenerator::Config c;
      c.flow.src = rt.host(h).ip();
      c.flow.dst = rt.host((h + 3) % num_hosts).ip();  // mostly cross-leaf
      c.flow.src_port = static_cast<std::uint16_t>(10000 + h);
      c.flow.dst_port = static_cast<std::uint16_t>(20000 + h);
      c.flow.packet_size = 1000;
      c.mean_rate_bps = 500e6;
      c.start = kBurstPeriod * static_cast<std::int64_t>(b);
      c.stop = c.start + kBurstSpan;
      c.seed = (kSeed * 1000 + h) * kBursts + b;
      gens.push_back(std::make_unique<topo::PoissonGenerator>(
          rt.scheduler_of_host(h), rt.host(h), c));
      gens.back()->start();
    }
  }

  // Warmup window (untimed): brings schedulers, queues, and the packet
  // buffer pool to steady-state capacity so the timed phase measures the
  // kernel, not cold-start allocation. Splitting the run is result-neutral
  // (see ParallelRuntime.RepeatedRunUntilMatchesSingleRun).
  rt.run_until(kWarmSpan);
  const std::uint64_t warm_events = rt.total_executed();
  const std::optional<std::uint64_t> allocs_before = sim::heap_allocations();

  const auto t0 = std::chrono::steady_clock::now();
  rt.run_until(kSpan);
  const auto t1 = std::chrono::steady_clock::now();
  const std::optional<std::uint64_t> allocs_after = sim::heap_allocations();

  Result r;
  r.workers = workers;
  r.pool_threads = rt.num_workers();
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.events = rt.total_executed() - warm_events;
  r.cross_shard = rt.cross_shard_messages();
  r.ring_drains = rt.ring_drains();
  r.ring_drained = rt.ring_drained();
  r.windows = rt.windows();
  r.cut_fraction = rt.plan().cut_fraction;
  // NaN without a linked heap counter (the harness links one).
  r.allocations_per_event =
      allocs_before && allocs_after
          ? static_cast<double>(*allocs_after - *allocs_before) /
                static_cast<double>(r.events)
          : std::numeric_limits<double>::quiet_NaN();
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < spec.num_switches(); ++i) {
    const auto& c = rt.sw(i).counters();
    for (std::uint64_t v : {c.rx_packets, c.tx_packets, c.tx_bytes,
                            c.program_drops, c.bad_port_drops}) {
      h = fnv_mix(h, v);
    }
  }
  for (std::size_t i = 0; i < num_hosts; ++i) {
    h = fnv_mix(h, rt.host(i).rx_packets());
    h = fnv_mix(h, rt.host(i).rx_bytes());
  }
  r.digest = h;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_runtime.json";
  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());
  const double sim_ms = kSpan.as_millis();
  std::printf("bench_runtime_scale: %zu-switch leaf-spine, %zu hosts, "
              "%lld ms simulated, %u hw threads\n\n",
              kLeaves + kSpines, kLeaves * kHostsPerLeaf,
              static_cast<long long>(kSpan.ps() / 1'000'000'000), hw_threads);

  std::vector<Result> results;
  for (std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    results.push_back(run(workers));
  }

  const Result& base = results.front();
  bool deterministic = true;
  edp::bench::TextTable table(
      {"workers", "threads", "wall ms", "events/sec", "speedup", "cross-shard",
       "windows", "win/sim-ms", "cut frac", "allocs/event", "digest match"});
  for (const Result& r : results) {
    const bool match = r.digest == base.digest;
    deterministic = deterministic && match;
    char buf[64];
    std::vector<std::string> row;
    row.push_back(std::to_string(r.workers));
    row.push_back(std::to_string(r.pool_threads));
    std::snprintf(buf, sizeof buf, "%.1f", r.wall_ms);
    row.push_back(buf);
    std::snprintf(buf, sizeof buf, "%.3g",
                  static_cast<double>(r.events) / (r.wall_ms / 1e3));
    row.push_back(buf);
    std::snprintf(buf, sizeof buf, "%.2fx", base.wall_ms / r.wall_ms);
    row.push_back(buf);
    row.push_back(std::to_string(r.cross_shard));
    row.push_back(std::to_string(r.windows));
    std::snprintf(buf, sizeof buf, "%.1f",
                  static_cast<double>(r.windows) / sim_ms);
    row.push_back(buf);
    std::snprintf(buf, sizeof buf, "%.2f", r.cut_fraction);
    row.push_back(buf);
    std::snprintf(buf, sizeof buf, "%.4f", r.allocations_per_event);
    row.push_back(buf);
    row.push_back(match ? "yes" : "NO");
    table.add_row(std::move(row));
  }
  table.print();

  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"runtime_scale\",\n"
       << "  \"topology\": \"" << kLeaves << "-leaf/" << kSpines
       << "-spine\",\n"
       << "  \"sim_millis\": " << (kSpan.ps() / 1'000'000'000) << ",\n"
       << "  \"hw_threads\": " << hw_threads << ",\n"
       << "  \"gate\": \""
       << (hw_threads >= 4 ? "speedup4 >= 1.5x" : "windows + wall-factor")
       << "\",\n"
       << "  \"baseline_windows_per_sim_ms\": " << kBaselineWindowsPerSimMs
       << ",\n"
       << "  \"deterministic\": " << (deterministic ? "true" : "false")
       << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    json << "    {\"workers\": " << r.workers
         << ", \"pool_threads\": " << r.pool_threads
         << ", \"wall_ms\": " << r.wall_ms
         << ", \"events\": " << r.events << ", \"events_per_sec\": "
         << static_cast<std::uint64_t>(static_cast<double>(r.events) /
                                       (r.wall_ms / 1e3))
         << ", \"speedup\": " << (base.wall_ms / r.wall_ms)
         << ", \"cross_shard_messages\": " << r.cross_shard
         << ", \"ring_drains\": " << r.ring_drains
         << ", \"avg_drain_burst\": "
         << (r.ring_drains == 0 ? 0.0
                                : static_cast<double>(r.ring_drained) /
                                      static_cast<double>(r.ring_drains))
         << ", \"windows\": " << r.windows
         << ", \"windows_per_sim_ms\": "
         << (static_cast<double>(r.windows) / sim_ms)
         << ", \"cut_fraction\": " << r.cut_fraction
         << ", \"allocations_per_event\": " << r.allocations_per_event << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  json.flush();
  if (!json) {
    std::printf("\nERROR: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());

  if (!deterministic) {
    std::printf("FAIL: parallel digests diverge from the 1-worker run\n");
    return 1;
  }

  const Result& par4 = results.back();
  const double speedup4 = base.wall_ms / par4.wall_ms;
  if (hw_threads >= 4) {
    // Cores exist: multi-worker must win outright.
    if (speedup4 < kParallelSpeedupGate) {
      std::printf("FAIL: %u hw threads but 4-worker speedup %.2fx < %.2fx\n",
                  hw_threads, speedup4, kParallelSpeedupGate);
      return 1;
    }
    std::printf("OK: 4-worker speedup %.2fx (gate %.2fx, %u hw threads)\n",
                speedup4, kParallelSpeedupGate, hw_threads);
    return 0;
  }

  // Too few cores for wall-clock speedup; gate the overheads instead.
  const double win_per_ms = static_cast<double>(par4.windows) / sim_ms;
  const double win_gate = kBaselineWindowsPerSimMs / kWindowsImprovementGate;
  if (win_per_ms > win_gate) {
    std::printf("FAIL: %.1f windows/sim-ms at 4 workers; adaptive lookahead "
                "gate is <= %.1f (baseline %.0f)\n",
                win_per_ms, win_gate, kBaselineWindowsPerSimMs);
    return 1;
  }
  const double wall_factor = par4.wall_ms / base.wall_ms;
  if (wall_factor > kOversubscribedWallFactor) {
    std::printf("FAIL: 4-worker wall %.2fx the 1-worker wall; oversubscribed "
                "gate is <= %.2fx\n",
                wall_factor, kOversubscribedWallFactor);
    return 1;
  }
  std::printf("OK: determinism + %.1f windows/sim-ms (gate %.1f) + "
              "oversubscribed wall factor %.2fx (gate %.2fx)\n",
              win_per_ms, win_gate, wall_factor, kOversubscribedWallFactor);
  return 0;
}
