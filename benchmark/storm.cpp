// storm_seq / storm_4shard: the `edp_scen run` path.
//
// An ecn-marking DUT behind 4 edge switches x 2 source hosts, fed by an
// open-loop storm (web-search flow sizes, Poisson arrivals at load 0.4,
// 4-way incast, 16-packet microbursts, 5000 flows), run as a batch to the
// scenario's horizon, on 1 or on 4 shards.
//
// Every shard plan runs on one worker thread. replay() would give each of
// the 4 shards its own thread, and on a shared 4-vCPU host a barrier that
// needs all four at every round measures the host's scheduler: two sets of
// ten such runs spread 23% and 31% between seeds. On one worker the round
// loop runs inline, so the gap between the two workloads is the runtime's
// own work (rounds, window fixpoint, rings). replay() keeps its runtime
// options to itself, so the harness builds the scenario from the public
// calls replay() makes, and every run checks that this reproduces replay()'s
// outcome — which keeps the two from drifting apart.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "net/packet.hpp"
#include "runtime/parallel_runtime.hpp"
#include "workload/replay.hpp"

namespace edp::bench {
namespace {

constexpr const char* kApp = "ecn-marking";

workload::ScenarioSpec storm_spec(std::uint64_t seed) {
  workload::ScenarioSpec s;
  s.name = "bench-storm";
  s.seed = seed;
  s.edges = 4;
  s.hosts_per_edge = 2;
  s.sizes = workload::SizeMix::kWebSearch;
  s.arrivals = workload::ArrivalSampler::Kind::kPoisson;
  s.load = 0.4;
  s.flows = 5000;
  s.incast_degree = 4;
  s.burst_packets = 16;
  return s;
}

/// The outcome fields both the harness's run and replay() produce.
struct StormTotals {
  std::uint64_t events = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t flows_started = 0;
  std::uint64_t bursts = 0;
  std::uint64_t incast_waves = 0;
  std::uint64_t sink_rx = 0;
  std::uint64_t dut_tx = 0;
  std::uint64_t dut_drops = 0;
  std::uint64_t cross_shard = 0;

  bool operator==(const StormTotals&) const = default;
};

StormTotals totals_of(const workload::ScenarioOutcome& o) {
  return {o.events,       o.packets_sent,    o.flows_started,
          o.bursts,       o.incast_waves,    o.sink_rx_packets,
          o.dut_tx_packets, o.dut_program_drops, o.cross_shard_messages};
}

/// The storm, built step for step as replay() builds it (the workload has
/// no link flaps and its app needs no extra routes), on one worker.
/// Constructing it is the set-up phase; every set-up step and run_until
/// chunk is timed on its own in `spans`. With `traced`, the DUT program is
/// wrapped in a TracedProgram.
struct StormRun {
  StormRun(const workload::ScenarioSpec& base,
           const apps::RegisteredProgram& app, std::size_t shards,
           bool traced) {
    spans.reserve(64);  // no allocation on the main thread mid-run
    double t = wall_now();
    spec = workload::apply_rates(base, app.rates);
    map = workload::build_topology(spec, topo);
    span("setup.topology", t);
    t = wall_now();
    runtime::RuntimeOptions options;
    options.max_workers = 1;
    rt = std::make_unique<runtime::ParallelRuntime>(
        topo, topo::plan_shards(topo, shards), options);
    span("setup.runtime", t);
    runtime_setup_s = spans.back().second;

    t = wall_now();
    program = app.factory();
    if (traced) {
      tracer = std::make_unique<TracedProgram>(*program);
    }
    core::EventSwitch& dut = rt->sw(map.dut);
    dut.set_program(&dut_program());
    dut_program().visit_aggregated(
        [&](core::AggregatedRegister& reg) { dut.register_aggregated(reg); });
    const auto uplink = static_cast<std::uint16_t>(spec.hosts_per_edge);
    for (std::size_t e = 0; e < spec.edges; ++e) {
      auto prog = std::make_unique<workload::EdgeProgram>(uplink);
      prog->add_route(net::Ipv4Address(10, 0, 0, 0), 8, uplink);
      for (std::size_t h = 0; h < spec.hosts_per_edge; ++h) {
        prog->add_route(map.source_ips[e * spec.hosts_per_edge + h], 32,
                        static_cast<std::uint16_t>(h));
      }
      rt->sw(map.edges[e]).set_program(prog.get());
      edge_programs.push_back(std::move(prog));
    }
    span("setup.programs", t);

    t = wall_now();
    for (std::size_t i = 0; i < map.source_hosts.size(); ++i) {
      workload::StormSource::Config c;
      c.source_index = i;
      c.seed = spec.seed;
      c.src_ip = map.source_ips[i];
      c.dst_ip = map.sink_ip;
      c.packet_bytes = std::max<std::size_t>(spec.packet_bytes, 64);
      c.nic_rate_bps = spec.nic_rate_bps;
      c.flow_budget = spec.flows_per_source();
      c.cdf = &spec.size_cdf();
      c.cap_bytes = spec.flow_size_cap_bytes;
      c.arrivals.kind = spec.arrivals;
      c.arrivals.flows_per_sec = spec.flows_per_sec_per_source();
      c.arrivals.on_mean = spec.on_mean;
      c.arrivals.off_mean = spec.off_mean;
      if (spec.incast_degree > i) {
        c.incast_flow_bytes = spec.incast_flow_bytes;
        c.incast_period = spec.incast_period;
      }
      c.burst_packets = spec.burst_packets;
      c.burst_period = spec.burst_period;
      c.stop = spec.active_span();
      const std::size_t host = map.source_hosts[i];
      sources.push_back(std::make_unique<workload::StormSource>(
          rt->scheduler_of_host(host), rt->host(host), c));
      sources.back()->start();
    }
    span("setup.sources", t);
  }

  StormRun(const StormRun&) = delete;
  StormRun& operator=(const StormRun&) = delete;

  core::EventProgram& dut_program() {
    return tracer ? static_cast<core::EventProgram&>(*tracer) : *program;
  }

  /// Runs to the horizon in replay()'s chunks: a warm-up chunk, then 50 ms.
  void run() {
    const sim::Time horizon = spec.horizon();
    const sim::Time chunk = sim::Time::millis(50);
    const sim::Time warmup = std::min(chunk, sim::Time(horizon.ps() / 10));
    double t = wall_now();
    rt->run_until(std::min(warmup, horizon));
    span("run_until.0", t);
    warm_events = rt->total_executed();
    warm_pool = net::packet_buffer_pool_stats().allocated;
    int chunk_index = 0;
    for (sim::Time end = warmup; end < horizon;) {
      end = std::min(horizon, end + chunk);
      t = wall_now();
      rt->run_until(end);
      span("run_until." + std::to_string(++chunk_index), t);
    }
  }

  StormTotals totals() {
    StormTotals out;
    for (const auto& src : sources) {
      out.packets_sent += src->packets_sent();
      out.flows_started += src->flows_started();
      out.bursts += src->bursts();
      out.incast_waves += src->incast_waves();
    }
    out.events = rt->total_executed();
    out.cross_shard = rt->cross_shard_messages();
    out.sink_rx = rt->host(map.sink_host).rx_packets();
    out.dut_tx = rt->sw(map.dut).counters().tx_packets;
    out.dut_drops = rt->sw(map.dut).counters().program_drops;
    return out;
  }

  void span(std::string name, double start) {
    spans.emplace_back(std::move(name), wall_now() - start);
  }

  workload::ScenarioSpec spec;
  topo::Spec topo;
  workload::TopologyMap map;
  std::unique_ptr<runtime::ParallelRuntime> rt;
  std::unique_ptr<core::EventProgram> program;
  std::unique_ptr<TracedProgram> tracer;  ///< wraps program when traced
  std::vector<std::unique_ptr<workload::EdgeProgram>> edge_programs;
  std::vector<std::unique_ptr<workload::StormSource>> sources;
  std::vector<std::pair<std::string, double>> spans;
  double runtime_setup_s = 0;     ///< ParallelRuntime construction
  std::uint64_t warm_events = 0;  ///< events after the warm-up chunk
  std::uint64_t warm_pool = 0;    ///< pool misses after the warm-up chunk
};

/// The traced repetition: the per-layer metrics, read from the public
/// accessors after the run.
StormTotals traced_storm(Report& report, const workload::ScenarioSpec& base,
                         const apps::RegisteredProgram& app,
                         std::size_t shards, double untraced_run_s) {
  StormRun s(base, app, shards, /*traced=*/true);
  runtime::ParallelRuntime& rt = *s.rt;
  const std::uint64_t allocs0 = thread_heap_allocs();
  const double run0 = wall_now();
  const std::uint64_t tick0 = ticks();
  s.run();
  const std::uint64_t tick1 = ticks();
  const double run_s = wall_now() - run0;
  const std::uint64_t heap_allocs = thread_heap_allocs() - allocs0;
  const double ticks_per_s = static_cast<double>(tick1 - tick0) / run_s;
  const StormTotals totals = s.totals();

  const auto pkts = static_cast<double>(totals.packets_sent);
  const auto events = static_cast<double>(totals.events);
  std::uint64_t max_shard_events = 0, sched_bursts = 0;
  for (std::size_t i = 0; i < rt.num_shards(); ++i) {
    max_shard_events =
        std::max(max_shard_events, rt.shard_scheduler(i).executed());
    sched_bursts += rt.shard_scheduler(i).bursts();
  }
  const auto rounds = static_cast<double>(rt.windows());
  report.layer("runtime.round_us", ratio(run_s * 1e6, rounds), "us");
  report.layer("runtime.rounds_per_sim_ms",
               rounds / (s.spec.horizon().as_seconds() * 1e3), "1/ms");
  report.layer("runtime.cross_shard_msgs_per_pkt",
               ratio(static_cast<double>(totals.cross_shard), pkts), "count");
  report.layer("runtime.ring_overflow_frac",
               ratio(static_cast<double>(rt.overflow_messages()),
                     static_cast<double>(totals.cross_shard)),
               "ratio");
  report.layer("runtime.avg_drain_burst",
               ratio(static_cast<double>(rt.ring_drained()),
                     static_cast<double>(rt.ring_drains())),
               "count");
  report.layer("runtime.event_parallelism",
               ratio(events, static_cast<double>(max_shard_events)), "ratio");
  report.layer("runtime.setup_s", s.runtime_setup_s, "s");
  report.layer("sim.events_per_pkt", ratio(events, pkts), "count");
  report.layer("sim.events_per_burst",
               ratio(events, static_cast<double>(sched_bursts)), "count");
  report.layer("sim.ns_per_event", ratio(run_s * 1e9, events), "ns");

  std::vector<const core::EventSwitch*> all{&rt.sw(s.map.dut)};
  for (const std::size_t e : s.map.edges) {
    all.push_back(&rt.sw(e));
  }
  add_switch_metrics(report, rt.sw(s.map.dut), all, *s.tracer, pkts);
  add_handler_metrics(report, *s.tracer, run_s, ticks_per_s, pkts);

  // Cut links have no Link object; their deliveries are the cross-shard
  // messages, so the count is the same under every shard plan.
  std::uint64_t deliveries = totals.cross_shard;
  for (std::size_t l = 0; l < s.topo.num_links(); ++l) {
    if (!rt.plan().is_cut(l)) {
      deliveries += rt.link(l).delivered();
    }
  }
  report.layer("topo.link_deliveries_per_pkt",
               ratio(static_cast<double>(deliveries), pkts), "count");
  report.layer("net.pool_misses_per_event",
               ratio(static_cast<double>(
                         net::packet_buffer_pool_stats().allocated -
                         s.warm_pool),
                     events - static_cast<double>(s.warm_events)),
               "count");
  report.layer("net.heap_allocs_per_pkt",
               ratio(static_cast<double>(heap_allocs), pkts), "count");
  report.layer("analysis.optimize_s", 0, "s");
  report.layer("trace.overhead", ratio(run_s, untraced_run_s), "ratio");
  for (const auto& [name, seconds] : s.spans) {
    std::printf("# span %s %.6f s\n", name.c_str(), seconds);
  }
  return totals;
}

}  // namespace

Report run_storm(const Options& options, std::size_t shards) {
  Report report;
  const workload::ScenarioSpec spec = storm_spec(options.seed);
  const apps::RegisteredProgram* app = workload::find_program(kApp);
  if (app == nullptr) {
    report.check(std::string("registry has ") + kApp, false);
    return report;
  }

  StormTotals first;
  bool have_first = false;
  const auto rep = [&] {
    const double cpu0 = cpu_now();
    const double wall0 = wall_now();
    Rep r;
    {
      StormRun s(spec, *app, shards, /*traced=*/false);
      const double wall1 = wall_now();
      s.run();
      r.setup_s = wall1 - wall0;
      r.run_s = wall_now() - wall1;
      const StormTotals o = s.totals();
      if (!have_first) {
        first = o;
        have_first = true;
        report.check("every injected packet reaches the sink",
                     o.sink_rx == o.packets_sent);
      } else {
        report.check("repetition reproduces the first outcome", o == first);
      }
    }
    r.cpu_s = cpu_now() - cpu0;
    return r;
  };
  const std::vector<Rep> reps = timed_reps(options.seconds, rep);
  add_end_to_end(report, reps, static_cast<double>(first.packets_sent));

  // replay() is the path `edp_scen run` takes, on as many threads as shards.
  workload::ReplayOptions replay_options;
  replay_options.shards = shards;
  const workload::ScenarioOutcome replayed =
      workload::replay(spec, *app, replay_options);
  report.check("the harness's run reproduces replay()'s outcome",
               totals_of(replayed) == first);
  if (shards > 1) {
    replay_options.shards = 1;
    report.check("sharded digest equals the 1-shard reference",
                 workload::replay(spec, *app, replay_options).digest ==
                     replayed.digest);
  }
  if (options.trace) {
    const StormTotals traced =
        traced_storm(report, spec, *app, shards, best_run_s(reps));
    report.check("traced outcome equals the untraced one", traced == first);
  }
  return report;
}

}  // namespace edp::bench
