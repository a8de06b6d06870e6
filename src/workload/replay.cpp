#include "workload/replay.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "analysis/optimizer.hpp"
#include "apps/fast_reroute.hpp"
#include "apps/microburst.hpp"
#include "core/aggregated_register.hpp"
#include "net/flow.hpp"
#include "runtime/parallel_runtime.hpp"
#include "sim/heap_count.hpp"
#include "topo/routing.hpp"

namespace edp::workload {
namespace {

/// Install scenario routes on DUT programs that expose a routing control
/// plane. L3 apps come pre-routed from the registry (10/8 -> port 1, the
/// sink); FRR ships without routes, so the replay provides them: the sink
/// /24 via its primary port, with the aux port as backup — flapping the
/// sink link then exercises the data-plane reroute. Returns true when the
/// program forwards background traffic to the sink.
bool configure_dut_routes(core::EventProgram& program) {
  if (auto* frr = dynamic_cast<apps::FrrProgram*>(&program)) {
    frr->add_route(
        {net::Ipv4Address(10, 0, 0, 0), /*primary=*/1, /*backup=*/0});
    return true;
  }
  return dynamic_cast<topo::L3Program*>(&program) != nullptr;
}

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

/// SplitMix64 finalizer: a full-avalanche 64-bit mix.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One term of the timing digest: `stream` separates sink receives (0)
/// from DUT departures (1).
std::uint64_t timing_term(std::uint64_t stream, sim::Time t,
                          std::uint64_t bytes, std::uint64_t port) {
  return mix64(static_cast<std::uint64_t>(t.ps()) ^
               mix64((stream << 56) ^ (port << 32) ^ bytes));
}

std::uint64_t mix_switch(std::uint64_t h, const core::EventSwitch& sw) {
  const auto& c = sw.counters();
  for (std::uint64_t v :
       {c.rx_packets, c.tx_packets, c.tx_bytes, c.parse_drops,
        c.program_drops, c.bad_port_drops, c.recirculated,
        c.recirc_loop_drops, c.generated, c.punts, c.refused_ops}) {
    h = fnv_mix(h, v);
  }
  for (std::uint64_t v : c.observed) {
    h = fnv_mix(h, v);
  }
  return h;
}

std::uint64_t mix_host(std::uint64_t h, const topo::Host& host) {
  h = fnv_mix(h, host.tx_packets());
  h = fnv_mix(h, host.rx_packets());
  h = fnv_mix(h, host.rx_bytes());
  // Lane-separated sink statistics (background / incast / burst ports).
  for (std::uint16_t port : {20000, 20001, 20002}) {
    h = fnv_mix(h, host.rx_on_port(port));
  }
  return h;
}

}  // namespace

bool app_routes_to_sink(const apps::RegisteredProgram& app) {
  const std::unique_ptr<core::EventProgram> probe = app.factory();
  return configure_dut_routes(*probe);
}

const apps::RegisteredProgram* find_program(const std::string& name) {
  for (const auto& p : apps::program_registry()) {
    if (p.name == name) {
      return &p;
    }
  }
  return nullptr;
}

ScenarioOutcome replay(const ScenarioSpec& base_spec,
                       const apps::RegisteredProgram& app,
                       const ReplayOptions& options) {
  const ScenarioSpec spec = options.use_registry_rates
                                ? apply_rates(base_spec, app.rates)
                                : base_spec;
  topo::Spec topo;
  const TopologyMap map = build_topology(spec, topo);
  runtime::ParallelRuntime rt(topo, topo::plan_shards(topo, options.shards));

  // Device under test: a fresh instance from the registry factory, with
  // routes installed exactly as the analyzer sees them (10/8 -> port 1 for
  // L3 apps, i.e. the sink). Under `optimize`, the instance comes from the
  // optimizer's rewritten factory and runs its dispatch plan.
  std::unique_ptr<core::EventProgram> dut_program;
  std::uint64_t transforms_applied = 0;
  std::uint64_t staleness_bound_cycles = 0;
  std::uint64_t value_error_bound = 0;
  if (options.optimize) {
    analysis::AnalyzerOptions aopt;
    aopt.lint = app.lint;
    aopt.model = analysis::find_hardware_model(options.optimize_target);
    aopt.rates = app.rates;
    aopt.widths = app.widths;
    const analysis::OptimizationResult opt =
        analysis::optimize_program(app.name, app.factory, aopt);
    dut_program = opt.optimized_factory();
    rt.sw(map.dut).set_dispatch_plan(opt.plan);
    transforms_applied = opt.transforms.size();
    for (const analysis::StalenessBound& b : opt.staleness) {
      staleness_bound_cycles =
          std::max(staleness_bound_cycles, b.bound_cycles);
      if (b.stable) {
        value_error_bound = std::max(
            value_error_bound,
            static_cast<std::uint64_t>(std::ceil(b.value_error_bound)));
      }
    }
  } else {
    dut_program = app.factory();
  }
  configure_dut_routes(*dut_program);
  rt.sw(map.dut).set_program(dut_program.get());
  // Register any aggregated state for idle-cycle drains (paper §4). Drains
  // mutate only the registers' internal split, never an event observation,
  // so the outcome digest is unaffected.
  dut_program->visit_aggregated([&](core::AggregatedRegister& reg) {
    rt.sw(map.dut).register_aggregated(reg);
  });

  // Edge routers: local hosts via /32 down-routes, everything else up the
  // uplink — with the structural loop-breaker (scenario.hpp).
  const auto uplink = static_cast<std::uint16_t>(spec.hosts_per_edge);
  std::vector<std::unique_ptr<EdgeProgram>> edge_programs;
  for (std::size_t e = 0; e < spec.edges; ++e) {
    auto prog = std::make_unique<EdgeProgram>(uplink);
    prog->add_route(net::Ipv4Address(10, 0, 0, 0), 8, uplink);
    for (std::size_t h = 0; h < spec.hosts_per_edge; ++h) {
      prog->add_route(map.source_ips[e * spec.hosts_per_edge + h], 32,
                      static_cast<std::uint16_t>(h));
    }
    rt.sw(map.edges[e]).set_program(prog.get());
    edge_programs.push_back(std::move(prog));
  }

  // One storm source per source host, on the host's shard scheduler.
  const sim::Time horizon = spec.horizon();
  const sim::Time lanes_stop = spec.active_span();
  std::vector<std::unique_ptr<StormSource>> sources;
  for (std::size_t i = 0; i < map.source_hosts.size(); ++i) {
    StormSource::Config c;
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
    c.stop = lanes_stop;
    const std::size_t host = map.source_hosts[i];
    sources.push_back(std::make_unique<StormSource>(
        rt.scheduler_of_host(host), rt.host(host), c));
    sources.back()->start();
  }

  // Timing digest: one sum per stream, since the sink and the DUT can sit
  // on different shards (and threads). Sums commute, so neither the
  // interleaving of the two streams nor the order in which the DUT credits
  // its departures can move the result.
  std::uint64_t sink_timing = 0;
  std::uint64_t dut_timing = 0;
  sim::Scheduler& sink_sched = rt.scheduler_of_host(map.sink_host);
  rt.host(map.sink_host).on_receive = [&sink_timing,
                                       &sink_sched](const net::Packet& p) {
    sink_timing += timing_term(0, sink_sched.now(), p.size(),
                               net::extract_five_tuple(p).dst_port);
  };
  rt.sw(map.dut).on_departure = [&dut_timing](const core::TransmitRecord& r) {
    dut_timing += timing_term(1, r.when, r.pkt_len, r.port);
  };

  // Failure schedule. Host links only: they are shard-local under every
  // plan (the runtime cannot fail a cut link), and flapping the DUT's own
  // host links is what raises LinkStatusChange events at the app.
  for (const LinkFlap& f : spec.flaps) {
    std::size_t link = map.sink_link;
    if (f.target == LinkFlap::Target::kAux) {
      link = map.aux_link;
    } else if (f.target == LinkFlap::Target::kSource) {
      link = map.source_links[f.source % map.source_links.size()];
    }
    assert(f.up_at > f.down_at);
    // Flap events carry the reserved 199 ps clock phase (see
    // build_topology): they can never share a picosecond with any
    // switch's slot grid or any packet chained off one.
    const sim::Time phase = sim::Time::picos(199);
    rt.link(link).fail_at(f.down_at + phase);
    rt.link(link).recover_at(f.up_at + phase);
  }

  // Run to the horizon in chunks. The first chunk is the warmup window:
  // pools, rings and scheduler slots reach their high-water capacity there,
  // so the heap-allocation gauge measures the steady-state replay loop.
  const sim::Time chunk = sim::Time::millis(50);
  const sim::Time warmup = std::min(chunk, sim::Time(horizon.ps() / 10));
  const auto wall0 = std::chrono::steady_clock::now();
  rt.run_until(std::min(warmup, horizon));
  const std::uint64_t warm_events = rt.total_executed();
  const std::optional<std::uint64_t> warm_allocs = sim::heap_allocations();
  for (sim::Time t = warmup; t < horizon;) {
    t = std::min(horizon, t + chunk);
    rt.run_until(t);
  }
  const auto wall1 = std::chrono::steady_clock::now();
  const std::optional<std::uint64_t> end_allocs = sim::heap_allocations();

  ScenarioOutcome out;
  out.app = app.name;
  out.scenario = spec.name;
  out.seed = spec.seed;
  out.shards = rt.num_shards();
  out.events = rt.total_executed();
  out.cross_shard_messages = rt.cross_shard_messages();
  out.sim_seconds = horizon.as_seconds();
  out.wall_seconds =
      std::chrono::duration<double>(wall1 - wall0).count();
  const std::uint64_t steady_events = out.events - warm_events;
  if (!warm_allocs || !end_allocs) {
    out.allocations_per_event = std::numeric_limits<double>::quiet_NaN();
  } else if (steady_events > 0) {
    out.allocations_per_event =
        static_cast<double>(*end_allocs - *warm_allocs) /
        static_cast<double>(steady_events);
  }

  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& src : sources) {
    out.flows_started += src->flows_started();
    out.flows_completed += src->flows_completed();
    out.packets_sent += src->packets_sent();
    out.bytes_sent += src->bytes_sent();
    out.incast_waves += src->incast_waves();
    out.bursts += src->bursts();
    h = fnv_mix(h, src->flows_started());
    h = fnv_mix(h, src->packets_sent());
    h = fnv_mix(h, src->bytes_sent());
  }
  h = mix_switch(h, rt.sw(map.dut));
  for (std::size_t e = 0; e < spec.edges; ++e) {
    h = mix_switch(h, rt.sw(map.edges[e]));
    h = fnv_mix(h, edge_programs[e]->uplink_drops());
    out.edge_uplink_drops += edge_programs[e]->uplink_drops();
  }
  h = mix_host(h, rt.host(map.sink_host));
  h = mix_host(h, rt.host(map.aux_host));
  for (std::size_t host : map.source_hosts) {
    h = mix_host(h, rt.host(host));
  }
  out.digest = h;
  rt.sw(map.dut).credit_departures();  // the departures still owed
  out.timing_digest = sink_timing + dut_timing;

  out.optimized = options.optimize;
  out.transforms_applied = transforms_applied;
  out.staleness_bound_cycles = staleness_bound_cycles;
  // Aggregation stats are captured *before* settling: settle() drains every
  // pending delta at once, which would record end-of-run staleness that no
  // hardware drain schedule ever exhibits.
  dut_program->visit_aggregated([&](core::AggregatedRegister& reg) {
    out.agg_staleness_max_cycles =
        std::max(out.agg_staleness_max_cycles, reg.staleness_max());
    out.agg_drained += reg.drained();
    out.agg_backlog_max =
        std::max<std::uint64_t>(out.agg_backlog_max, reg.backlog_max());
    out.agg_value_error_max =
        std::max(out.agg_value_error_max,
                 static_cast<std::uint64_t>(reg.value_error_max()));
  });
  out.value_error_bound = value_error_bound;
  // Settle so the app-state digest compares ground truth (main + pending
  // deltas applied) — order-independent sums, so naive and optimized
  // replays must agree exactly.
  rt.sw(map.dut).settle();
  if (const auto* mb =
          dynamic_cast<apps::MicroburstProgram*>(dut_program.get())) {
    out.detections = mb->detections().size();
    std::uint64_t ah = 1469598103934665603ULL;
    for (std::uint32_t s = 0;
         s < static_cast<std::uint32_t>(mb->config().num_regs); ++s) {
      ah = fnv_mix(ah, static_cast<std::uint64_t>(mb->occupancy(s)));
    }
    out.app_state_digest = ah;
  }

  const auto& dut_counters = rt.sw(map.dut).counters();
  out.dut_tx_packets = dut_counters.tx_packets;
  out.dut_program_drops = dut_counters.program_drops;
  out.dut_punts = dut_counters.punts;
  out.sink_rx_packets = rt.host(map.sink_host).rx_packets();
  return out;
}

}  // namespace edp::workload
