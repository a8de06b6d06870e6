// edp_scen — trace-driven scenario engine CLI.
//
// Replays deterministic heavy-tailed traffic storms (src/workload/) against
// event programs from the registry:
//
//   edp_scen list                       registered apps + built-in mixes
//   edp_scen run --app hula-tor ...     one scenario against one app
//   edp_scen storm [--flows-per-app N]  the full storm: every registered app
//                                       (>=1M flows total at the default size)
//   edp_scen matrix --app NAME          digest gate: seeds {1..5} x shards
//                                       {1,2,4} must agree per seed, in
//                                       both the outcome and timing digest
//   edp_scen fuzz [--runs N]            randomized scenario fuzzing with
//                                       shrinking reproducers
//
// Scenario flags (run/storm/matrix; defaults in src/workload/scenario.hpp):
//   --mix web-search|hadoop|fixed   --arrivals poisson|onoff
//   --seed N     --flows N          --load F        --cap BYTES
//   --edges N    --hosts-per-edge N --packet-bytes N --fixed-bytes N
//   --incast N   --incast-flow-bytes N  --bursts N
//   --flap sink|aux|source:IDX:DOWN_US:UP_US   (repeatable)
//   --shards N   --no-rates (ignore the app's registry EventRates)
//   --optimize [--optimize-target MODEL]   build the DUT through the
//       IR optimizer (docs/ANALYSIS.md): verified transforms + dispatch
//       plan, with aggregation staleness observables in the output
//
// Exit status: 0 success / all gates pass, 1 gate failure or fuzzer
// finding, 2 usage errors.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/hardware_model.hpp"
#include "apps/registry.hpp"
#include "workload/fuzzer.hpp"
#include "workload/replay.hpp"

namespace {

using edp::workload::ArrivalSampler;
using edp::workload::LinkFlap;
using edp::workload::ReplayOptions;
using edp::workload::ScenarioOutcome;
using edp::workload::ScenarioSpec;
using edp::workload::SizeMix;

struct Cli {
  ScenarioSpec spec;
  ReplayOptions options;
  std::string app;
  std::uint64_t flows_per_app = 50'000;  // storm: 20 apps -> 1M flows total
  std::uint64_t fuzz_runs = 20;
  std::uint64_t fuzz_seed = 1;
  std::uint64_t fuzz_flows = 2000;
  std::size_t max_failures = 1;
  bool flows_set = false;
};

bool parse_flap(const std::string& value, LinkFlap& flap) {
  char target[16] = {0};
  unsigned long long idx = 0, down_us = 0, up_us = 0;
  if (std::sscanf(value.c_str(), "%15[a-z]:%llu:%llu:%llu", target, &idx,
                  &down_us, &up_us) != 4) {
    return false;
  }
  if (std::strcmp(target, "sink") == 0) {
    flap.target = LinkFlap::Target::kSink;
  } else if (std::strcmp(target, "aux") == 0) {
    flap.target = LinkFlap::Target::kAux;
  } else if (std::strcmp(target, "source") == 0) {
    flap.target = LinkFlap::Target::kSource;
  } else {
    return false;
  }
  flap.source = idx;
  flap.down_at = edp::sim::Time::micros(static_cast<std::int64_t>(down_us));
  flap.up_at = edp::sim::Time::micros(static_cast<std::int64_t>(up_us));
  return flap.up_at > flap.down_at;
}

/// Parse one `--flag value` pair into `cli`. Returns -1 on error, 0 when the
/// flag is unknown, otherwise the number of argv slots consumed (1 or 2).
int parse_flag(Cli& cli, int argc, char** argv, int i) {
  const std::string arg = argv[i];
  const auto need = [&](const char* what) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "edp_scen: %s needs %s\n", arg.c_str(), what);
      return nullptr;
    }
    return argv[i + 1];
  };
  if (arg == "--app") {
    const char* v = need("a program name");
    if (!v) return -1;
    cli.app = v;
    return 2;
  }
  if (arg == "--mix") {
    const char* v = need("web-search|hadoop|fixed");
    if (!v) return -1;
    if (std::strcmp(v, "web-search") == 0) {
      cli.spec.sizes = SizeMix::kWebSearch;
    } else if (std::strcmp(v, "hadoop") == 0) {
      cli.spec.sizes = SizeMix::kHadoop;
    } else if (std::strcmp(v, "fixed") == 0) {
      cli.spec.sizes = SizeMix::kFixed;
    } else {
      std::fprintf(stderr, "edp_scen: unknown mix '%s'\n", v);
      return -1;
    }
    return 2;
  }
  if (arg == "--arrivals") {
    const char* v = need("poisson|onoff");
    if (!v) return -1;
    if (std::strcmp(v, "poisson") == 0) {
      cli.spec.arrivals = ArrivalSampler::Kind::kPoisson;
    } else if (std::strcmp(v, "onoff") == 0) {
      cli.spec.arrivals = ArrivalSampler::Kind::kOnOff;
    } else {
      std::fprintf(stderr, "edp_scen: unknown arrival process '%s'\n", v);
      return -1;
    }
    return 2;
  }
  if (arg == "--flap") {
    const char* v = need("target:idx:down_us:up_us");
    if (!v) return -1;
    LinkFlap flap;
    if (!parse_flap(v, flap)) {
      std::fprintf(stderr, "edp_scen: bad flap spec '%s'\n", v);
      return -1;
    }
    cli.spec.flaps.push_back(flap);
    return 2;
  }
  struct U64Flag {
    const char* name;
    std::uint64_t* dst;
  };
  std::uint64_t edges = 0, hosts = 0, packet = 0, incast = 0, bursts = 0,
                shards = 0;
  const U64Flag u64_flags[] = {
      {"--seed", &cli.spec.seed},
      {"--flows", &cli.spec.flows},
      {"--cap", &cli.spec.flow_size_cap_bytes},
      {"--fixed-bytes", &cli.spec.fixed_flow_bytes},
      {"--incast-flow-bytes", &cli.spec.incast_flow_bytes},
      {"--flows-per-app", &cli.flows_per_app},
      {"--runs", &cli.fuzz_runs},
      {"--fuzz-seed", &cli.fuzz_seed},
      {"--fuzz-flows", &cli.fuzz_flows},
      {"--edges", &edges},
      {"--hosts-per-edge", &hosts},
      {"--packet-bytes", &packet},
      {"--incast", &incast},
      {"--bursts", &bursts},
      {"--shards", &shards},
  };
  for (const U64Flag& f : u64_flags) {
    if (arg == f.name) {
      const char* v = need("a number");
      if (!v) return -1;
      *f.dst = std::strtoull(v, nullptr, 10);
      if (f.dst == &cli.spec.flows) cli.flows_set = true;
      if (f.dst == &edges) cli.spec.edges = edges;
      if (f.dst == &hosts) cli.spec.hosts_per_edge = hosts;
      if (f.dst == &packet) cli.spec.packet_bytes = packet;
      if (f.dst == &incast) cli.spec.incast_degree = incast;
      if (f.dst == &bursts) cli.spec.burst_packets = bursts;
      if (f.dst == &shards) cli.options.shards = shards;
      return 2;
    }
  }
  struct TimeUsFlag {
    const char* name;
    edp::sim::Time* dst;
  };
  const TimeUsFlag time_flags[] = {
      {"--incast-period-us", &cli.spec.incast_period},
      {"--burst-period-us", &cli.spec.burst_period},
      {"--on-us", &cli.spec.on_mean},
      {"--off-us", &cli.spec.off_mean},
  };
  for (const TimeUsFlag& f : time_flags) {
    if (arg == f.name) {
      const char* v = need("microseconds");
      if (!v) return -1;
      *f.dst = edp::sim::Time::micros(
          static_cast<std::int64_t>(std::strtoll(v, nullptr, 10)));
      return 2;
    }
  }
  if (arg == "--load") {
    const char* v = need("a fraction in (0,1]");
    if (!v) return -1;
    cli.spec.load = std::strtod(v, nullptr);
    if (cli.spec.load <= 0 || cli.spec.load > 1.0) {
      std::fprintf(stderr, "edp_scen: --load must be in (0,1]\n");
      return -1;
    }
    return 2;
  }
  if (arg == "--no-rates") {
    cli.options.use_registry_rates = false;
    return 1;
  }
  if (arg == "--optimize") {
    cli.options.optimize = true;
    return 1;
  }
  if (arg == "--optimize-target") {
    const char* v = need("a hardware model name");
    if (!v) return -1;
    cli.options.optimize_target = v;
    return 2;
  }
  return 0;
}

void print_outcome(const ScenarioOutcome& o) {
  std::printf(
      "  %-18s shards=%zu digest=%016llx flows=%llu/%llu pkts=%llu "
      "sink_rx=%llu drops=%llu punts=%llu uplink_drops=%llu\n"
      "  %-18s events=%llu xshard=%llu sim=%.3fs wall=%.2fs "
      "(%.2fM ev/s, %.0f flows/s) allocs/event=%.6f\n",
      o.app.c_str(), o.shards, static_cast<unsigned long long>(o.digest),
      static_cast<unsigned long long>(o.flows_completed),
      static_cast<unsigned long long>(o.flows_started),
      static_cast<unsigned long long>(o.packets_sent),
      static_cast<unsigned long long>(o.sink_rx_packets),
      static_cast<unsigned long long>(o.dut_program_drops),
      static_cast<unsigned long long>(o.dut_punts),
      static_cast<unsigned long long>(o.edge_uplink_drops), "",
      static_cast<unsigned long long>(o.events),
      static_cast<unsigned long long>(o.cross_shard_messages), o.sim_seconds,
      o.wall_seconds,
      o.wall_seconds > 0 ? static_cast<double>(o.events) / o.wall_seconds / 1e6
                         : 0.0,
      o.wall_seconds > 0
          ? static_cast<double>(o.flows_started) / o.wall_seconds
          : 0.0,
      o.allocations_per_event);
  if (o.optimized) {
    std::printf(
        "  %-18s optimized: transforms=%llu staleness=%llu/%llu cycles "
        "(max/bound) drained=%llu backlog_max=%llu "
        "value_error=%llu/%llu (max/bound)\n",
        "",
        static_cast<unsigned long long>(o.transforms_applied),
        static_cast<unsigned long long>(o.agg_staleness_max_cycles),
        static_cast<unsigned long long>(o.staleness_bound_cycles),
        static_cast<unsigned long long>(o.agg_drained),
        static_cast<unsigned long long>(o.agg_backlog_max),
        static_cast<unsigned long long>(o.agg_value_error_max),
        static_cast<unsigned long long>(o.value_error_bound));
  }
}

int cmd_list() {
  std::printf("registered programs:\n");
  for (const auto& p : edp::apps::program_registry()) {
    std::printf("  %-22s avg_packet_bytes=%zu\n", p.name.c_str(),
                p.rates.avg_packet_bytes);
  }
  std::printf("\nflow-size mixes: web-search hadoop fixed\n");
  std::printf("arrival processes: poisson onoff\n");
  return 0;
}

int cmd_run(const Cli& cli) {
  if (cli.app.empty()) {
    std::fprintf(stderr, "edp_scen run: --app is required\n");
    return 2;
  }
  const auto* program = edp::workload::find_program(cli.app);
  if (!program) {
    std::fprintf(stderr, "edp_scen: unknown program '%s'\n", cli.app.c_str());
    return 2;
  }
  const ScenarioOutcome o =
      edp::workload::replay(cli.spec, *program, cli.options);
  print_outcome(o);
  return 0;
}

int cmd_storm(const Cli& cli) {
  ScenarioSpec spec = cli.spec;
  spec.name = "storm";
  if (!cli.flows_set) {
    spec.flows = cli.flows_per_app;
  }
  const auto& registry = edp::apps::program_registry();
  std::uint64_t total_flows = 0, total_events = 0;
  double total_wall = 0;
  double worst_allocs = 0;
  bool allocation_free = true;
  std::printf("storm: %zu apps x %llu flows (%s mix, %s arrivals, seed "
              "%llu, %zu shards)\n",
              registry.size(),
              static_cast<unsigned long long>(spec.flows),
              std::string(to_string(spec.sizes)).c_str(),
              spec.arrivals == ArrivalSampler::Kind::kPoisson ? "poisson"
                                                              : "onoff",
              static_cast<unsigned long long>(spec.seed), cli.options.shards);
  for (const auto& program : registry) {
    const ScenarioOutcome o =
        edp::workload::replay(spec, program, cli.options);
    print_outcome(o);
    total_flows += o.flows_started;
    total_events += o.events;
    total_wall += o.wall_seconds;
    allocation_free =
        allocation_free && edp::workload::steady_state_allocation_free(o);
    worst_allocs = std::max(worst_allocs, o.allocations_per_event);
  }
  std::printf(
      "storm totals: %llu flows, %llu events, %.1fs wall "
      "(%.2fM ev/s), worst allocs/event=%.6f\n",
      static_cast<unsigned long long>(total_flows),
      static_cast<unsigned long long>(total_events), total_wall,
      total_wall > 0 ? static_cast<double>(total_events) / total_wall / 1e6
                     : 0.0,
      worst_allocs);
  if (!allocation_free) {
    std::fprintf(stderr,
                 "edp_scen storm: FAIL — replay loop allocated "
                 "(worst %.6f heap allocs/event after warmup, gate 1e-3)\n",
                 worst_allocs);
    return 1;
  }
  return 0;
}

int cmd_matrix(const Cli& cli) {
  if (cli.app.empty()) {
    std::fprintf(stderr, "edp_scen matrix: --app is required\n");
    return 2;
  }
  const auto* program = edp::workload::find_program(cli.app);
  if (!program) {
    std::fprintf(stderr, "edp_scen: unknown program '%s'\n", cli.app.c_str());
    return 2;
  }
  int failures = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ScenarioSpec spec = cli.spec;
    spec.seed = seed;
    std::uint64_t reference = 0;
    std::uint64_t timing_reference = 0;
    for (std::size_t shards : {std::size_t{1}, std::size_t{2},
                               std::size_t{4}}) {
      ReplayOptions options = cli.options;
      options.shards = shards;
      const ScenarioOutcome o =
          edp::workload::replay(spec, *program, options);
      if (shards == 1) {
        reference = o.digest;
        timing_reference = o.timing_digest;
        std::printf("seed %llu: digest %016llx timing %016llx (1 shard, "
                    "%llu flows)",
                    static_cast<unsigned long long>(seed),
                    static_cast<unsigned long long>(o.digest),
                    static_cast<unsigned long long>(o.timing_digest),
                    static_cast<unsigned long long>(o.flows_started));
      } else if (o.digest == reference &&
                 o.timing_digest == timing_reference) {
        std::printf(" == %zu shards", shards);
      } else {
        std::printf(" != %zu shards (%016llx timing %016llx)", shards,
                    static_cast<unsigned long long>(o.digest),
                    static_cast<unsigned long long>(o.timing_digest));
        ++failures;
      }
    }
    std::printf("\n");
  }
  if (failures > 0) {
    std::fprintf(stderr, "edp_scen matrix: FAIL — %d digest mismatches\n",
                 failures);
    return 1;
  }
  std::printf("matrix: all seeds bit-identical across shard counts\n");
  return 0;
}

int cmd_fuzz(const Cli& cli) {
  edp::workload::FuzzConfig config;
  config.seed = cli.fuzz_seed;
  config.runs = cli.fuzz_runs;
  config.flows = cli.fuzz_flows;
  if (!cli.app.empty()) {
    config.apps = {cli.app};
  }
  edp::workload::ScenarioFuzzer fuzzer(config);
  const auto report = fuzzer.run(cli.max_failures);
  std::printf("fuzz: %zu runs, %zu failures\n", report.runs,
              report.failures);
  for (const auto& f : report.shrunk) {
    std::printf("  [%s] %s\n  shrunk in %zu steps to:\n    %s\n",
                f.app.c_str(), f.what.c_str(), f.shrink_steps,
                f.repro.c_str());
  }
  return report.failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "-h") == 0 ||
      std::strcmp(argv[1], "--help") == 0) {
    std::printf(
        "usage: edp_scen <list|run|storm|matrix|fuzz> [flags]\n"
        "Deterministic heavy-tailed traffic storms for event programs.\n"
        "See the header of tools/edp_scen.cpp for the full flag list.\n");
    return argc < 2 ? 2 : 0;
  }
  const std::string command = argv[1];
  Cli cli;
  for (int i = 2; i < argc;) {
    const int consumed = parse_flag(cli, argc, argv, i);
    if (consumed < 0) {
      return 2;
    }
    if (consumed == 0) {
      std::fprintf(stderr, "edp_scen: unknown flag '%s'\n", argv[i]);
      return 2;
    }
    i += consumed;
  }
  if (cli.options.optimize &&
      edp::analysis::find_hardware_model(cli.options.optimize_target) ==
          nullptr) {
    std::fprintf(stderr, "edp_scen: unknown --optimize-target '%s'\n",
                 cli.options.optimize_target.c_str());
    return 2;
  }
  if (command == "list") return cmd_list();
  if (command == "run") return cmd_run(cli);
  if (command == "storm") return cmd_storm(cli);
  if (command == "matrix") return cmd_matrix(cli);
  if (command == "fuzz") return cmd_fuzz(cli);
  std::fprintf(stderr, "edp_scen: unknown command '%s'\n", command.c_str());
  return 2;
}
