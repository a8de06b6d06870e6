// Scenario-replay throughput harness (docs/WORKLOAD.md).
//
// Replays one representative traffic storm — the web-search mix at 40%
// offered load with an incast lane and microburst trains — through the
// scenario engine at 1, 2 and 4 workers, and reports flows/sec, packets/sec,
// events/sec and allocations/event per worker count. The outcome digest must be
// bit-identical across worker counts (the engine's determinism contract);
// the harness exits nonzero on a mismatch or on a steady-state allocation,
// while throughput is reported but not gated (it depends on the machine).
//
// Results are written as JSON (default ./BENCH_scenario.json, or argv[1])
// to continue the scenario-replay perf trajectory across PRs. argv[2]
// overrides the flow count (default 20000; CI uses 100000). argv[3], when
// present, is a minimum 1-worker packets/sec floor (packets the storm
// sources inject per wall second): the perf-gate CI job passes the previous
// trajectory point (with slack) so a replay-throughput regression fails the
// gate instead of drifting silently. The floor counts packets, not
// scheduler callbacks: a kernel that needs fewer callbacks per packet
// lowers events/sec while simulating more packets per second.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "workload/fuzzer.hpp"
#include "workload/replay.hpp"

namespace {

using namespace edp;

workload::ScenarioSpec make_spec(std::uint64_t flows) {
  workload::ScenarioSpec spec;
  spec.name = "bench-storm";
  spec.seed = 42;
  spec.edges = 4;
  spec.hosts_per_edge = 2;
  spec.flows = flows;
  spec.sizes = workload::SizeMix::kWebSearch;
  spec.load = 0.4;
  spec.incast_degree = 4;
  spec.burst_packets = 16;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_scenario.json";
  const std::uint64_t flows =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 20'000;
  const double min_packets_per_sec =
      argc > 3 ? std::strtod(argv[3], nullptr) : 0;
  const apps::RegisteredProgram* app = workload::find_program("ecn-marking");
  if (app == nullptr) {
    std::fprintf(stderr, "ecn-marking not in the registry\n");
    return 2;
  }
  const workload::ScenarioSpec spec = make_spec(flows);
  std::printf("bench_scenario: app=%s %llu flows, web-search mix, "
              "incast+burst lanes\n\n",
              app->name.c_str(), static_cast<unsigned long long>(flows));

  std::vector<workload::ScenarioOutcome> results;
  for (std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    workload::ReplayOptions opt;
    opt.shards = workers;
    results.push_back(workload::replay(spec, *app, opt));
  }

  const workload::ScenarioOutcome& base = results.front();
  bool deterministic = true;
  bool allocation_free = true;
  edp::bench::TextTable table({"workers", "wall s", "flows/sec", "packets/sec",
                               "events/sec", "cross-shard", "allocs/event",
                               "digest match"});
  for (const workload::ScenarioOutcome& r : results) {
    const bool match = r.digest == base.digest;
    deterministic = deterministic && match;
    allocation_free =
        allocation_free && workload::steady_state_allocation_free(r);
    table.add_row({std::to_string(r.shards),
                   edp::bench::fmt("%.2f", r.wall_seconds),
                   edp::bench::fmt("%.3g", static_cast<double>(r.flows_started) /
                                               r.wall_seconds),
                   edp::bench::fmt("%.3g", static_cast<double>(r.packets_sent) /
                                               r.wall_seconds),
                   edp::bench::fmt("%.3g", static_cast<double>(r.events) /
                                               r.wall_seconds),
                   std::to_string(r.cross_shard_messages),
                   edp::bench::fmt("%.6f", r.allocations_per_event),
                   match ? "yes" : "NO"});
  }
  table.print();

  std::ofstream json(json_path);
  json << "{\n  \"bench\": \"scenario\",\n"
       << "  \"app\": \"" << app->name << "\",\n"
       << "  \"mix\": \"web-search\",\n"
       << "  \"flows\": " << flows << ",\n"
       << "  \"hw_threads\": "
       << std::max(1u, std::thread::hardware_concurrency()) << ",\n"
       << "  \"min_packets_per_sec_gate\": "
       << edp::bench::fmt("%.0f", min_packets_per_sec) << ",\n"
       << "  \"deterministic\": " << (deterministic ? "true" : "false")
       << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const workload::ScenarioOutcome& r = results[i];
    json << "    {\"workers\": " << r.shards << ", \"wall_s\": "
         << edp::bench::fmt("%.4f", r.wall_seconds)
         << ", \"flows_per_sec\": "
         << edp::bench::fmt(
                "%.0f", static_cast<double>(r.flows_started) / r.wall_seconds)
         << ", \"packets\": " << r.packets_sent << ", \"packets_per_sec\": "
         << edp::bench::fmt("%.0f", static_cast<double>(r.packets_sent) /
                                        r.wall_seconds)
         << ", \"events\": " << r.events << ", \"events_per_sec\": "
         << edp::bench::fmt("%.0f",
                            static_cast<double>(r.events) / r.wall_seconds)
         << ", \"cross_shard_messages\": " << r.cross_shard_messages
         << ", \"allocations_per_event\": "
         << edp::bench::fmt("%g", r.allocations_per_event) << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("\nwrote %s\n", json_path.c_str());

  if (!deterministic) {
    std::fprintf(stderr, "FAIL: digests diverged across worker counts\n");
    return 1;
  }
  if (!allocation_free) {
    std::fprintf(stderr,
                 "FAIL: replay loop made more than 1e-3 heap allocations "
                 "per event after warm-up\n");
    return 1;
  }
  const double base_packets_per_sec =
      static_cast<double>(base.packets_sent) / base.wall_seconds;
  if (min_packets_per_sec > 0 && base_packets_per_sec < min_packets_per_sec) {
    std::fprintf(stderr,
                 "FAIL: 1-worker replay at %.0f packets/sec, gate is %.0f\n",
                 base_packets_per_sec, min_packets_per_sec);
    return 1;
  }
  if (min_packets_per_sec > 0) {
    std::printf("OK: 1-worker replay %.3g packets/sec (gate %.3g)\n",
                base_packets_per_sec, min_packets_per_sec);
  }
  return 0;
}
