// edp::workload — the scenario replay engine.
//
// Lowers a `ScenarioSpec` onto the fan-in topology, attaches an application
// from the registry to the device-under-test switch, installs one
// `StormSource` per source host plus the flap schedule, and runs the whole
// thing either sequentially (one sim::Scheduler) or through
// `runtime::ParallelRuntime` at any shard count. The result is a
// `ScenarioOutcome`: replay volume counters plus an FNV-1a digest over
// every shard-invariant observable (per-switch counters and event
// observations, per-host statistics, per-source replay totals) — the value
// the determinism gates compare across seeds x shard counts, and the
// fuzzer's oracle.
#pragma once

#include <cstdint>
#include <string>

#include "apps/registry.hpp"
#include "workload/scenario.hpp"
#include "workload/storm_source.hpp"

namespace edp::workload {

struct ReplayOptions {
  std::size_t shards = 1;
  /// Scale the spec to the app's registry EventRates before replaying.
  bool use_registry_rates = true;
  /// Build the DUT through the optimizer (src/analysis/optimizer.hpp):
  /// apply the verified transforms, install the dispatch plan, and fill the
  /// optimizer fields of the outcome. The differential-correctness tests
  /// replay each scenario with and without this flag.
  bool optimize = false;
  /// Hardware target the optimizer rewrites for.
  std::string optimize_target = "linerate-tor";
};

struct ScenarioOutcome {
  std::string app;
  std::string scenario;
  std::uint64_t seed = 0;
  std::size_t shards = 1;

  std::uint64_t digest = 0;          ///< shard-invariant outcome digest
  /// Order-independent fold (a sum of 64-bit mixes) of (time, bytes, port)
  /// over every sink receive and every DUT departure: pins *when* packets
  /// move, which `digest` (end-of-run counters) cannot see. A sum, not one
  /// interleaved hash, so it depends on neither stream's interleaving with
  /// the other nor the order in which departures are credited.
  std::uint64_t timing_digest = 0;
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t packets_sent = 0;    ///< by the storm sources
  std::uint64_t bytes_sent = 0;
  std::uint64_t incast_waves = 0;
  std::uint64_t bursts = 0;
  /// Scheduler callbacks executed — not slots: inline merger slots and
  /// completion-free transmits cost none, and the count differs between
  /// shard counts (the digests do not).
  std::uint64_t events = 0;
  std::uint64_t sink_rx_packets = 0;
  std::uint64_t dut_tx_packets = 0;
  std::uint64_t dut_program_drops = 0;
  std::uint64_t dut_punts = 0;
  std::uint64_t edge_uplink_drops = 0;  ///< loop-breaker hits
  std::uint64_t cross_shard_messages = 0;
  double sim_seconds = 0;
  double wall_seconds = 0;
  /// Heap allocations (global operator new, every thread) per event after
  /// the warmup chunk (see replay()) — the replay loop's allocation gauge.
  /// What remains in a steady state is the packet pool's one-time growth
  /// to the run's in-flight peak. NaN unless the process links the heap counter
  /// (sim/heap_count.hpp), so a gate can never pass on a missing counter.
  double allocations_per_event = 0;

  // ---- optimizer differential observables (ReplayOptions::optimize) ------
  bool optimized = false;            ///< DUT ran the optimized program
  std::uint64_t transforms_applied = 0;
  /// Predicted worst-case staleness (max over the optimizer's per-register
  /// bounds, cycles); 0 when nothing is aggregated.
  std::uint64_t staleness_bound_cycles = 0;
  /// Measured aggregation stats, captured *before* settling (settle drains
  /// everything at once and would record meaningless staleness).
  std::uint64_t agg_staleness_max_cycles = 0;
  std::uint64_t agg_drained = 0;
  std::uint64_t agg_backlog_max = 0;
  /// Observed worst-case |main - true| deviation across aggregated cells
  /// (AggregatedRegister::value_error_max), and the static
  /// staleness-value-error bound it must stay under (value-analysis pass;
  /// 0 when nothing is aggregated or the bound is unstable).
  std::uint64_t agg_value_error_max = 0;
  std::uint64_t value_error_bound = 0;
  /// App-level detections (MicroburstProgram; 0 for other apps).
  std::uint64_t detections = 0;
  /// FNV digest over the app's settled ground-truth state (microburst
  /// per-slot occupancy; 0 for other apps). Order-independent, so it must
  /// match exactly between naive and optimized replays.
  std::uint64_t app_state_digest = 0;
};

/// The steady-state allocation gate shared by the tests, bench_scenario and
/// `edp_scen storm`: at most 1e-3 heap allocations per event after warm-up
/// (about 0.01 per packet). False on NaN, i.e. when no counter is linked.
inline bool steady_state_allocation_free(const ScenarioOutcome& o) {
  return o.allocations_per_event <= 1e-3;
}

/// Replay `spec` against registered program `app`. The app factory builds a
/// fresh program instance for the DUT; edges run EdgeProgram routers. The
/// run advances in 50 ms chunks of simulated time (result-neutral by the
/// runtime's repeated-run property); the first chunk, capped at a tenth of
/// the horizon, is the warmup window the allocation gauge excludes.
ScenarioOutcome replay(const ScenarioSpec& spec,
                       const apps::RegisteredProgram& app,
                       const ReplayOptions& options = {});

/// Registry lookup by name; nullptr when unknown.
const apps::RegisteredProgram* find_program(const std::string& name);

/// True when a fresh instance of `app` forwards background traffic to the
/// scenario sink: L3-routed apps (registry installs 10/8 -> sink port) and
/// FRR (the replay injects its routes). Probe-constructs one instance.
/// Scopes the fuzzer's liveness oracle to forwarding apps.
bool app_routes_to_sink(const apps::RegisteredProgram& app);

}  // namespace edp::workload
