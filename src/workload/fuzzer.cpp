#include "workload/fuzzer.hpp"

#include <algorithm>
#include <cassert>

#include "sim/random.hpp"

namespace edp::workload {
namespace {

/// Built-in oracle: parallel replay must be bit-identical to 1 shard.
std::optional<std::string> determinism_invariant(
    const ScenarioSpec&, const ScenarioOutcome& one,
    const ScenarioOutcome& two) {
  if (one.digest != two.digest) {
    return "digest mismatch: 1-shard vs 2-shard replay diverged";
  }
  if (one.timing_digest != two.timing_digest) {
    return "timing digest mismatch: 1-shard vs 2-shard packets moved at "
           "different times";
  }
  return std::nullopt;
}

/// Built-in oracle: background traffic reaches the sink unless the sink
/// link itself was flapped.
std::optional<std::string> liveness_invariant(const ScenarioSpec& spec,
                                              const ScenarioOutcome& one,
                                              const ScenarioOutcome&) {
  bool sink_flapped = false;
  for (const LinkFlap& f : spec.flaps) {
    sink_flapped = sink_flapped || f.target == LinkFlap::Target::kSink;
  }
  if (!sink_flapped && one.packets_sent > 0 && one.sink_rx_packets == 0) {
    return "sink starved: packets were sent but none arrived";
  }
  return std::nullopt;
}

}  // namespace

ScenarioFuzzer::ScenarioFuzzer(FuzzConfig config)
    : config_(std::move(config)) {
  if (config_.apps.empty()) {
    for (const auto& p : apps::program_registry()) {
      app_pool_.push_back(p.name);
    }
  } else {
    app_pool_ = config_.apps;
  }
  assert(!app_pool_.empty());
}

std::pair<ScenarioSpec, std::string> ScenarioFuzzer::generate(std::size_t i) {
  // One independent stream per case index: case i is reproducible without
  // replaying cases 0..i-1.
  sim::Random rng(config_.seed * 0x9e3779b97f4a7c15ULL + i);
  ScenarioSpec spec;
  spec.name = "fuzz-" + std::to_string(config_.seed) + "-" + std::to_string(i);
  spec.seed = rng.uniform(1'000'000) + 1;
  spec.edges = 1 + rng.uniform(4);                  // 1..4
  spec.hosts_per_edge = 1 + rng.uniform(3);         // 1..3
  spec.flows = config_.flows;
  spec.sizes = rng.chance(0.5) ? SizeMix::kWebSearch : SizeMix::kHadoop;
  spec.arrivals = rng.chance(0.5) ? ArrivalSampler::Kind::kPoisson
                                  : ArrivalSampler::Kind::kOnOff;
  spec.load = 0.1 + rng.uniform01() * 0.5;
  spec.flow_size_cap_bytes = 16 * 1024;
  if (rng.chance(0.3)) {
    spec.incast_degree = 1 + rng.uniform(spec.num_sources());
    spec.incast_period = sim::Time::micros(
        200 + static_cast<std::int64_t>(rng.uniform(1800)));
  }
  if (rng.chance(0.3)) {
    spec.burst_packets = 8 << rng.uniform(4);  // 8..64
    spec.burst_period = sim::Time::micros(
        100 + static_cast<std::int64_t>(rng.uniform(900)));
  }
  if (config_.with_flaps) {
    const std::size_t flaps = rng.uniform(3);  // 0..2
    const sim::Time span = spec.active_span();
    for (std::size_t f = 0; f < flaps; ++f) {
      LinkFlap flap;
      const std::uint64_t which = rng.uniform(3);
      flap.target = which == 0   ? LinkFlap::Target::kSink
                    : which == 1 ? LinkFlap::Target::kAux
                                 : LinkFlap::Target::kSource;
      flap.source = rng.uniform(spec.num_sources());
      // Microsecond lattice so the repro string (which prints whole
      // microseconds) round-trips exactly.
      const auto half_span_us = static_cast<std::uint64_t>(
          std::max<std::int64_t>(1, span.ps() / 2'000'000));
      flap.down_at = sim::Time::micros(
          1 + static_cast<std::int64_t>(rng.uniform(half_span_us)));
      flap.up_at = flap.down_at +
                   sim::Time::micros(10 + static_cast<std::int64_t>(
                                              rng.uniform(200)));
      spec.flaps.push_back(flap);
    }
  }
  const std::string app =
      app_pool_[static_cast<std::size_t>(rng.uniform(app_pool_.size()))];
  return {spec, app};
}

std::optional<std::string> ScenarioFuzzer::check(const ScenarioSpec& spec,
                                                 const std::string& app) {
  const apps::RegisteredProgram* program = find_program(app);
  assert(program != nullptr);
  ReplayOptions one;
  one.shards = 1;
  ReplayOptions two;
  two.shards = 2;
  const ScenarioOutcome a = replay(spec, *program, one);
  const ScenarioOutcome b = replay(spec, *program, two);
  if (auto err = determinism_invariant(spec, a, b)) {
    return err;
  }
  // Liveness only means something for apps that forward to the sink;
  // non-routing apps (telemetry reporters, ToR-semantics apps) legitimately
  // deliver nothing there.
  if (app_routes_to_sink(*program)) {
    if (auto err = liveness_invariant(spec, a, b)) {
      return err;
    }
  }
  for (const Invariant& inv : config_.extra_invariants) {
    if (auto err = inv(spec, a, b)) {
      return err;
    }
  }
  return std::nullopt;
}

FuzzFailure ScenarioFuzzer::shrink(ScenarioSpec spec, const std::string& app,
                                   const std::string& what) {
  FuzzFailure failure;
  failure.original = spec;
  failure.app = app;
  failure.what = what;

  // Candidate mutations, coarsest first. Each is applied tentatively and
  // kept only if the shrunk case still violates the *same* invariant.
  const auto still_fails = [&](const ScenarioSpec& candidate) {
    const auto err = check(candidate, app);
    return err.has_value() && *err == what;
  };
  std::size_t steps = 0;
  bool progress = true;
  while (progress && steps < config_.max_shrink_steps) {
    progress = false;
    // Halve the flow budget.
    if (spec.flows > 1) {
      ScenarioSpec c = spec;
      c.flows = std::max<std::uint64_t>(1, c.flows / 2);
      if (still_fails(c)) {
        spec = c;
        ++steps;
        progress = true;
        continue;
      }
    }
    // Drop one flap at a time.
    bool flap_dropped = false;
    for (std::size_t f = 0; f < spec.flaps.size(); ++f) {
      ScenarioSpec c = spec;
      c.flaps.erase(c.flaps.begin() + static_cast<std::ptrdiff_t>(f));
      if (still_fails(c)) {
        spec = c;
        ++steps;
        progress = true;
        flap_dropped = true;
        break;
      }
    }
    if (flap_dropped) {
      continue;
    }
    // Disable storm lanes.
    if (spec.incast_degree > 0) {
      ScenarioSpec c = spec;
      c.incast_degree = 0;
      if (still_fails(c)) {
        spec = c;
        ++steps;
        progress = true;
        continue;
      }
    }
    if (spec.burst_packets > 0) {
      ScenarioSpec c = spec;
      c.burst_packets = 0;
      if (still_fails(c)) {
        spec = c;
        ++steps;
        progress = true;
        continue;
      }
    }
    // Shrink the topology (flap source indices are re-wrapped by replay).
    if (spec.edges > 1) {
      ScenarioSpec c = spec;
      c.edges = spec.edges - 1;
      if (still_fails(c)) {
        spec = c;
        ++steps;
        progress = true;
        continue;
      }
    }
    if (spec.hosts_per_edge > 1) {
      ScenarioSpec c = spec;
      c.hosts_per_edge = spec.hosts_per_edge - 1;
      if (still_fails(c)) {
        spec = c;
        ++steps;
        progress = true;
        continue;
      }
    }
  }
  failure.scenario = spec;
  failure.shrink_steps = steps;
  failure.repro = "edp_scen run --app " + app + " " + spec.repro();
  return failure;
}

FuzzReport ScenarioFuzzer::run(std::size_t max_failures) {
  FuzzReport report;
  for (std::size_t i = 0; i < config_.runs; ++i) {
    auto [spec, app] = generate(i);
    ++report.runs;
    const auto err = check(spec, app);
    if (!err) {
      continue;
    }
    ++report.failures;
    report.shrunk.push_back(shrink(spec, app, *err));
    if (max_failures != 0 && report.failures >= max_failures) {
      break;
    }
  }
  return report;
}

}  // namespace edp::workload
