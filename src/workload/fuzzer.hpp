// edp::workload — the scenario fuzzer.
//
// Randomizes scenarios over (seed x topology x mix x storm lanes x failure
// schedule), replays each against an app, and checks invariants:
//
//   * determinism — the outcome digest and the timing digest at 2 shards
//     equal the 1-shard run's;
//   * liveness    — the sink received background traffic (no sink flap);
//   * optional caller-supplied oracles (the test suite injects a
//     deliberately-too-strong invariant to exercise the machinery).
//
// A failing case is *shrunk* to a minimal reproducer: halve the flow count,
// drop flap entries, shrink the topology and disable storm lanes — keeping
// each mutation only while the case still fails — then emit the scenario's
// one-line `edp_scen` repro string. Everything is seeded: the same fuzz
// seed always finds and shrinks the same case.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "workload/replay.hpp"

namespace edp::workload {

/// An invariant over a replayed scenario. Returns an error description when
/// violated, nullopt when satisfied. For determinism checks the 1-shard and
/// 2-shard outcomes of the same scenario are both provided.
using Invariant = std::function<std::optional<std::string>(
    const ScenarioSpec&, const ScenarioOutcome& one_shard,
    const ScenarioOutcome& two_shards)>;

struct FuzzConfig {
  std::uint64_t seed = 1;
  std::size_t runs = 20;
  /// Flow budget per generated case (shrinking lowers it further).
  std::uint64_t flows = 2000;
  /// Apps to draw from; empty = every registered program.
  std::vector<std::string> apps;
  /// Generate link-flap schedules (needed to exercise failure handling).
  bool with_flaps = true;
  /// Extra oracles on top of the built-in determinism + liveness checks.
  std::vector<Invariant> extra_invariants;
  std::size_t max_shrink_steps = 64;
};

struct FuzzFailure {
  ScenarioSpec scenario;       ///< the minimal (shrunk) failing case
  ScenarioSpec original;       ///< as generated, before shrinking
  std::string app;
  std::string what;            ///< violated invariant description
  std::size_t shrink_steps = 0;  ///< accepted shrinking mutations
  std::string repro;           ///< edp_scen command-line reproducer
};

struct FuzzReport {
  std::size_t runs = 0;
  std::size_t failures = 0;    ///< distinct generated cases that failed
  std::vector<FuzzFailure> shrunk;  ///< one minimal reproducer per failure
};

class ScenarioFuzzer {
 public:
  explicit ScenarioFuzzer(FuzzConfig config);

  /// Run the campaign. Stops early after `max_failures` distinct failures
  /// (each already shrunk); 0 = never stop early.
  FuzzReport run(std::size_t max_failures = 1);

  /// Generate the i-th random case (exposed for tests; deterministic).
  std::pair<ScenarioSpec, std::string> generate(std::size_t i);

  /// Evaluate every invariant; first violation or nullopt.
  std::optional<std::string> check(const ScenarioSpec& spec,
                                   const std::string& app);

  /// Shrink a failing case until no mutation keeps it failing.
  FuzzFailure shrink(ScenarioSpec spec, const std::string& app,
                     const std::string& what);

 private:
  FuzzConfig config_;
  std::vector<std::string> app_pool_;
};

}  // namespace edp::workload
