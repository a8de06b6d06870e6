// edp::analysis — findings, handlers, the access matrix, and the event
// graph: the result vocabulary shared by every pass.
//
// `edp-verify` (paper §4, plus McClurg et al. and Cascone et al. from
// PAPERS.md) checks an EventProgram *before* it runs:
//
//   * the handler-thread × register access matrix and its port-budget
//     feasibility (is the program realizable on the configured memories?),
//   * the ordered dataflow IR and its hardware pipeline mapping (ir.hpp,
//     hardware_model.hpp): stage depth, per-stage port schedule, and the
//     idle-cycle aggregation drain budget,
//   * the event-generation graph and its unguarded amplification cycles
//     (can one trigger snowball into an unbounded event storm?),
//   * resource lints (facilities used without checking availability,
//     enq/deq metadata conventions).
//
// report.hpp assembles these into the per-program Report.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/register_probe.hpp"

namespace edp::analysis {

// ---- findings -----------------------------------------------------------------

/// kNote findings are facts worth knowing (e.g. "requires AggregatedRegister
/// on single-ported targets"); kWarning and kError fail `edp_lint`.
enum class Severity : std::uint8_t { kNote, kWarning, kError };

enum class Pass : std::uint8_t {
  kPortBudget,
  kPipelineMapping,
  kAmplification,
  kResourceLint,
  kOptimizer,       ///< transform diagnostics from src/analysis/optimizer.hpp
  kValueAnalysis,   ///< abstract-interpretation value domain (value_analysis.hpp)
};

std::string_view to_string(Severity severity);
std::string_view to_string(Pass pass);

/// The complete finding-code vocabulary, in SARIF rule-catalogue order.
/// This is the single source of truth shared by sarif.cpp's rule catalogue
/// and scripts/validate_sarif.py --codes-from (which parses this array), so
/// the machine-readable catalogue cannot drift from the passes. Extend it
/// whenever a pass grows a new code; a ctest asserts finding_rules() matches.
inline constexpr std::string_view kFindingCodes[] = {
    "port-overcommit",
    "needs-aggregation",
    "thread-attribution",
    "agg-main-misuse",
    "agg-array-misuse",
    "stage-overflow",
    "port-schedule-conflict",
    "aggregation-starvation",
    "unguarded-cycle",
    "guarded-cycle",
    "runaway-chain",
    "unchecked-facility",
    "zero-id",
    "dead-meta-write",
    "unused-meta",
    "multiport-unrealizable",
    "transform-applied",
    "staleness-bound",
    "unresolvable-constraint",
    "register-overflow",
    "merge-noncommutative",
    "staleness-value-error",
    "queue-occupancy-unbounded",
    "missing-rates",
};

struct Finding {
  Severity severity = Severity::kNote;
  Pass pass = Pass::kResourceLint;
  /// Stable machine-readable id, e.g. "port-overcommit"; tests match on it.
  std::string code;
  /// What the finding is about (a register, handler, or cycle).
  std::string subject;
  std::string message;
};

/// Append a finding; every pass reports through this one helper.
void add_finding(std::vector<Finding>& findings, Severity severity, Pass pass,
                 std::string code, std::string subject, std::string message);

/// An event rate as finding messages print it: "1.5G/s", "250k/s", "12/s".
std::string rate_str(double rate);

// ---- handlers -----------------------------------------------------------------

/// One row of the access matrix: the 13 event-kind handlers plus on_attach.
/// Ordered to match core::EventKind (offset by kAttach).
enum class Handler : std::uint8_t {
  kAttach = 0,
  kIngress,
  kEgress,
  kRecirculate,
  kGenerated,
  kTransmit,
  kEnqueue,
  kDequeue,
  kOverflow,
  kUnderflow,
  kTimer,
  kControl,
  kLinkStatus,
  kUser,
};
inline constexpr std::size_t kNumHandlers = 14;

std::string_view to_string(Handler handler);

/// The event-processing thread a handler's logical pipeline runs on
/// (paper Figure 2) — the ground-truth row label for the access matrix.
core::ThreadId thread_of(Handler handler);

/// True for the four PHV-carrying handlers (ingress pipeline class).
bool is_packet_handler(Handler handler);

// ---- access matrix ------------------------------------------------------------

struct AccessCounts {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;  ///< writes + RMWs
  bool any() const { return reads + writes > 0; }
};

inline constexpr std::size_t kNumRealizations = 4;

/// Everything the analyzer learned about one register extern.
struct RegisterUsage {
  std::string name;
  bool aggregated = false;  ///< AggregatedRegister vs SharedRegister
  /// Constant-folded by the optimizer: never written outside on_attach, so
  /// it compiles to match-action constants — no ports, no stage capacity.
  bool folded = false;
  std::size_t size = 0;
  int ports = 1;  ///< configured budget (SharedRegister); 1 for aggregated

  /// counts[handler][realization]: reads/writes per handler per physical
  /// array (shared registers only use RegisterRealization::kShared).
  std::array<std::array<AccessCounts, kNumRealizations>, kNumHandlers>
      counts{};

  /// Declared-ThreadId bitmask per handler (SharedRegister accesses), for
  /// attribution-mismatch lints.
  std::array<std::uint8_t, kNumHandlers> declared_threads{};

  AccessCounts totals(Handler handler) const;
  /// Handlers (excluding on_attach) with any access / any write.
  std::vector<Handler> accessing_handlers() const;
  std::vector<Handler> writing_handlers() const;
};

struct AccessMatrix {
  std::vector<RegisterUsage> registers;
  std::string format() const;
};

// ---- event-generation graph ---------------------------------------------------

/// The program/architecture action that spawns the downstream event.
enum class ActionKind : std::uint8_t {
  kRecirculate,       ///< std_meta.recirculate after a packet handler
  kRecircClone,       ///< std_meta.recirc_clone from the egress pipeline
  kInjectPacket,      ///< EventContext::inject_packet
  kSendPacket,        ///< EventContext::send_packet (direct enqueue)
  kForward,           ///< normal unicast/multicast egress (enqueue follows)
  kRaiseUserEvent,    ///< EventContext::raise_user_event
  kSetTimer,          ///< set_periodic_timer / set_oneshot_timer
  kCancelTimer,       ///< cancel_timer (no downstream event)
  kAddGenerator,      ///< add_generator (periodic emissions)
  kTriggerGenerator,  ///< trigger_generator (burst now)
  kSetTemplate,       ///< set_generator_template (no downstream event)
};

std::string_view to_string(ActionKind action);

struct GraphEdge {
  Handler from = Handler::kAttach;
  Handler to = Handler::kIngress;
  ActionKind action = ActionKind::kForward;
  /// True when the architecture bounds the edge's rate (nonzero timer
  /// period / generator period): such edges cannot amplify.
  bool rate_bounded = false;
  std::string detail;
};

struct EventGraph {
  std::vector<GraphEdge> edges;

  /// Deduplicated (from, to, action) view, for printing and cycle search.
  std::string format() const;

  /// Handler cycles reachable through non-rate-bounded edges. Each cycle is
  /// the sequence of handlers, starting from its smallest element.
  std::vector<std::vector<Handler>> cycles() const;
};

}  // namespace edp::analysis
