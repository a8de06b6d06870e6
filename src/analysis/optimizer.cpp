#include "analysis/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

namespace edp::analysis {
namespace {

std::string micros_str(double seconds) {
  std::ostringstream os;
  os << seconds * 1e6 << "us";
  return os.str();
}

bool writes(AccessPattern p) {
  return p == AccessPattern::kBlindWrite || p == AccessPattern::kRmw ||
         p == AccessPattern::kMixed;
}

bool is_event_thread(core::ThreadId t) {
  return t == core::ThreadId::kEnqueue || t == core::ThreadId::kDequeue;
}

/// The port-constraint error codes aggregation-insertion can resolve.
bool aggregation_candidate_code(const std::string& code) {
  return code == "multiport-unrealizable" || code == "port-overcommit" ||
         code == "port-schedule-conflict";
}

/// Observed RMW deltas of one register on the enqueue/dequeue threads —
/// the data the merge function is derived from.
struct DeltaSummary {
  std::size_t count = 0;
  bool all_have_values = true;
  std::int64_t min = std::numeric_limits<std::int64_t>::max();
  std::int64_t max = std::numeric_limits<std::int64_t>::min();
};

DeltaSummary summarize_deltas(const DataflowIr& ir, std::size_t reg) {
  DeltaSummary s;
  for (const IrActivation& act : ir.activations) {
    if (!is_event_thread(thread_of(act.handler))) {
      continue;
    }
    for (const IrAccess& a : act.accesses) {
      if (a.reg != reg || a.op != core::RegisterOp::kRmw) {
        continue;
      }
      ++s.count;
      if (!a.has_rmw_values) {
        s.all_have_values = false;
        continue;
      }
      const std::int64_t delta = a.rmw_new - a.rmw_old;
      s.min = std::min(s.min, delta);
      s.max = std::max(s.max, delta);
    }
  }
  return s;
}

/// Why aggregation-insertion cannot rewrite this register; empty when the
/// observed access patterns prove the rewrite safe.
std::string aggregation_blocker(const DataflowIr& ir, std::size_t reg) {
  for (std::size_t h = 1; h < kNumHandlers; ++h) {
    const auto handler = static_cast<Handler>(h);
    const AccessPattern p = ir.patterns[h][reg];
    if (p == AccessPattern::kNone) {
      continue;
    }
    const core::ThreadId t = thread_of(handler);
    if (is_event_thread(t)) {
      if (p != AccessPattern::kRmw) {
        return std::string(to_string(handler)) + " " + std::string(to_string(p)) +
               "-accesses the register on an event thread — aggregation side "
               "arrays only absorb coalescible RMW deltas, not accesses that "
               "need the live value";
      }
    } else if (is_packet_handler(handler)) {
      continue;  // the packet pipeline owns the aggregated main port
    } else if (writes(p)) {
      return std::string(to_string(handler)) +
             " writes the register from a carrier thread — the aggregated "
             "realization provides no carrier-thread port";
    } else {
      return std::string(to_string(handler)) +
             " reads the register from a carrier thread — the aggregated "
             "main array's port belongs to the packet pipeline";
    }
  }
  const DeltaSummary deltas = summarize_deltas(ir, reg);
  if (deltas.count == 0) {
    return "no enqueue/dequeue-thread RMW deltas were observed — nothing "
           "for the side arrays to absorb";
  }
  if (!deltas.all_have_values) {
    return "RMW deltas are not integral — no merge function can be derived "
           "from the observed old/new values";
  }
  // The value analysis's soundness precondition: deferring deltas through
  // side arrays reorders them, so a witness that the update discards prior
  // state makes the derived sum-merge a determinism hazard, not a rewrite.
  const std::string witness = merge_commutativity_blocker(ir, reg);
  if (!witness.empty()) {
    return "derived merge function is not commutative: " + witness;
  }
  return "";
}

/// The EventKinds the Event Merger delivers (suppressible / fusible); the
/// four packet kinds flow through the pipeline itself and stay queued.
/// NOTE: Handler and EventKind are *not* offset-aligned (on_transmit sits
/// before the buffer events in the Handler enum, kPacketTransmitted before
/// kEnqueue in EventKind) — map explicitly.
struct MergerKind {
  Handler handler;
  core::EventKind kind;
};
constexpr MergerKind kMergerKinds[] = {
    {Handler::kTransmit, core::EventKind::kPacketTransmitted},
    {Handler::kEnqueue, core::EventKind::kEnqueue},
    {Handler::kDequeue, core::EventKind::kDequeue},
    {Handler::kOverflow, core::EventKind::kBufferOverflow},
    {Handler::kUnderflow, core::EventKind::kBufferUnderflow},
    {Handler::kTimer, core::EventKind::kTimer},
    {Handler::kControl, core::EventKind::kControlPlane},
    {Handler::kLinkStatus, core::EventKind::kLinkStatus},
    {Handler::kUser, core::EventKind::kUser},
};

/// Fusion candidates: TM-callback events whose handler can run inline at
/// the observation point.
bool fusion_candidate(Handler h) {
  return h == Handler::kEnqueue || h == Handler::kDequeue ||
         h == Handler::kOverflow || h == Handler::kUnderflow;
}

/// A handler is fusible when its every observed access lands in the
/// aggregation side arrays (pure delta coalescing) and it never touches an
/// architecture facility — then running it inline at the TM callback,
/// inside the same pipeline slot, changes only the deltas' timestamps.
bool fusible(const ProgramTraces& traces, Handler h) {
  bool any_access = false;
  for (const IrActivation& act : traces.ir.activations) {
    if (act.handler != h) {
      continue;
    }
    for (const IrAccess& a : act.accesses) {
      any_access = true;
      if (a.realization != core::RegisterRealization::kAggregatedEnq &&
          a.realization != core::RegisterRealization::kAggregatedDeq) {
        return false;
      }
    }
  }
  if (!any_access) {
    return false;  // side effects live in member state the probe cannot see
  }
  const auto during_h = [h](const auto& rec) { return rec.during == h; };
  return std::none_of(traces.event_ctx.calls().begin(),
                      traces.event_ctx.calls().end(), during_h) &&
         std::none_of(traces.event_ctx.punts().begin(),
                      traces.event_ctx.punts().end(), during_h);
}

std::size_t count_severity(const Report& report, Severity severity) {
  return static_cast<std::size_t>(
      std::count_if(report.findings.begin(), report.findings.end(),
                    [&](const Finding& f) { return f.severity == severity; }));
}

}  // namespace

Report OptimizationResult::combined() const {
  Report r = optimized;
  r.findings.insert(r.findings.end(), diagnostics.begin(), diagnostics.end());
  std::stable_sort(r.findings.begin(), r.findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return std::tie(a.code, a.subject, a.message) <
                            std::tie(b.code, b.subject, b.message);
                   });
  return r;
}

std::string OptimizationResult::format(bool verbose) const {
  std::ostringstream os;
  os << "== edp-optimize: " << program << " -> " << target << " ==\n";
  if (transforms.empty()) {
    os << "  no transforms applied\n";
  } else {
    os << "  transforms applied: " << transforms.size() << "\n";
    for (const TransformRecord& t : transforms) {
      os << "    " << t.kind << " " << t.subject << ": " << t.detail << "\n";
    }
  }
  os << "  dispatch plan: " << plan.count(core::DispatchMode::kFused)
     << " fused, " << plan.count(core::DispatchMode::kSuppressed)
     << " suppressed, " << plan.count(core::DispatchMode::kQueued)
     << " queued event kind(s)\n";
  for (const StalenessBound& b : staleness) {
    os << "  staleness bound " << b.reg << ": demand "
       << rate_str(b.demand_per_sec) << " vs idle "
       << rate_str(b.idle_rate_per_sec);
    if (b.stable) {
      os << " -> " << micros_str(b.bound_seconds) << " (" << b.bound_cycles
         << " cycles)\n";
    } else {
      os << " -> unbounded (drain starved)\n";
    }
  }
  os << "  re-verification: naive " << count_severity(naive, Severity::kError)
     << " error(s)/" << count_severity(naive, Severity::kWarning)
     << " warning(s) -> optimized "
     << count_severity(optimized, Severity::kError) << " error(s)/"
     << count_severity(optimized, Severity::kWarning) << " warning(s); "
     << (feasible ? "feasible" : "unresolvable") << "\n";
  const Report all = combined();
  for (const Finding& f : all.findings) {
    os << "  " << to_string(f.severity) << " [" << to_string(f.pass) << "/"
       << f.code << "] " << f.subject << ": " << f.message << "\n";
  }
  if (verbose) {
    os << optimized.format(true);
  }
  return os.str();
}

OptimizationResult optimize_program(const std::string& name,
                                    const ProgramFactory& factory,
                                    const AnalyzerOptions& options) {
  OptimizationResult result;
  result.program = name;
  const HardwareModel& model =
      options.model != nullptr ? *options.model : unconstrained_model();
  result.target = model.name;

  ProgramTraces traces = extract_traces(factory, options);
  result.naive = analyze_traces(name, traces, options);

  // ---- transform 1: aggregation-insertion ---------------------------------
  // Candidates: SharedRegisters the naive verification rejected on a port
  // constraint. Candidate order follows the IR register order, so the
  // transform list is deterministic.
  std::set<std::string> candidate_names;
  for (const Finding& f : result.naive.findings) {
    if (f.severity == Severity::kError && aggregation_candidate_code(f.code)) {
      candidate_names.insert(f.subject);
    }
  }
  std::vector<std::string> accepted;
  // Rejection reasons, surfaced only if the register's error survives
  // re-verification — another transform (constant folding) may still
  // resolve it, and the re-verified report is the authority.
  std::map<std::string, std::string> blockers;
  for (std::size_t r = 0; r < traces.ir.registers.size(); ++r) {
    const IrRegister& reg = traces.ir.registers[r];
    if (reg.aggregated || candidate_names.count(reg.name) == 0) {
      continue;
    }
    std::string blocker = aggregation_blocker(traces.ir, r);
    if (blocker.empty()) {
      // The traces prove the rewrite safe; the program must also support
      // it (probe a throwaway instance before committing).
      if (!factory()->realize_aggregated(reg.name)) {
        blocker =
            "the program declines realize_aggregated for this register — no "
            "aggregated realization is implemented";
      }
    }
    if (!blocker.empty()) {
      blockers.emplace(
          reg.name,
          "port constraint cannot be resolved by aggregation-insertion: " +
              blocker);
      continue;
    }
    const DeltaSummary deltas = summarize_deltas(traces.ir, r);
    std::ostringstream detail;
    detail << "re-realized as AggregatedRegister (merge fn: sum of RMW "
           << "deltas in [" << deltas.min << ", " << deltas.max << "]; "
           << reg.ports << " declared port(s) -> 1 main + enq/deq side "
           << "arrays)";
    result.transforms.push_back(
        TransformRecord{"aggregation-insertion", reg.name, detail.str()});
    accepted.push_back(reg.name);
  }

  result.optimized_factory = factory;
  if (!accepted.empty()) {
    result.optimized_factory = [factory, accepted]() {
      std::unique_ptr<core::EventProgram> program = factory();
      for (const std::string& reg : accepted) {
        program->realize_aggregated(reg);
      }
      return program;
    };
    // The rewrite changed the program; everything downstream (constant
    // folding, the dispatch plan, re-verification) judges the rewritten
    // traces.
    traces = extract_traces(result.optimized_factory, options);
  }

  // ---- transform 2a: constant-fold attach-only registers ------------------
  for (std::size_t r = 0; r < traces.ir.registers.size(); ++r) {
    IrRegister& reg = traces.ir.registers[r];
    if (reg.aggregated || reg.folded) {
      continue;
    }
    bool read_after_attach = false;
    bool written_after_attach = false;
    for (std::size_t h = 1; h < kNumHandlers; ++h) {
      const AccessPattern p = traces.ir.patterns[h][r];
      read_after_attach = read_after_attach || p == AccessPattern::kReadOnly ||
                          p == AccessPattern::kMixed;
      written_after_attach = written_after_attach || writes(p);
    }
    if (read_after_attach && !written_after_attach) {
      reg.folded = true;
      result.transforms.push_back(TransformRecord{
          "constant-fold", reg.name,
          "never written after on_attach — every lookup key is invariant, so "
          "the register compiles to match-action constants (no register "
          "port, no stateful-ALU slot)"});
    }
  }

  // ---- transform 2b: pipeline merging (the dispatch plan) -----------------
  for (const MergerKind& mk : kMergerKinds) {
    if (fusion_candidate(mk.handler) &&
        traces.event_log.overridden(mk.handler) && fusible(traces, mk.handler)) {
      result.plan.set(mk.kind, core::DispatchMode::kFused);
      result.transforms.push_back(TransformRecord{
          "fuse-handler", std::string(to_string(mk.handler)),
          "only coalesces deltas into aggregation side arrays — inlined at "
          "the traffic-manager observation point, no carrier slot"});
    } else if (traces.event_log.provably_default(mk.handler)) {
      result.plan.set(mk.kind, core::DispatchMode::kSuppressed);
      result.transforms.push_back(TransformRecord{
          "suppress-default", std::string(to_string(mk.handler)),
          "provably runs the empty default body — the event is never "
          "constructed (counters still tick)"});
    }
  }
  result.transformed = !result.transforms.empty();

  // ---- transform 3: mandatory re-verification -----------------------------
  result.optimized = analyze_traces(name, traces, options);

  for (const TransformRecord& t : result.transforms) {
    add_finding(
        result.diagnostics, Severity::kNote, Pass::kOptimizer,
        "transform-applied", t.subject, t.kind + ": " + t.detail);
  }

  // Staleness contracts for every aggregated register the mapping drains.
  for (const PipelineMapping::Drain& d : result.optimized.mapping.drains) {
    if (!traces.ir.registers[d.reg].aggregated) {
      continue;
    }
    StalenessBound b;
    b.reg = d.name;
    b.demand_per_sec = d.demand;
    b.idle_rate_per_sec = result.optimized.mapping.idle_rate;
    b.stable = !d.starved && b.idle_rate_per_sec > 0.0;
    if (const RegisterValueInfo* vi =
            result.optimized.values.find(d.name)) {
      b.max_abs_delta = vi->max_abs_delta;
    }
    std::ostringstream msg;
    if (b.stable) {
      const std::size_t size = traces.ir.registers[d.reg].size;
      b.bound_seconds =
          2.0 * static_cast<double>(size) / b.idle_rate_per_sec;
      b.bound_cycles = static_cast<std::uint64_t>(
          std::ceil(b.bound_seconds * model.clock_hz));
      b.value_error_bound = static_cast<double>(b.max_abs_delta) *
                            b.demand_per_sec * b.bound_seconds;
      msg << "aggregated updates at " << rate_str(b.demand_per_sec)
          << " drain into " << rate_str(b.idle_rate_per_sec)
          << " idle cycles; worst-case staleness is one sweep of 2x" << size
          << " side entries = " << micros_str(b.bound_seconds) << " ("
          << b.bound_cycles << " cycles), value error <= "
          << b.value_error_bound;
    } else {
      msg << "aggregated updates at " << rate_str(b.demand_per_sec)
          << " exceed the " << rate_str(b.idle_rate_per_sec)
          << " idle-cycle drain budget — staleness is unbounded";
    }
    add_finding(
        result.diagnostics, Severity::kNote, Pass::kOptimizer,
        "staleness-bound", b.reg, msg.str());
    result.staleness.push_back(std::move(b));
  }

  // Any error surviving re-verification is, by definition, a constraint the
  // transforms could not resolve; name it precisely (once per subject),
  // preferring the recorded reason the rewrite was rejected.
  std::set<std::string> unresolved_subjects;
  for (const Finding& f : result.optimized.findings) {
    if (f.severity != Severity::kError ||
        !unresolved_subjects.insert(f.subject).second) {
      continue;
    }
    const auto blocked = blockers.find(f.subject);
    add_finding(
        result.diagnostics, Severity::kError, Pass::kOptimizer,
        "unresolvable-constraint", f.subject,
        blocked != blockers.end()
            ? blocked->second
            : "still fails re-verification after the transforms (" + f.code +
                  "): " + f.message);
  }

  result.feasible =
      !result.optimized.has(Severity::kError) &&
      std::none_of(result.diagnostics.begin(), result.diagnostics.end(),
                   [](const Finding& f) {
                     return f.severity == Severity::kError;
                   });
  return result;
}

}  // namespace edp::analysis
