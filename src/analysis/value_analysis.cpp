#include "analysis/value_analysis.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <sstream>

#include "analysis/passes.hpp"
#include "analysis/recording_context.hpp"

namespace edp::analysis {
namespace {

constexpr std::size_t kAttachIdx = static_cast<std::size_t>(Handler::kAttach);

std::string num_str(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// Everything the interval/congruence domain accumulates for one register
/// before the rate scaling.
struct Accum {
  bool opaque_self = false;   ///< plain write or value-less RMW observed
  bool has_event_deltas = false;

  /// Per-handler activation-sum delta bounds (only meaningful where seen).
  std::array<bool, kNumHandlers> seen{};
  std::array<std::int64_t, kNumHandlers> dmin{};
  std::array<std::int64_t, kNumHandlers> dmax{};

  std::int64_t access_min = 0;  ///< per-access delta bounds (all handlers)
  std::int64_t access_max = 0;
  std::int64_t max_abs = 0;     ///< largest single-access |delta|
  std::uint64_t gcd = 0;        ///< congruence over |per-access deltas|

  /// on_attach activation-sum bounds — the start interval's offset.
  std::int64_t attach_min = 0;
  std::int64_t attach_max = 0;
  bool attach_seen = false;
};

}  // namespace

const RegisterValueInfo* ValueAnalysis::find(const std::string& name) const {
  for (const RegisterValueInfo& r : registers) {
    if (r.name == name) {
      return &r;
    }
  }
  return nullptr;
}

std::string ValueAnalysis::format() const {
  std::ostringstream os;
  for (const RegisterValueInfo& r : registers) {
    os << "  " << r.name << " (w" << r.width_bits << ")";
    if (r.opaque) {
      os << ": top (unobservable writes or tainted dependency)\n";
      continue;
    }
    if (!r.has_event_deltas) {
      os << ": constant (no event-thread deltas observed)\n";
      continue;
    }
    os << ": delta [" << r.delta_min << ", " << r.delta_max << "] max|d|="
       << r.max_abs_delta << " growth [" << num_str(r.growth_down) << ", "
       << num_str(r.growth_up) << "]/s";
    if (r.congruence > 1) {
      os << " cong mod " << r.congruence;
    }
    os << " horizon [" << num_str(r.after_horizon.lo) << ", "
       << num_str(r.after_horizon.hi) << "]\n";
  }
  for (const ValueErrorBound& b : value_errors) {
    os << "  " << b.name << ": value-error bound "
       << (b.stable ? num_str(b.bound) : std::string("unbounded"))
       << " (staleness " << num_str(b.staleness_seconds) << "s x "
       << num_str(b.events_per_window) << " ev x max|d| " << b.max_abs_delta
       << ")\n";
  }
  if (registers.empty()) {
    os << "  (no registers)\n";
  }
  return os.str();
}

std::string merge_commutativity_blocker(const DataflowIr& ir, std::size_t reg) {
  // The witness comes from the probe itself: SharedRegister::rmw evaluates
  // the update function at neighbouring starting values during analysis
  // drives and reports whether the delta is independent of the current value
  // (IrAccess::rmw_linear). A value-dependent delta (overwrite, saturate,
  // max) observed on an event thread means summing deferred deltas in a
  // different order yields a different result — the sum-merge is unsound.
  for (const IrActivation& act : ir.activations) {
    const core::ThreadId t = thread_of(act.handler);
    if (act.handler == Handler::kAttach ||
        (t != core::ThreadId::kEnqueue && t != core::ThreadId::kDequeue)) {
      continue;
    }
    for (const IrAccess& a : act.accesses) {
      if (a.reg != reg || a.op != core::RegisterOp::kRmw ||
          !a.has_rmw_values || a.rmw_linear) {
        continue;
      }
      std::ostringstream os;
      os << to_string(act.handler) << "'s update of cell " << a.cell
         << " is not a pure delta (observed old " << a.rmw_old << " -> new "
         << a.rmw_new
         << ", but the update function yields a different delta from a "
            "different starting value) — deferring and reordering it "
            "through side arrays changes the result";
      return os.str();
    }
  }
  return {};
}

ValueAnalysis value_analysis_pass(const DataflowIr& ir, const EventGraph& graph,
                                  const RecordingContext& ctx,
                                  const HardwareModel& model,
                                  const EventRates& rates,
                                  const RegisterWidths& widths,
                                  const PipelineMapping& mapping,
                                  const ValueAnalysisOptions& options,
                                  std::vector<Finding>& findings) {
  ValueAnalysis out;
  const std::size_t n = ir.registers.size();
  if (n == 0) {
    return out;
  }
  const std::array<double, kNumHandlers> rate =
      derive_event_rates(graph, ctx, model, rates);

  // ---- accumulate observed deltas per (register, handler) ----
  std::vector<Accum> acc(n);
  for (const IrActivation& act : ir.activations) {
    const std::size_t h = static_cast<std::size_t>(act.handler);
    std::vector<std::pair<std::size_t, std::int64_t>> sums;
    for (const IrAccess& a : act.accesses) {
      Accum& ac = acc[a.reg];
      if (a.op == core::RegisterOp::kWrite ||
          (a.op == core::RegisterOp::kRmw && !a.has_rmw_values)) {
        // A plain write deposits a value the probe never sees; a value-less
        // RMW transformed the cell opaquely. Both widen the register to top.
        ac.opaque_self = true;
        continue;
      }
      if (a.op != core::RegisterOp::kRmw) {
        continue;
      }
      const std::int64_t d = a.rmw_new - a.rmw_old;
      const std::uint64_t mag =
          d < 0 ? static_cast<std::uint64_t>(-(d + 1)) + 1
                : static_cast<std::uint64_t>(d);
      if (mag > 0) {
        ac.gcd = std::gcd(ac.gcd, mag);
      }
      ac.access_min = std::min(ac.access_min, d);
      ac.access_max = std::max(ac.access_max, d);
      ac.max_abs = std::max(ac.max_abs, static_cast<std::int64_t>(mag));
      auto it = std::find_if(sums.begin(), sums.end(),
                             [&](const auto& s) { return s.first == a.reg; });
      if (it == sums.end()) {
        sums.push_back({a.reg, d});
      } else {
        it->second += d;
      }
    }
    for (const auto& [reg, sum] : sums) {
      Accum& ac = acc[reg];
      if (h == kAttachIdx) {
        ac.attach_min = ac.attach_seen ? std::min(ac.attach_min, sum) : sum;
        ac.attach_max = ac.attach_seen ? std::max(ac.attach_max, sum) : sum;
        ac.attach_seen = true;
        continue;
      }
      ac.has_event_deltas = true;
      ac.dmin[h] = ac.seen[h] ? std::min(ac.dmin[h], sum) : sum;
      ac.dmax[h] = ac.seen[h] ? std::max(ac.dmax[h], sum) : sum;
      ac.seen[h] = true;
    }
  }

  // ---- opaqueness fixpoint over the dependency chains ----
  // A read of a top register may feed any later access in the activation
  // (the IR's conservative dep edges), so the written value of the target
  // register is no longer described by its observed deltas.
  std::vector<char> opaque(n, 0);
  for (std::size_t r = 0; r < n; ++r) {
    opaque[r] = acc[r].opaque_self ? 1 : 0;
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (const DepEdge& e : ir.deps) {
      if (opaque[e.from] && !opaque[e.to]) {
        opaque[e.to] = 1;
        changed = true;
      }
    }
  }

  // ---- fold rates into per-register growth and the horizon interval ----
  out.registers.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    RegisterValueInfo& info = out.registers[r];
    const Accum& ac = acc[r];
    info.reg = r;
    info.name = ir.registers[r].name;
    info.width_bits = widths.get(info.name, options.default_width_bits);
    info.opaque = opaque[r] != 0;
    info.has_event_deltas = ac.has_event_deltas;
    info.delta_min = ac.access_min;
    info.delta_max = ac.access_max;
    info.max_abs_delta = ac.max_abs;
    info.congruence = ac.gcd;
    for (std::size_t h = 0; h < kNumHandlers; ++h) {
      if (h == kAttachIdx || !ac.seen[h]) {
        continue;
      }
      info.growth_up += rate[h] * static_cast<double>(std::max<std::int64_t>(
                                      0, ac.dmax[h]));
      info.growth_down += rate[h] * static_cast<double>(std::min<std::int64_t>(
                                        0, ac.dmin[h]));
    }
    if (info.opaque) {
      info.after_horizon.top = true;
    } else {
      const double start_lo =
          static_cast<double>(std::min<std::int64_t>(0, ac.attach_min));
      const double start_hi =
          static_cast<double>(std::max<std::int64_t>(0, ac.attach_max));
      info.after_horizon.lo =
          start_lo + info.growth_down * options.horizon_seconds;
      info.after_horizon.hi =
          start_hi + info.growth_up * options.horizon_seconds;
    }
  }

  // ---- register-overflow: interval vs annotated width on this target ----
  if (!model.unconstrained) {
    for (const RegisterValueInfo& info : out.registers) {
      if (ir.registers[info.reg].folded || info.opaque ||
          !info.has_event_deltas) {
        continue;
      }
      const double max_pos =
          std::ldexp(1.0, static_cast<int>(info.width_bits) - 1) - 1.0;
      const double min_neg =
          -std::ldexp(1.0, static_cast<int>(info.width_bits) - 1);
      const bool over = info.after_horizon.hi > max_pos;
      const bool under = info.after_horizon.lo < min_neg;
      if (!over && !under) {
        continue;
      }
      std::ostringstream os;
      os << "worst-case growth " << num_str(over ? info.growth_up
                                                 : info.growth_down)
         << "/s escapes the " << info.width_bits << "-bit range ["
         << num_str(min_neg) << ", " << num_str(max_pos) << "] within "
         << num_str(options.horizon_seconds) << "s";
      const double g = over ? info.growth_up : -info.growth_down;
      if (g > 0.0) {
        os << " (wraps after ~" << num_str(max_pos / g) << "s)";
      }
      if (info.congruence > 1) {
        os << "; values stay == 0 mod " << info.congruence
           << ", so the wrap aliases a valid reading";
      }
      add_finding(
          findings, Severity::kError, Pass::kValueAnalysis,
          "register-overflow", info.name, os.str());
    }
  }

  // ---- merge-noncommutative: the optimizer's soundness precondition ----
  for (std::size_t r = 0; r < n; ++r) {
    if (ir.registers[r].folded) {
      continue;
    }
    const std::string witness = merge_commutativity_blocker(ir, r);
    if (witness.empty()) {
      continue;
    }
    add_finding(
        findings, model.unconstrained ? Severity::kNote : Severity::kWarning,
        Pass::kValueAnalysis, "merge-noncommutative", ir.registers[r].name,
        "sum-of-deltas merge is order-sensitive: " + witness);
  }

  // ---- staleness-value-error: PR 9's cycle bound in value units ----
  for (const PipelineMapping::Drain& d : mapping.drains) {
    if (d.reg >= n || !ir.registers[d.reg].aggregated) {
      continue;
    }
    ValueErrorBound b;
    b.reg = d.reg;
    b.name = d.name;
    b.max_abs_delta = out.registers[d.reg].max_abs_delta;
    b.stable = !d.starved && mapping.idle_rate > 0.0;
    if (b.stable) {
      b.staleness_seconds =
          2.0 * static_cast<double>(ir.registers[d.reg].size) /
          mapping.idle_rate;
      b.events_per_window = d.demand * b.staleness_seconds;
      b.bound = static_cast<double>(b.max_abs_delta) * b.events_per_window;
    }
    out.value_errors.push_back(b);
    if (model.unconstrained) {
      continue;
    }
    std::ostringstream os;
    if (b.stable) {
      os << "aggregated value deviates from the true sum by at most "
         << num_str(b.bound) << " (" << num_str(b.events_per_window)
         << " updates/window x max |delta| " << b.max_abs_delta
         << " over a " << num_str(b.staleness_seconds)
         << "s staleness window)";
      add_finding(
          findings, Severity::kNote, Pass::kValueAnalysis,
          "staleness-value-error", b.name, os.str());
    } else {
      os << "drain budget cannot bound staleness (idle "
         << num_str(mapping.idle_rate) << "/s vs demand " << num_str(d.demand)
         << "/s), so the value deviation is unbounded";
      add_finding(
          findings, Severity::kWarning, Pass::kValueAnalysis,
          "staleness-value-error", b.name, os.str());
    }
  }

  // ---- queue-occupancy-unbounded: increments never closed ----
  if (!model.unconstrained) {
    for (std::size_t r = 0; r < n; ++r) {
      const RegisterValueInfo& info = out.registers[r];
      const Accum& ac = acc[r];
      const std::size_t enq = static_cast<std::size_t>(Handler::kEnqueue);
      if (ir.registers[r].folded || info.opaque || !info.has_event_deltas ||
          !ac.seen[enq] || ac.dmax[enq] <= 0 || info.delta_min < 0 ||
          info.growth_up <= 0.0) {
        continue;
      }
      // A register the service side actively updates is a counter with its
      // own discipline, not an occupancy gauge nobody closes: only flag
      // when no dequeue-thread handler ever applies a delta.
      bool service_side_delta = false;
      for (std::size_t h = 0; h < kNumHandlers; ++h) {
        service_side_delta =
            service_side_delta ||
            (ac.seen[h] && thread_of(static_cast<Handler>(h)) ==
                               core::ThreadId::kDequeue);
      }
      if (service_side_delta) {
        continue;
      }
      const double capacity =
          options.buffer_bytes / static_cast<double>(model.min_packet_bytes);
      std::ostringstream os;
      os << "admission-side increments (+" << ac.dmax[enq]
         << "/enqueue) are never closed by a decrement; the interval grows "
         << num_str(info.growth_up) << "/s and passes the TM buffer ("
         << num_str(capacity) << " min-size slots) after ~"
         << num_str(capacity / info.growth_up) << "s";
      add_finding(
          findings, Severity::kWarning, Pass::kValueAnalysis,
          "queue-occupancy-unbounded", info.name, os.str());
    }
  }

  // ---- missing-rates: writer handlers the rate model knows nothing about --
  for (std::size_t h = 0; h < kNumHandlers; ++h) {
    if (h == kAttachIdx) {
      continue;
    }
    const Handler handler = static_cast<Handler>(h);
    if (rates.declared(handler) || rate[h] > 0.0) {
      continue;
    }
    bool writes = false;
    std::string reg_name;
    for (std::size_t r = 0; r < n && !writes; ++r) {
      if (ir.registers[r].folded) {
        continue;
      }
      const AccessPattern p = ir.pattern(handler, r);
      if (p == AccessPattern::kBlindWrite || p == AccessPattern::kRmw ||
          p == AccessPattern::kMixed) {
        writes = true;
        reg_name = ir.registers[r].name;
      }
    }
    if (!writes) {
      continue;
    }
    add_finding(
        findings, Severity::kNote, Pass::kValueAnalysis, "missing-rates",
        std::string(to_string(handler)),
        "handler writes " + reg_name +
            " but has no declared EventRates entry and the derived "
            "worst-case rate is 0/s — overflow and drain budgets ignore it");
  }

  return out;
}

}  // namespace edp::analysis
