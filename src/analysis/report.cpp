#include "analysis/report.hpp"

#include <algorithm>
#include <functional>
#include <sstream>
#include <utility>

namespace edp::analysis {

std::string_view to_string(Severity severity) {
  switch (severity) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "?";
}

std::string_view to_string(Pass pass) {
  switch (pass) {
    case Pass::kPortBudget:
      return "port-budget";
    case Pass::kPipelineMapping:
      return "pipeline-mapping";
    case Pass::kAmplification:
      return "amplification";
    case Pass::kResourceLint:
      return "resource-lint";
    case Pass::kOptimizer:
      return "optimizer";
    case Pass::kValueAnalysis:
      return "value-analysis";
  }
  return "?";
}

void add_finding(std::vector<Finding>& findings, Severity severity, Pass pass,
                 std::string code, std::string subject, std::string message) {
  findings.push_back(Finding{severity, pass, std::move(code),
                             std::move(subject), std::move(message)});
}

std::string rate_str(double rate) {
  std::ostringstream os;
  if (rate >= 1e9) {
    os << rate / 1e9 << "G/s";
  } else if (rate >= 1e6) {
    os << rate / 1e6 << "M/s";
  } else if (rate >= 1e3) {
    os << rate / 1e3 << "k/s";
  } else {
    os << rate << "/s";
  }
  return os.str();
}

std::string_view to_string(Handler handler) {
  switch (handler) {
    case Handler::kAttach:
      return "on_attach";
    case Handler::kIngress:
      return "on_ingress";
    case Handler::kEgress:
      return "on_egress";
    case Handler::kRecirculate:
      return "on_recirculate";
    case Handler::kGenerated:
      return "on_generated";
    case Handler::kTransmit:
      return "on_transmit";
    case Handler::kEnqueue:
      return "on_enqueue";
    case Handler::kDequeue:
      return "on_dequeue";
    case Handler::kOverflow:
      return "on_overflow";
    case Handler::kUnderflow:
      return "on_underflow";
    case Handler::kTimer:
      return "on_timer";
    case Handler::kControl:
      return "on_control";
    case Handler::kLinkStatus:
      return "on_link_status";
    case Handler::kUser:
      return "on_user";
  }
  return "?";
}

core::ThreadId thread_of(Handler handler) {
  switch (handler) {
    // The three packet-event pipelines are merged into the ingress
    // processing thread (paper Figure 2: recirculated and generated packets
    // re-enter through the ingress pipeline).
    case Handler::kIngress:
    case Handler::kRecirculate:
    case Handler::kGenerated:
      return core::ThreadId::kIngress;
    case Handler::kEgress:
      return core::ThreadId::kEgress;
    // Admission-side buffer events run on the enqueue thread.
    case Handler::kEnqueue:
    case Handler::kOverflow:
      return core::ThreadId::kEnqueue;
    // Service-side buffer events (and transmit completion) run on the
    // dequeue thread.
    case Handler::kDequeue:
    case Handler::kUnderflow:
    case Handler::kTransmit:
      return core::ThreadId::kDequeue;
    case Handler::kTimer:
      return core::ThreadId::kTimer;
    // Attach-time configuration, control, link and user events are not
    // line-rate pipelines; they contend like a background thread.
    case Handler::kAttach:
    case Handler::kControl:
    case Handler::kLinkStatus:
    case Handler::kUser:
      return core::ThreadId::kOther;
  }
  return core::ThreadId::kOther;
}

bool is_packet_handler(Handler handler) {
  return handler == Handler::kIngress || handler == Handler::kEgress ||
         handler == Handler::kRecirculate || handler == Handler::kGenerated;
}

std::string_view to_string(ActionKind action) {
  switch (action) {
    case ActionKind::kRecirculate:
      return "recirculate";
    case ActionKind::kRecircClone:
      return "recirc_clone";
    case ActionKind::kInjectPacket:
      return "inject_packet";
    case ActionKind::kSendPacket:
      return "send_packet";
    case ActionKind::kForward:
      return "forward";
    case ActionKind::kRaiseUserEvent:
      return "raise_user_event";
    case ActionKind::kSetTimer:
      return "set_timer";
    case ActionKind::kCancelTimer:
      return "cancel_timer";
    case ActionKind::kAddGenerator:
      return "add_generator";
    case ActionKind::kTriggerGenerator:
      return "trigger_generator";
    case ActionKind::kSetTemplate:
      return "set_generator_template";
  }
  return "?";
}

AccessCounts RegisterUsage::totals(Handler handler) const {
  AccessCounts total;
  for (const auto& c : counts[static_cast<std::size_t>(handler)]) {
    total.reads += c.reads;
    total.writes += c.writes;
  }
  return total;
}

std::vector<Handler> RegisterUsage::accessing_handlers() const {
  std::vector<Handler> out;
  for (std::size_t h = 1; h < kNumHandlers; ++h) {
    if (totals(static_cast<Handler>(h)).any()) {
      out.push_back(static_cast<Handler>(h));
    }
  }
  return out;
}

std::vector<Handler> RegisterUsage::writing_handlers() const {
  std::vector<Handler> out;
  for (std::size_t h = 1; h < kNumHandlers; ++h) {
    if (totals(static_cast<Handler>(h)).writes > 0) {
      out.push_back(static_cast<Handler>(h));
    }
  }
  return out;
}

std::string AccessMatrix::format() const {
  std::ostringstream os;
  for (const auto& reg : registers) {
    os << "  " << reg.name << " ("
       << (reg.aggregated ? "aggregated" : "shared") << ", size=" << reg.size
       << ", ports=" << reg.ports << ")\n";
    for (std::size_t h = 0; h < kNumHandlers; ++h) {
      const auto handler = static_cast<Handler>(h);
      const AccessCounts t = reg.totals(handler);
      if (!t.any()) {
        continue;
      }
      os << "    " << to_string(handler) << " [" << to_string(thread_of(handler))
         << "]: " << t.reads << "r/" << t.writes << "w";
      if (reg.aggregated) {
        const auto& per = reg.counts[h];
        const auto realization =
            [&](core::RegisterRealization r) -> const AccessCounts& {
          return per[static_cast<std::size_t>(r)];
        };
        os << " (main "
           << realization(core::RegisterRealization::kAggregatedMain).reads
           << "r/"
           << realization(core::RegisterRealization::kAggregatedMain).writes
           << "w, enq+"
           << realization(core::RegisterRealization::kAggregatedEnq).writes
           << ", deq+"
           << realization(core::RegisterRealization::kAggregatedDeq).writes
           << ")";
      }
      os << "\n";
    }
  }
  return os.str();
}

std::string EventGraph::format() const {
  // Deduplicate (from, to, action) for display.
  std::vector<std::string> lines;
  for (const auto& e : edges) {
    std::ostringstream os;
    os << "  " << to_string(e.from) << " --" << to_string(e.action)
       << (e.rate_bounded ? " (rate-bounded)" : "") << "--> "
       << to_string(e.to);
    if (!e.detail.empty()) {
      os << "  [" << e.detail << "]";
    }
    lines.push_back(os.str());
  }
  std::sort(lines.begin(), lines.end());
  lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
  std::string out;
  for (const auto& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

std::vector<std::vector<Handler>> EventGraph::cycles() const {
  // Adjacency over non-rate-bounded edges, deduplicated.
  std::array<std::array<bool, kNumHandlers>, kNumHandlers> adj{};
  for (const auto& e : edges) {
    if (!e.rate_bounded) {
      adj[static_cast<std::size_t>(e.from)][static_cast<std::size_t>(e.to)] =
          true;
    }
  }

  // Enumerate simple cycles with a bounded DFS (14 nodes; Johnson's
  // algorithm would be overkill). Each cycle is reported once, rooted at
  // its smallest handler.
  std::vector<std::vector<Handler>> found;
  std::array<bool, kNumHandlers> on_path{};
  std::vector<std::size_t> path;

  const std::function<void(std::size_t, std::size_t)> dfs =
      [&](std::size_t root, std::size_t node) {
        on_path[node] = true;
        path.push_back(node);
        for (std::size_t next = 0; next < kNumHandlers; ++next) {
          if (!adj[node][next]) {
            continue;
          }
          if (next == root) {
            std::vector<Handler> cycle;
            cycle.reserve(path.size());
            for (const std::size_t n : path) {
              cycle.push_back(static_cast<Handler>(n));
            }
            found.push_back(std::move(cycle));
          } else if (next > root && !on_path[next]) {
            // `next > root` keeps each cycle rooted at its smallest node.
            dfs(root, next);
          }
        }
        path.pop_back();
        on_path[node] = false;
      };

  for (std::size_t root = 0; root < kNumHandlers; ++root) {
    dfs(root, root);
  }
  return found;
}

bool Report::has(Severity at_least) const {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.severity >= at_least;
  });
}

std::string Report::format(bool verbose) const {
  std::ostringstream os;
  os << "== edp-verify: " << program << " ==\n";
  if (verbose) {
    os << "access matrix:\n" << matrix.format();
    os << "event graph:\n" << graph.format();
    os << "dataflow IR:\n" << ir.format();
    os << "pipeline mapping:\n" << mapping.format(ir.registers);
    os << "value analysis:\n" << values.format();
  }
  if (findings.empty()) {
    os << "  no findings\n";
  }
  for (const auto& f : findings) {
    os << "  " << to_string(f.severity) << " [" << to_string(f.pass) << "/"
       << f.code << "] " << f.subject << ": " << f.message << "\n";
  }
  return os.str();
}

}  // namespace edp::analysis
