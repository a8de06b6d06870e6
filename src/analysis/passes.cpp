#include "analysis/passes.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>

#include "core/event_program.hpp"

namespace edp::analysis {
namespace {

std::string handler_list(const std::vector<Handler>& handlers) {
  std::string out;
  for (const Handler h : handlers) {
    if (!out.empty()) {
      out += ", ";
    }
    out += to_string(h);
  }
  return out;
}

std::string thread_list(const std::set<core::ThreadId>& threads) {
  std::string out;
  for (const core::ThreadId t : threads) {
    if (!out.empty()) {
      out += ", ";
    }
    out += to_string(t);
  }
  return out;
}

std::string cycle_string(const std::vector<Handler>& cycle) {
  std::string out;
  for (const Handler h : cycle) {
    out += to_string(h);
    out += " -> ";
  }
  out += to_string(cycle.front());
  return out;
}

}  // namespace

// ---- graph --------------------------------------------------------------------

EventGraph build_graph(const RecordingContext& ctx, const DriveLog& log) {
  EventGraph g;

  // Architecture edges: an admitted packet is eventually served (its
  // dequeue event fires and the egress pipeline runs on it) and then
  // transmitted. These are rate-preserving — one activation each — so
  // cycles through them amplify only via a program action edge.
  g.edges.push_back(GraphEdge{Handler::kEnqueue, Handler::kDequeue,
                              ActionKind::kForward, false, "architecture"});
  g.edges.push_back(GraphEdge{Handler::kDequeue, Handler::kEgress,
                              ActionKind::kForward, false, "architecture"});
  g.edges.push_back(GraphEdge{Handler::kEgress, Handler::kTransmit,
                              ActionKind::kForward, false, "architecture"});

  for (const PacketDrive& d : log.packet_drives) {
    if (d.recirculate) {
      g.edges.push_back(GraphEdge{d.handler, Handler::kRecirculate,
                                  ActionKind::kRecirculate, false,
                                  d.stimulus});
    }
    if (d.recirc_clone) {
      g.edges.push_back(GraphEdge{d.handler, Handler::kRecirculate,
                                  ActionKind::kRecircClone, false,
                                  d.stimulus});
    }
    if (d.forwarded && d.handler != Handler::kEgress) {
      g.edges.push_back(GraphEdge{d.handler, Handler::kEnqueue,
                                  ActionKind::kForward, false, d.stimulus});
    }
  }

  for (const RecordingContext::Call& c : ctx.calls()) {
    if (!c.accepted) {
      continue;
    }
    switch (c.kind) {
      case ActionKind::kInjectPacket:
        g.edges.push_back(GraphEdge{c.during, Handler::kGenerated,
                                    ActionKind::kInjectPacket, false, ""});
        break;
      case ActionKind::kSendPacket:
        g.edges.push_back(GraphEdge{c.during, Handler::kEnqueue,
                                    ActionKind::kSendPacket, false, ""});
        break;
      case ActionKind::kRaiseUserEvent:
        g.edges.push_back(GraphEdge{c.during, Handler::kUser,
                                    ActionKind::kRaiseUserEvent, false, ""});
        break;
      case ActionKind::kSetTimer:
        g.edges.push_back(GraphEdge{c.during, Handler::kTimer,
                                    ActionKind::kSetTimer, c.rate_bounded,
                                    ""});
        break;
      case ActionKind::kAddGenerator:
        g.edges.push_back(GraphEdge{c.during, Handler::kGenerated,
                                    ActionKind::kAddGenerator, c.rate_bounded,
                                    ""});
        break;
      case ActionKind::kTriggerGenerator:
        g.edges.push_back(GraphEdge{c.during, Handler::kGenerated,
                                    ActionKind::kTriggerGenerator, false,
                                    ""});
        break;
      default:
        break;  // cancel/set_template/punt spawn nothing
    }
  }
  return g;
}

// ---- port budget (§4) ---------------------------------------------------------

namespace {

void check_shared(const RegisterUsage& reg, std::vector<Finding>& findings) {
  if (reg.folded) {
    return;  // constant-folded to match-action entries: no ports to budget
  }
  const std::vector<Handler> accessing = reg.accessing_handlers();
  std::set<core::ThreadId> threads;
  for (const Handler h : accessing) {
    threads.insert(thread_of(h));
  }

  if (static_cast<int>(threads.size()) > reg.ports) {
    std::ostringstream msg;
    msg << "accessed from " << threads.size() << " event-processing threads ("
        << thread_list(threads) << ": " << handler_list(accessing)
        << ") but provisioned with only " << reg.ports
        << " port(s) — not realizable on the declared memory";
    add_finding(
        findings, Severity::kError, Pass::kPortBudget, "port-overcommit",
        reg.name, msg.str());
  }

  std::set<core::ThreadId> write_threads;
  for (const Handler h : reg.writing_handlers()) {
    write_threads.insert(thread_of(h));
  }
  if (write_threads.size() >= 2) {
    std::ostringstream msg;
    msg << "write set spans " << write_threads.size() << " threads ("
        << thread_list(write_threads)
        << "); on single-ported targets this register requires the "
           "AggregatedRegister realization (paper §4)";
    add_finding(
        findings, Severity::kNote, Pass::kPortBudget, "needs-aggregation",
        reg.name, msg.str());
  }

  // The per-access declared thread is what the port accountant charges; if
  // it disagrees with the thread the handler actually runs on, the runtime
  // budget check validates the wrong schedule.
  for (std::size_t h = 1; h < kNumHandlers; ++h) {
    const auto handler = static_cast<Handler>(h);
    const std::uint8_t declared = reg.declared_threads[h];
    const auto expected = static_cast<std::uint8_t>(
        1u << static_cast<unsigned>(thread_of(handler)));
    if (declared != 0 && (declared & ~expected) != 0) {
      std::ostringstream msg;
      msg << to_string(handler) << " declares a different ThreadId than the "
          << to_string(thread_of(handler))
          << " thread it runs on — port accounting is unsound";
      add_finding(
          findings, Severity::kWarning, Pass::kPortBudget,
          "thread-attribution", reg.name, msg.str());
    }
  }
}

void check_aggregated(const RegisterUsage& reg,
                      std::vector<Finding>& findings) {
  for (std::size_t h = 1; h < kNumHandlers; ++h) {
    const auto handler = static_cast<Handler>(h);
    const auto& per = reg.counts[h];
    const auto at = [&](core::RegisterRealization r) -> const AccessCounts& {
      return per[static_cast<std::size_t>(r)];
    };

    // The main array's single port belongs to the merged packet pipeline;
    // an event thread touching it directly steals packet-rate bandwidth.
    if (at(core::RegisterRealization::kAggregatedMain).any() &&
        !is_packet_handler(handler)) {
      add_finding(
          findings, Severity::kWarning, Pass::kPortBudget, "agg-main-misuse",
          reg.name,
          std::string(to_string(handler)) +
              " accesses the main array directly; only the packet pipeline "
              "owns its port — use enqueue_add/dequeue_add from event "
              "threads");
    }
    if (at(core::RegisterRealization::kAggregatedEnq).any() &&
        thread_of(handler) != core::ThreadId::kEnqueue) {
      add_finding(
          findings, Severity::kWarning, Pass::kPortBudget, "agg-array-misuse",
          reg.name,
          std::string(to_string(handler)) +
              " updates the enqueue aggregation array, which is owned by "
              "the enqueue thread");
    }
    if (at(core::RegisterRealization::kAggregatedDeq).any() &&
        thread_of(handler) != core::ThreadId::kDequeue) {
      add_finding(
          findings, Severity::kWarning, Pass::kPortBudget, "agg-array-misuse",
          reg.name,
          std::string(to_string(handler)) +
              " updates the dequeue aggregation array, which is owned by "
              "the dequeue thread");
    }
  }
}

}  // namespace

void port_budget_pass(const AccessMatrix& matrix,
                      std::vector<Finding>& findings) {
  for (const RegisterUsage& reg : matrix.registers) {
    if (reg.aggregated) {
      check_aggregated(reg, findings);
    } else {
      check_shared(reg, findings);
    }
  }
}

// ---- pipeline mapping (§4, quantitative) --------------------------------------

std::array<double, kNumHandlers> derive_event_rates(
    const EventGraph& graph, const RecordingContext& ctx,
    const HardwareModel& model, const EventRates& rates) {
  std::array<double, kNumHandlers> rate{};
  const auto idx = [](Handler h) { return static_cast<std::size_t>(h); };
  const auto resolve = [&](Handler h, double derived) {
    rate[idx(h)] = rates.declared(h) ? rates.get(h)
                                     : std::min(derived, model.clock_hz);
  };
  const auto unbounded_edge_into = [&](Handler to) {
    return std::any_of(graph.edges.begin(), graph.edges.end(),
                       [&](const GraphEdge& e) {
                         return e.to == to && !e.rate_bounded;
                       });
  };

  const double pkt = model.packet_rate(rates.avg_packet_bytes);
  resolve(Handler::kIngress, pkt);
  const double ingress = rate[idx(Handler::kIngress)];

  // Worst case one recirculation per packet when any unbounded edge
  // re-enters the pipeline.
  resolve(Handler::kRecirculate,
          unbounded_edge_into(Handler::kRecirculate) ? ingress : 0.0);

  // Periodic generators emit 1/period; any unbounded generated edge
  // (inject/trigger per packet, zero-period generator) is worst-case one
  // per packet on top.
  double generated = 0.0;
  for (const RecordingContext::Call& c : ctx.calls()) {
    if (c.kind == ActionKind::kAddGenerator && c.accepted && c.periodic &&
        c.period > sim::Time::zero()) {
      generated += 1.0 / c.period.as_seconds();
    }
  }
  if (unbounded_edge_into(Handler::kGenerated)) {
    generated += ingress;
  }
  resolve(Handler::kGenerated, generated);

  // Every admitted packet enqueues, dequeues, runs egress, and transmits.
  const double admitted = std::min(rate[idx(Handler::kIngress)] +
                                       rate[idx(Handler::kRecirculate)] +
                                       rate[idx(Handler::kGenerated)],
                                   model.clock_hz);
  resolve(Handler::kEgress, admitted);
  resolve(Handler::kEnqueue, admitted);
  resolve(Handler::kDequeue, admitted);
  resolve(Handler::kTransmit, admitted);
  resolve(Handler::kOverflow, 0.0);
  resolve(Handler::kUnderflow, 0.0);

  double timer = 0.0;
  for (const RecordingContext::Call& c : ctx.calls()) {
    if (c.kind == ActionKind::kSetTimer && c.accepted && c.periodic) {
      timer += c.period > sim::Time::zero() ? 1.0 / c.period.as_seconds()
                                            : model.clock_hz;
    }
  }
  resolve(Handler::kTimer, timer);
  resolve(Handler::kControl, 0.0);     // control-plane paced
  resolve(Handler::kLinkStatus, 0.0);  // physical-event paced

  // User events ride their raisers: worst case one per source activation.
  double user = 0.0;
  std::set<Handler> user_sources;
  for (const GraphEdge& e : graph.edges) {
    if (e.to == Handler::kUser && !e.rate_bounded &&
        user_sources.insert(e.from).second) {
      user += rate[idx(e.from)];
    }
  }
  resolve(Handler::kUser, user);
  return rate;
}

PipelineMapping pipeline_mapping_pass(const DataflowIr& ir,
                                      const EventGraph& graph,
                                      const RecordingContext& ctx,
                                      const HardwareModel& model,
                                      const EventRates& rates,
                                      std::vector<Finding>& findings) {
  PipelineMapping m;
  m.target = model.name;
  const std::size_t n = ir.registers.size();
  m.stage_of.assign(n, PipelineMapping::kUnplaced);
  const auto idx = [](Handler h) { return static_cast<std::size_t>(h); };

  // ---- stage placement: greedy topological allocation ----
  if (ir.cyclic) {
    std::string cycle;
    for (const std::size_t r : ir.cycle_regs) {
      if (!cycle.empty()) {
        cycle += " -> ";
      }
      cycle += ir.registers[r].name;
    }
    if (!model.unconstrained) {
      add_finding(
          findings, Severity::kError, Pass::kPipelineMapping, "stage-overflow",
          cycle,
          "cross-handler register dependencies form a cycle — no "
          "feed-forward stage order satisfies every handler on a "
          "pipelined target");
    }
  } else if (n > 0) {
    // Kahn topological order over the deduplicated dependency pairs.
    std::vector<std::vector<std::size_t>> adj(n);
    std::vector<std::size_t> indeg(n, 0);
    {
      std::set<std::pair<std::size_t, std::size_t>> pairs;
      for (const DepEdge& e : ir.deps) {
        if (pairs.emplace(e.from, e.to).second) {
          adj[e.from].push_back(e.to);
          ++indeg[e.to];
        }
      }
    }
    std::vector<std::size_t> order;
    order.reserve(n);
    for (std::size_t r = 0; r < n; ++r) {
      if (indeg[r] == 0) {
        order.push_back(r);
      }
    }
    for (std::size_t head = 0; head < order.size(); ++head) {
      for (const std::size_t next : adj[order[head]]) {
        if (--indeg[next] == 0) {
          order.push_back(next);
        }
      }
    }

    // Place each register at the first stage after all its producers with
    // a free stateful ALU and register slot; stages beyond the model are
    // virtual, so overflow reports how deep the program actually needs.
    const std::size_t capacity =
        std::min(model.alus_per_stage, model.registers_per_stage);
    std::vector<std::size_t> load(n + 1, 0);
    std::vector<std::size_t> placed(n, 0);
    for (const std::size_t r : order) {
      std::size_t stage = 0;
      for (std::size_t p = 0; p < n; ++p) {
        for (const std::size_t next : adj[p]) {
          if (next == r && placed[p] + 1 > stage) {
            stage = placed[p] + 1;
          }
        }
      }
      // A folded register is a constant match-action table: it keeps its
      // position in the dependency order but consumes no stateful-ALU /
      // register slot in the stage.
      const bool folded = ir.registers[r].folded;
      if (!folded) {
        while (stage < load.size() && load[stage] >= capacity) {
          ++stage;
        }
      }
      placed[r] = stage;
      if (!folded && stage < load.size()) {
        ++load[stage];
      }
      m.stages_used = std::max(m.stages_used, stage + 1);
    }
    std::vector<std::size_t> overflowed;
    for (std::size_t r = 0; r < n; ++r) {
      if (placed[r] < model.stages) {
        m.stage_of[r] = placed[r];
      } else {
        overflowed.push_back(r);
      }
    }
    m.mapped = overflowed.empty();
    if (!overflowed.empty() && !model.unconstrained) {
      std::string names;
      for (const std::size_t r : overflowed) {
        if (!names.empty()) {
          names += ", ";
        }
        names += ir.registers[r].name;
      }
      std::ostringstream msg;
      msg << "dependency chains need " << m.stages_used
          << " pipeline stage(s) but the target has " << model.stages
          << " — cannot place: " << names;
      add_finding(
          findings, Severity::kError, Pass::kPipelineMapping, "stage-overflow",
          names, msg.str());
    }
  } else {
    m.mapped = true;
  }

  // ---- rates and the cycle budget ----
  const std::array<double, kNumHandlers> rate =
      derive_event_rates(graph, ctx, model, rates);
  m.slot_rate = std::min(rate[idx(Handler::kIngress)] +
                             rate[idx(Handler::kRecirculate)] +
                             rate[idx(Handler::kGenerated)],
                         model.clock_hz);
  m.carrier_rate = rate[idx(Handler::kTimer)] + rate[idx(Handler::kControl)] +
                   rate[idx(Handler::kLinkStatus)] +
                   rate[idx(Handler::kUser)];
  m.idle_rate = std::max(0.0, model.clock_hz - m.slot_rate - m.carrier_rate);

  // ---- per-register port schedule + drain demand ----
  const auto is_packet_thread = [](core::ThreadId t) {
    return t == core::ThreadId::kIngress || t == core::ThreadId::kEgress;
  };
  for (std::size_t r = 0; r < n; ++r) {
    if (ir.registers[r].folded) {
      continue;  // constants: no ports contended, nothing to drain
    }
    // A SharedRegister declared with more same-cycle ports than the target
    // stage memory physically provides cannot be realized at this line
    // rate no matter how its accesses schedule (§4: multi-ported SRAM is a
    // low-line-rate luxury). This is the constraint the optimizer's
    // aggregation-insertion transform resolves.
    if (!model.unconstrained && !ir.registers[r].aggregated &&
        ir.registers[r].ports > model.register_ports_per_stage) {
      std::ostringstream msg;
      msg << "declares " << ir.registers[r].ports
          << " same-cycle register port(s) but " << model.name
          << " stage memory provides " << model.register_ports_per_stage
          << " — multi-ported stateful SRAM is not realizable at this line "
             "rate; re-realize as an AggregatedRegister with side arrays "
             "(paper §4) or retarget";
      add_finding(
          findings, Severity::kError, Pass::kPipelineMapping,
          "multiport-unrealizable", ir.registers[r].name, msg.str());
    }
    bool packet = false;
    // Per event thread: any access, any non-aggregable access, and the
    // summed rate of its aggregable accesses.
    bool any[2] = {false, false};
    bool nonagg[2] = {false, false};
    double agg_rate[2] = {0.0, 0.0};
    std::string nonagg_handlers;
    for (std::size_t h = 1; h < kNumHandlers; ++h) {
      const AccessPattern p = ir.patterns[h][r];
      if (p == AccessPattern::kNone) {
        continue;
      }
      const core::ThreadId t = thread_of(static_cast<Handler>(h));
      if (is_packet_thread(t)) {
        packet = true;
        continue;
      }
      // Timer/control/link/user accesses are scheduled into idle cycles
      // (they are carrier events), never into a packet slot.
      if (t != core::ThreadId::kEnqueue && t != core::ThreadId::kDequeue) {
        continue;
      }
      const std::size_t side = t == core::ThreadId::kEnqueue ? 0 : 1;
      any[side] = true;
      if (is_aggregable(p)) {
        agg_rate[side] += rate[h];
      } else {
        nonagg[side] = true;
        if (!nonagg_handlers.empty()) {
          nonagg_handlers += ", ";
        }
        nonagg_handlers += to_string(static_cast<Handler>(h));
      }
    }

    const int ports = model.register_ports_per_stage;
    const int contenders_all = (packet ? 1 : 0) + (any[0] ? 1 : 0) +
                               (any[1] ? 1 : 0);
    const int contenders_min = (packet ? 1 : 0) + (nonagg[0] ? 1 : 0) +
                               (nonagg[1] ? 1 : 0);
    if (contenders_min > ports && !model.unconstrained) {
      std::ostringstream msg;
      msg << "needs " << contenders_min
          << " same-cycle register port(s) — the packet pipeline plus "
             "value-consuming accesses from "
          << nonagg_handlers << " that aggregation cannot absorb — but "
          << model.name << " stage memory has " << ports << " port(s)";
      add_finding(
          findings, Severity::kError, Pass::kPipelineMapping,
          "port-schedule-conflict", ir.registers[r].name, msg.str());
    }

    // Aggregated updates drain into the main array during idle cycles: an
    // AggregatedRegister always drains its side arrays; a SharedRegister
    // drains only when the port schedule had to absorb its updates.
    const bool drains =
        ir.registers[r].aggregated ||
        (contenders_all > ports && contenders_min <= ports);
    if (drains && (agg_rate[0] > 0.0 || agg_rate[1] > 0.0)) {
      PipelineMapping::Drain d;
      d.reg = r;
      d.name = ir.registers[r].name;
      d.demand = agg_rate[0] + agg_rate[1];
      d.starved = d.demand > m.idle_rate;
      if (d.starved && !model.unconstrained) {
        std::ostringstream msg;
        msg << "aggregated updates arrive at " << rate_str(d.demand)
            << " but slot (" << rate_str(m.slot_rate) << ") and carrier ("
            << rate_str(m.carrier_rate) << ") events leave only "
            << rate_str(m.idle_rate) << " idle cycles to drain the "
            << "side-registers — staleness grows without bound (paper §4); "
            << "declare a realistic packet size/event rate or shed load";
        add_finding(
            findings, Severity::kError, Pass::kPipelineMapping,
            "aggregation-starvation", d.name, msg.str());
      }
      m.drains.push_back(std::move(d));
    }
  }
  return m;
}

// ---- amplification ------------------------------------------------------------

void amplification_pass(const EventGraph& graph,
                        const std::vector<ChainRun>& chains,
                        std::vector<Finding>& findings) {
  const std::vector<std::vector<Handler>> cycles = graph.cycles();

  std::string limited_seeds;
  for (const ChainRun& run : chains) {
    if (run.limited) {
      if (!limited_seeds.empty()) {
        limited_seeds += ", ";
      }
      limited_seeds += run.seed;
    }
  }

  for (const auto& cycle : cycles) {
    if (!limited_seeds.empty()) {
      add_finding(
          findings, Severity::kError, Pass::kAmplification, "unguarded-cycle",
          cycle_string(cycle),
          "event-generation cycle with no rate bound; chain simulation from "
          "seed(s) [" +
              limited_seeds +
              "] was still spawning events when the step budget ran out — "
              "one trigger amplifies without bound");
    } else {
      add_finding(
          findings, Severity::kNote, Pass::kAmplification, "guarded-cycle",
          cycle_string(cycle),
          "event-generation cycle exists statically but every simulated "
          "chain terminated — a stateful guard bounds it; verify the guard "
          "holds under adversarial input");
    }
  }

  // A chain that never converged with no static cycle means the graph
  // under-approximated (e.g. payload-dependent generation); still report.
  if (cycles.empty() && !limited_seeds.empty()) {
    add_finding(
        findings, Severity::kError, Pass::kAmplification, "runaway-chain",
        limited_seeds,
        "chain simulation exhausted its step budget although the event "
        "graph shows no cycle — event generation is input-dependent and "
        "unbounded");
  }
}

// ---- resource lint ------------------------------------------------------------

void resource_lint_pass(const RecordingContext& event_ctx,
                        const DriveLog& event_log,
                        const RecordingContext& baseline_ctx,
                        const AccessMatrix& matrix,
                        const LintOverrides& overrides,
                        std::vector<Finding>& findings) {
  // 1. Facilities requested on the baseline architecture and refused, with
  //    no kOpFacilityUnavailable punt in the same handler invocation: the
  //    program degrades silently where §6 requires explicit CP fallback.
  std::set<std::pair<ActionKind, Handler>> reported;
  for (const RecordingContext::Call& c : baseline_ctx.calls()) {
    if (c.accepted ||
        (c.kind != ActionKind::kSetTimer &&
         c.kind != ActionKind::kAddGenerator)) {
      continue;
    }
    const bool punted = std::any_of(
        baseline_ctx.punts().begin(), baseline_ctx.punts().end(),
        [&](const RecordingContext::Punt& p) {
          return p.drive == c.drive &&
                 p.opcode == core::kOpFacilityUnavailable;
        });
    if (punted || !reported.emplace(c.kind, c.during).second) {
      continue;
    }
    add_finding(
        findings, Severity::kWarning, Pass::kResourceLint,
        "unchecked-facility", std::string(to_string(c.during)),
        std::string(to_string(c.kind)) +
            " is refused by the baseline architecture and the handler does "
            "not punt kOpFacilityUnavailable — the program silently loses "
            "this facility on non-event targets");
  }

  // 2. Id 0 is the refusal sentinel of every acquisition API; passing it
  //    onward means an unchecked result.
  std::set<std::pair<ActionKind, Handler>> zero_reported;
  for (const RecordingContext* ctx : {&event_ctx, &baseline_ctx}) {
    for (const RecordingContext::ZeroIdUse& z : ctx->zero_id_uses()) {
      if (!zero_reported.emplace(z.kind, z.during).second) {
        continue;
      }
      add_finding(
          findings, Severity::kError, Pass::kResourceLint, "zero-id",
          std::string(to_string(z.during)),
          std::string(to_string(z.kind)) +
              " called with id 0 — 0 is the refusal sentinel, so an "
              "acquisition result was used without checking it");
    }
  }

  // 3. Egress writes to the enq/deq meta words are dead: the traffic
  //    manager extracted both at enqueue admission.
  for (const PacketDrive& d : event_log.packet_drives) {
    if (d.handler == Handler::kEgress && d.meta_written) {
      add_finding(
          findings, Severity::kWarning, Pass::kResourceLint,
          "dead-meta-write", "on_egress",
          "writes enq/deq meta words (phv.user[0.." +
              std::to_string(core::kDeqMetaBase + 3) +
              "]) in the egress pipeline; both metas were extracted at "
              "enqueue admission, so these writes never reach a buffer "
              "event (stimulus: " +
              d.stimulus + ")");
      break;  // one finding is enough
    }
  }

  // 4. Ingress attaches metadata no buffer handler observably consumes.
  if (!overrides.handles_buffer_events) {
    const bool meta_written = std::any_of(
        event_log.packet_drives.begin(), event_log.packet_drives.end(),
        [](const PacketDrive& d) {
          return d.handler != Handler::kEgress && d.meta_written;
        });
    const auto is_buffer = [](Handler h) {
      return h == Handler::kEnqueue || h == Handler::kDequeue ||
             h == Handler::kOverflow || h == Handler::kUnderflow;
    };
    bool buffer_observed = std::any_of(
        event_ctx.calls().begin(), event_ctx.calls().end(),
        [&](const RecordingContext::Call& c) { return is_buffer(c.during); });
    buffer_observed =
        buffer_observed ||
        std::any_of(event_ctx.punts().begin(), event_ctx.punts().end(),
                    [&](const RecordingContext::Punt& p) {
                      return is_buffer(p.during);
                    });
    for (const RegisterUsage& reg : matrix.registers) {
      for (std::size_t h = 1; h < kNumHandlers && !buffer_observed; ++h) {
        buffer_observed = is_buffer(static_cast<Handler>(h)) &&
                          reg.totals(static_cast<Handler>(h)).any();
      }
    }
    if (meta_written && !buffer_observed) {
      add_finding(
          findings, Severity::kNote, Pass::kResourceLint, "unused-meta",
          "on_ingress",
          "attaches enq/deq metadata but no buffer-event handler observably "
          "consumes it (no register access, facility call or punt from "
          "on_enqueue/on_dequeue/on_overflow/on_underflow); drop the "
          "metadata or set handles_buffer_events in the registry if state "
          "is member-only");
    }
  }
}

}  // namespace edp::analysis
