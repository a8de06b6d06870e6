// Per-layer metrics read from the library's public accessors after a traced
// repetition. Every workload reports the same names; a layer a workload
// does not exercise reads 0.
#include <algorithm>

#include "core/aggregated_register.hpp"
#include "core/event_switch.hpp"
#include "harness.hpp"

namespace edp::bench {

void add_handler_metrics(Report& report, const TracedProgram& traced,
                         double run_s, double ticks_per_s, double packets) {
  const double self_s =
      static_cast<double>(traced.total_self_ticks()) / ticks_per_s;
  const auto ns_per_call = [&](core::ProgramHandler h) {
    const TracedProgram::HandlerStats& s = traced.stats(h);
    return ratio(static_cast<double>(s.self_ticks) / ticks_per_s * 1e9,
                 static_cast<double>(s.calls));
  };
  report.layer("core.kernel_self_s", run_s - self_s, "s");
  report.layer("apps.handler_self_share", ratio(self_s, run_s), "ratio");
  report.layer("apps.ingress_ns", ns_per_call(core::ProgramHandler::kIngress),
               "ns");
  report.layer("apps.enqueue_ns", ns_per_call(core::ProgramHandler::kEnqueue),
               "ns");
  report.layer("apps.dequeue_ns", ns_per_call(core::ProgramHandler::kDequeue),
               "ns");
  report.layer("apps.calls_per_pkt",
               ratio(static_cast<double>(traced.total_calls()), packets),
               "count");
}

void add_switch_metrics(Report& report, const core::EventSwitch& dut,
                        const std::vector<const core::EventSwitch*>& all,
                        TracedProgram& program, double packets) {
  const core::EventMerger& m = dut.merger();
  std::uint64_t merger_drops = m.packet_backlog_drops();
  for (std::size_t k = 0; k < core::kNumEventKinds; ++k) {
    merger_drops += m.kind_stats(static_cast<core::EventKind>(k)).dropped;
  }
  const auto slots = static_cast<double>(m.slots_total());
  report.layer("core.dut.slots_per_pkt", ratio(slots, packets), "count");
  report.layer("core.dut.carrier_slot_frac",
               ratio(static_cast<double>(m.slots_carrier()), slots), "ratio");
  report.layer("core.dut.events_on_carrier_per_pkt",
               ratio(static_cast<double>(m.events_on_carrier()), packets),
               "count");
  report.layer("core.dut.events_piggybacked_per_pkt",
               ratio(static_cast<double>(m.events_piggybacked()), packets),
               "count");
  report.layer("core.dut.pipeline_util",
               ratio(slots, static_cast<double>(dut.cycles_elapsed())),
               "ratio");
  report.layer("core.dut.merger_backlog_drops",
               static_cast<double>(merger_drops), "count");

  std::uint64_t drained = 0, backlog_max = 0, staleness_max = 0;
  program.visit_aggregated([&](core::AggregatedRegister& reg) {
    drained += reg.drained();
    backlog_max = std::max<std::uint64_t>(backlog_max, reg.backlog_max());
    staleness_max = std::max(staleness_max, reg.staleness_max());
  });
  report.layer("core.agg.drained_per_pkt",
               ratio(static_cast<double>(drained), packets), "count");
  report.layer("core.agg.backlog_max", static_cast<double>(backlog_max),
               "count");
  report.layer("core.agg.staleness_max_cycles",
               static_cast<double>(staleness_max), "cycles");

  const tm_::TrafficManager& tm = dut.traffic_manager();
  std::size_t max_depth = 0;
  for (std::uint16_t p = 0; p < tm.config().num_ports; ++p) {
    for (std::uint8_t q = 0; q < tm.config().queues_per_port; ++q) {
      max_depth = std::max(max_depth, tm.queue_stats(p, q).max_depth_packets);
    }
  }
  std::uint64_t tm_drops = 0, parse_drops = 0, program_drops = 0;
  for (const core::EventSwitch* sw : all) {
    tm_drops += sw->traffic_manager().drops_total();
    parse_drops += sw->counters().parse_drops;
    program_drops += sw->counters().program_drops;
  }
  report.layer("tm.dut.max_depth_pkts", static_cast<double>(max_depth),
               "count");
  report.layer("tm.drops", static_cast<double>(tm_drops), "count");
  report.layer("pisa.parse_drops", static_cast<double>(parse_drops), "count");
  report.layer("pisa.program_drops", static_cast<double>(program_drops),
               "count");
}

}  // namespace edp::bench
