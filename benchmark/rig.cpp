// linerate_fused / linerate_naive: one EventSwitch at line rate.
//
// microburst-shared on a 4-port 10G switch: 3 sources x 64 flows of 1500 B
// frames in 32-frame line-rate trains, together 95% of the one egress port,
// 360k frames per source. Just under saturation keeps every packet on the
// full enqueue/dequeue/transmit event path while idle cycles still occur for
// aggregation drains. linerate_fused runs the program as the optimizer
// rewrites it for linerate-tor (aggregated register, fused enq/deq handlers);
// linerate_naive runs it as written (3-ported SharedRegister, every enq/deq
// event queued through the merger). No hosts, links or runtime.
//
// The seed draws each flow's source address and UDP port and each source's
// start phase; the offered load is the same for every seed.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <vector>

#include "analysis/optimizer.hpp"
#include "apps/microburst.hpp"
#include "core/event_switch.hpp"
#include "harness.hpp"
#include "net/packet_builder.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "workload/replay.hpp"

namespace edp::bench {
namespace {

constexpr double kPortRate = 10e9;
constexpr std::uint16_t kSourcePorts[] = {0, 2, 3};
constexpr std::size_t kFlowsPerSource = 64;
constexpr std::size_t kFrameBytes = 1500;
constexpr double kUtilization = 0.95;
constexpr std::uint64_t kTrainFrames = 32;
constexpr std::uint64_t kFramesPerSource = 360'000;
constexpr double kPackets = kFramesPerSource * std::size(kSourcePorts);
const net::Ipv4Address kDst(10, 0, 1, 1);  // registry route: 10/8 -> port 1

/// Frame spacing inside a train (line rate) and the mean spacing that gives
/// each source a third of kUtilization.
const sim::Time kLineGap = sim::serialization_time(kFrameBytes, kPortRate);
const sim::Time kMeanGap = sim::Time::nanos(static_cast<std::int64_t>(
    8.0 * kFrameBytes / kPortRate * 3.0 / kUtilization * 1e9));
/// The gap after a train, repaying its line-rate frames.
const sim::Time kPause =
    kLineGap +
    (kMeanGap - kLineGap) * static_cast<std::int64_t>(kTrainFrames);

core::EventSwitchConfig rig_config() {
  core::EventSwitchConfig c;
  c.num_ports = 4;
  c.port_rate_bps = kPortRate;
  c.queue_limits.max_bytes = 1 << 20;
  c.queue_limits.max_packets = 1 << 13;
  return c;
}

/// One open-loop source: frames round-robin over its flows, kTrainFrames
/// at line rate, then a pause that repays the train. One pending callback
/// at a time; frames are built once and copied per send.
class RigSource {
 public:
  RigSource(sim::Scheduler& sched, core::EventSwitch& sw, std::uint16_t port,
            sim::Random& rng)
      : sched_(sched), sw_(sw), port_(port) {
    for (std::size_t f = 0; f < kFlowsPerSource; ++f) {
      // One draw per statement: argument evaluation order is unspecified.
      const auto b2 = static_cast<std::uint8_t>(rng.uniform(256));
      const auto b3 = static_cast<std::uint8_t>(1 + rng.uniform(254));
      const auto sport = static_cast<std::uint16_t>(1024 + rng.uniform(60000));
      const net::Ipv4Address src(10, static_cast<std::uint8_t>(port), b2, b3);
      frames_.push_back(
          net::make_udp_packet(src, kDst, sport, 7, kFrameBytes));
    }
    sched_.at(sim::Time::nanos(static_cast<std::int64_t>(rng.uniform(1000))),
              [this] { fire(); });
  }

  RigSource(const RigSource&) = delete;
  RigSource& operator=(const RigSource&) = delete;

 private:
  void fire() {
    if (sent_ == kFramesPerSource) {
      return;
    }
    const std::uint64_t n = sent_++;
    sw_.receive(port_, net::Packet(frames_[n % kFlowsPerSource]));
    sched_.after((n + 1) % kTrainFrames == 0 ? kPause : kLineGap,
                 [this] { fire(); });
  }

  sim::Scheduler& sched_;
  core::EventSwitch& sw_;
  std::uint16_t port_;
  std::vector<net::Packet> frames_;
  std::uint64_t sent_ = 0;
};

/// The rig, set up and ready for Scheduler::run(). Constructing one is the
/// workload's set-up phase.
class Rig {
 public:
  Rig(const apps::RegisteredProgram& entry, bool optimize, std::uint64_t seed,
      bool traced)
      : sw(sched, rig_config()) {
    core::DispatchPlan plan;
    if (optimize) {
      const double t0 = wall_now();
      analysis::AnalyzerOptions a;
      a.lint = entry.lint;
      a.model = analysis::find_hardware_model("linerate-tor");
      a.rates = entry.rates;
      a.widths = entry.widths;
      const analysis::OptimizationResult opt =
          analysis::optimize_program(entry.name, entry.factory, a);
      optimize_s = wall_now() - t0;
      optimized = opt.feasible && opt.transformed;
      program = optimized ? opt.optimized_factory() : entry.factory();
      plan = opt.plan;
    } else {
      program = entry.factory();
    }
    if (traced) {
      tracer = std::make_unique<TracedProgram>(*program);
    }
    core::EventProgram& installed =
        tracer ? static_cast<core::EventProgram&>(*tracer) : *program;
    sw.set_program(&installed);
    if (optimized) {
      sw.set_dispatch_plan(plan);
    }
    installed.visit_aggregated(
        [this](core::AggregatedRegister& reg) { sw.register_aggregated(reg); });
    for (std::uint16_t p = 0; p < 4; ++p) {
      sw.connect_tx(p, [this](net::Packet) { ++tx; });
    }
    sim::Random rng(seed);
    for (const std::uint16_t port : kSourcePorts) {
      sources.push_back(std::make_unique<RigSource>(sched, sw, port, rng));
    }
  }

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// Ground-truth per-slot occupancy after applying pending aggregated
  /// deltas. Call after the run.
  std::vector<std::int64_t> settled_occupancy() {
    sw.settle();
    std::vector<std::int64_t> occ;
    if (const auto* mb =
            dynamic_cast<apps::MicroburstProgram*>(program.get())) {
      for (std::size_t s = 0; s < mb->config().num_regs; ++s) {
        occ.push_back(mb->occupancy(static_cast<std::uint32_t>(s)));
      }
    }
    return occ;
  }

  sim::Scheduler sched;
  core::EventSwitch sw;
  std::unique_ptr<core::EventProgram> program;
  std::unique_ptr<TracedProgram> tracer;  ///< wraps program when traced
  std::vector<std::unique_ptr<RigSource>> sources;
  std::uint64_t tx = 0;
  bool optimized = false;  ///< the optimizer transformed the program
  double optimize_s = 0;
};

struct RigOutcome {
  std::uint64_t events = 0;
  std::uint64_t tx = 0;
  std::vector<std::int64_t> occupancy;

  bool operator==(const RigOutcome&) const = default;
};

RigOutcome traced_rig(Report& report, const apps::RegisteredProgram& entry,
                      bool optimize, std::uint64_t seed,
                      double untraced_run_s) {
  const double setup0 = wall_now();
  Rig rig(entry, optimize, seed, /*traced=*/true);
  const double setup_s = wall_now() - setup0;

  // The first tenth of the offered schedule is the warm-up the pool gauge
  // excludes, as replay()'s warm-up chunk does on the storms.
  const sim::Time warmup =
      kMeanGap * static_cast<std::int64_t>(kFramesPerSource / 10);
  const std::uint64_t allocs0 = thread_heap_allocs();
  const double run0 = wall_now();
  const std::uint64_t tick0 = ticks();
  rig.sched.run_until(warmup);
  const double warm_s = wall_now() - run0;
  const std::uint64_t warm_events = rig.sched.executed();
  const std::uint64_t warm_pool = net::packet_buffer_pool_stats().allocated;
  rig.sched.run();
  const std::uint64_t tick1 = ticks();
  const double run_s = wall_now() - run0;
  const std::uint64_t heap_allocs = thread_heap_allocs() - allocs0;
  const std::uint64_t pool_misses =
      net::packet_buffer_pool_stats().allocated - warm_pool;

  RigOutcome out{rig.sched.executed(), rig.tx, {}};
  const auto events = static_cast<double>(out.events);
  report.layer("runtime.round_us", 0, "us");
  report.layer("runtime.rounds_per_sim_ms", 0, "1/ms");
  report.layer("runtime.cross_shard_msgs_per_pkt", 0, "count");
  report.layer("runtime.ring_overflow_frac", 0, "ratio");
  report.layer("runtime.avg_drain_burst", 0, "count");
  report.layer("runtime.event_parallelism", 1, "ratio");
  report.layer("runtime.setup_s", 0, "s");
  report.layer("sim.events_per_pkt", events / kPackets, "count");
  report.layer("sim.events_per_burst",
               ratio(events, static_cast<double>(rig.sched.bursts())),
               "count");
  report.layer("sim.ns_per_event", ratio(run_s * 1e9, events), "ns");
  add_switch_metrics(report, rig.sw, {&rig.sw}, *rig.tracer, kPackets);
  add_handler_metrics(report, *rig.tracer, run_s,
                      static_cast<double>(tick1 - tick0) / run_s, kPackets);
  report.layer("topo.link_deliveries_per_pkt", 0, "count");
  report.layer("net.pool_misses_per_event",
               ratio(static_cast<double>(pool_misses),
                     events - static_cast<double>(warm_events)),
               "count");
  report.layer("net.heap_allocs_per_pkt",
               static_cast<double>(heap_allocs) / kPackets, "count");
  report.layer("analysis.optimize_s", rig.optimize_s, "s");
  report.layer("trace.overhead", ratio(run_s, untraced_run_s), "ratio");
  std::printf("# span setup %.6f s (optimize %.6f s)\n", setup_s,
              rig.optimize_s);
  std::printf("# span run_until.0 %.6f s\n# span run %.6f s\n", warm_s,
              run_s - warm_s);

  out.occupancy = rig.settled_occupancy();
  return out;
}

}  // namespace

Report run_linerate(const Options& options, bool optimize) {
  Report report;
  const apps::RegisteredProgram* entry =
      workload::find_program("microburst-shared");
  if (entry == nullptr) {
    report.check("registry has microburst-shared", false);
    return report;
  }

  RigOutcome first;
  bool have_first = false;
  const auto rep = [&] {
    const double cpu0 = cpu_now();
    const double wall0 = wall_now();
    Rig rig(*entry, optimize, options.seed, /*traced=*/false);
    const double wall1 = wall_now();
    const std::uint64_t events = rig.sched.run();
    const double wall2 = wall_now();
    const double cpu = cpu_now() - cpu0;
    RigOutcome o{events, rig.tx, rig.settled_occupancy()};
    if (!have_first) {
      report.check("the optimizer transforms the program",
                   rig.optimized == optimize);
      report.check("every injected packet is transmitted",
                   o.tx == static_cast<std::uint64_t>(kPackets));
      first = std::move(o);
      have_first = true;
    } else {
      report.check("repetition reproduces the first outcome", o == first);
    }
    return Rep{wall1 - wall0, wall2 - wall1, cpu};
  };
  const std::vector<Rep> reps = timed_reps(options.seconds, rep);
  add_end_to_end(report, reps, kPackets);

  // The transforms change when state is updated, never the settled value.
  Rig reference(*entry, !optimize, options.seed, /*traced=*/false);
  reference.sched.run();
  report.check(optimize ? "settled occupancy equals the naive reference"
                        : "settled occupancy equals the fused reference",
               reference.settled_occupancy() == first.occupancy);

  if (options.trace) {
    const RigOutcome traced =
        traced_rig(report, *entry, optimize, options.seed, best_run_s(reps));
    report.check("traced outcome equals the untraced one", traced == first);
  }
  return report;
}

}  // namespace edp::bench
