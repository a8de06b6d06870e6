// Microbenchmarks (google-benchmark): per-operation costs of the hot-path
// primitives — parsing, hashing, tables, registers, queues, sketches, the
// timer block, and a full switch slot. These bound the simulator's own
// throughput (events simulated per wall-clock second).
#include <benchmark/benchmark.h>

#include "apps/microburst.hpp"
#include "core/aggregated_register.hpp"
#include "core/event_switch.hpp"
#include "core/timer_block.hpp"
#include "net/flow.hpp"
#include "net/packet_builder.hpp"
#include "pisa/deparser.hpp"
#include "pisa/parser.hpp"
#include "sim/random.hpp"
#include "stats/count_min_sketch.hpp"
#include "tm/pifo.hpp"

namespace {

using namespace edp;

void BM_ParserUdp(benchmark::State& state) {
  const net::Packet pkt = net::make_udp_packet(
      net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(10, 0, 1, 1), 1, 2,
      static_cast<std::size_t>(state.range(0)));
  const pisa::Parser parser = pisa::Parser::standard();
  for (auto _ : state) {
    pisa::Phv phv = parser.parse(pkt);
    benchmark::DoNotOptimize(phv);
  }
}
BENCHMARK(BM_ParserUdp)->Arg(64)->Arg(1500);

void BM_Deparser(benchmark::State& state) {
  const pisa::Parser parser = pisa::Parser::standard();
  const pisa::Deparser deparser;
  const pisa::Phv phv = parser.parse(net::make_udp_packet(
      net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(10, 0, 1, 1), 1, 2,
      512));
  for (auto _ : state) {
    net::Packet out = deparser.deparse(phv);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_Deparser);

void BM_Crc32FlowId(benchmark::State& state) {
  const net::Ipv4Address a(10, 0, 0, 1), b(10, 0, 1, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::flow_id_src_dst(a, b));
  }
}
BENCHMARK(BM_Crc32FlowId);

void BM_TableLookup(benchmark::State& state) {
  const auto kind = static_cast<pisa::MatchKind>(state.range(0));
  pisa::MatchActionTable table("t", {pisa::MatchField{kind, 32, "dst"}},
                               4096);
  sim::Random rng(1);
  for (int i = 0; i < 1024; ++i) {
    pisa::TableEntry e;
    const auto v = static_cast<std::uint64_t>(rng.next_u64() & 0xffffffff);
    e.key = {pisa::KeyField{v, 24, 0xffffff00}};
    e.priority = i;
    table.insert(std::move(e));
  }
  std::uint64_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup({q++ & 0xffffffff}));
  }
}
BENCHMARK(BM_TableLookup)
    ->Arg(static_cast<int>(pisa::MatchKind::kExact))
    ->Arg(static_cast<int>(pisa::MatchKind::kLpm))
    ->Arg(static_cast<int>(pisa::MatchKind::kTernary));

void BM_AggregatedRegisterOp(benchmark::State& state) {
  core::AggregatedRegister reg("r", 1024);
  std::uint64_t cycle = 0;
  std::size_t idx = 0;
  for (auto _ : state) {
    ++cycle;
    reg.enqueue_add(idx++ & 1023, 100, cycle);
    reg.drain(cycle, 1);
  }
}
BENCHMARK(BM_AggregatedRegisterOp);

void BM_SharedRegisterRmw(benchmark::State& state) {
  core::SharedRegister<std::int64_t> reg("r", 1024, 3);
  std::uint64_t cycle = 0;
  std::size_t idx = 0;
  for (auto _ : state) {
    reg.rmw(idx++ & 1023, [](std::int64_t v) { return v + 1; },
            core::ThreadId::kEnqueue, ++cycle);
  }
}
BENCHMARK(BM_SharedRegisterRmw);

void BM_PifoPushPop(benchmark::State& state) {
  tm_::PifoQueue q(tm_::QueueLimits{1 << 20, 1 << 30});
  sim::Random rng(3);
  // Keep a standing population so push/pop operate on a realistic heap.
  for (int i = 0; i < 1000; ++i) {
    tm_::QueuedPacket qp;
    qp.packet = net::Packet(64);
    qp.rank = rng.next_u64() % 10000;
    q.push(std::move(qp));
  }
  for (auto _ : state) {
    tm_::QueuedPacket qp;
    qp.packet = net::Packet(64);
    qp.rank = rng.next_u64() % 10000;
    q.push(std::move(qp));
    benchmark::DoNotOptimize(q.pop());
  }
}
BENCHMARK(BM_PifoPushPop);

void BM_CmsUpdateEstimate(benchmark::State& state) {
  stats::CountMinSketch cms(2048, 3);
  std::uint64_t key = 0;
  for (auto _ : state) {
    cms.update(key);
    benchmark::DoNotOptimize(cms.estimate(key));
    ++key;
  }
}
BENCHMARK(BM_CmsUpdateEstimate);

/// Timer block driven by the scheduler: N periodic timers with spread
/// periods at 1 us resolution; each iteration is one scheduler callback
/// (one timer-block wake). Reports `per_fire`: wall time per delivered
/// expiration, wakes and re-arms included.
void BM_TimerBlockPeriodic(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Scheduler sched;
  core::TimerBlock timers(sched, sim::Time::micros(1));
  std::uint64_t fires = 0;
  timers.on_expire = [&fires](const core::TimerEventData*, std::size_t k) {
    fires += k;
  };
  for (std::size_t i = 0; i < n; ++i) {
    timers.set_periodic(sim::Time::micros(100 + static_cast<std::int64_t>(
                                                    (i * 37) % 1000)),
                        i);
  }
  sched.run_until(sim::Time::millis(2));  // warm-up: every timer re-armed
  fires = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.run(1));
  }
  state.counters["per_fire"] = benchmark::Counter(
      static_cast<double>(fires),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_TimerBlockPeriodic)->Arg(1)->Arg(64)->Arg(4096);

/// Full path: receive -> slot -> parse -> program -> TM -> transmit, with
/// enqueue/dequeue events delivered to the §2 microburst program.
void BM_SwitchPacketPath(benchmark::State& state) {
  sim::Scheduler sched;
  core::EventSwitchConfig cfg;
  cfg.num_ports = 2;
  cfg.port_rate_bps = 100e9;  // never the bottleneck
  core::EventSwitch sw(sched, cfg);
  apps::MicroburstConfig mc;
  mc.flow_thresh = 1LL << 40;
  apps::MicroburstProgram prog(mc);
  prog.add_route(net::Ipv4Address(10, 0, 1, 0), 24, 1);
  sw.register_aggregated(*prog.aggregated());
  sw.set_program(&prog);
  sw.connect_tx(1, [](net::Packet) {});
  const net::Packet pkt = net::make_udp_packet(
      net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(10, 0, 1, 1), 1, 2,
      300);
  for (auto _ : state) {
    sw.receive(0, pkt);
    sched.run(64);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SwitchPacketPath);

}  // namespace
