// Shared pieces of the edp_bench harness: what a workload run reports, the
// host clocks it is measured with, the heap-allocation counter, and the
// handler-timing decorator the traced repetition wraps the DUT program in.
//
// Everything here lives in the benchmark package; the library under test is
// driven only through its public entry points.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/event_program.hpp"

namespace edp::core {
class EventSwitch;
}

namespace edp::bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10;  ///< wall time the timed repetitions run for
  bool trace = false;   ///< also run the traced repetition
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One workload run: end-to-end metrics from the untraced repetitions,
/// per-layer metrics from the traced one, and the correctness tally.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Per-repetition timings behind the end-to-end values, printed so the
  /// spread inside a run stays visible.
  std::vector<std::pair<std::string, std::vector<double>>> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Count one correctness check; a failure is reported on stderr.
  void check(const std::string& what, bool ok);
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
};

// ---- host clocks ------------------------------------------------------------

double wall_now();     ///< steady clock, seconds
double cpu_now();      ///< process CPU time of all threads, seconds
double peak_rss_mb();  ///< getrusage max resident set size
/// a / b, or 0 when b is 0 (a layer the workload does not exercise).
inline double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

/// Host time of one untraced repetition, split at the first run call.
struct Rep {
  double setup_s = 0;  ///< spec to the first run_until / run
  double run_s = 0;    ///< run phase, wall
  double cpu_s = 0;    ///< process CPU time of the repetition, all threads
};

/// One untimed warm-up call of `rep`, then timed calls until `seconds` of
/// wall time have passed (at least three). Returns the timed repetitions.
std::vector<Rep> timed_reps(double seconds, const std::function<Rep()>& rep);

/// Fastest run phase among `reps`.
double best_run_s(const std::vector<Rep>& reps);

/// The end-to-end metrics over `reps`, per packet injected.
void add_end_to_end(Report& report, const std::vector<Rep>& reps,
                    double packets);

// ---- heap allocation counter (alloc_count.cpp) ------------------------------
//
// The harness replaces global operator new. Each thread counts its own
// allocations.

std::uint64_t thread_heap_allocs();  ///< the calling thread's count

// ---- traced repetition ------------------------------------------------------

/// Cycle-counter ticks (rdtsc on x86-64, steady-clock ns elsewhere).
std::uint64_t ticks();

/// Decorator that forwards every handler of the wrapped program and keeps,
/// per handler kind, the call count and the *self* ticks (a handler's time
/// minus the handlers it triggered inline, such as a fused enqueue handler
/// run from inside an ingress send). Single-threaded: one switch owns it.
class TracedProgram final : public core::EventProgram {
 public:
  struct HandlerStats {
    std::uint64_t calls = 0;
    std::uint64_t self_ticks = 0;
  };

  explicit TracedProgram(core::EventProgram& inner) : inner_(inner) {}

  const HandlerStats& stats(core::ProgramHandler h) const {
    return stats_[static_cast<std::size_t>(h)];
  }
  std::uint64_t total_calls() const;
  std::uint64_t total_self_ticks() const;

  void on_ingress(pisa::Phv& phv, core::EventContext& ctx) override {
    timed(core::ProgramHandler::kIngress,
          [&] { inner_.on_ingress(phv, ctx); });
  }
  void on_egress(pisa::Phv& phv, core::EventContext& ctx) override {
    timed(core::ProgramHandler::kEgress, [&] { inner_.on_egress(phv, ctx); });
  }
  void on_recirculate(pisa::Phv& phv, core::EventContext& ctx) override {
    timed(core::ProgramHandler::kRecirculate,
          [&] { inner_.on_recirculate(phv, ctx); });
  }
  void on_generated(pisa::Phv& phv, core::EventContext& ctx) override {
    timed(core::ProgramHandler::kGenerated,
          [&] { inner_.on_generated(phv, ctx); });
  }
  void on_enqueue(const tm_::EnqueueRecord& e,
                  core::EventContext& ctx) override {
    timed(core::ProgramHandler::kEnqueue, [&] { inner_.on_enqueue(e, ctx); });
  }
  void on_dequeue(const tm_::DequeueRecord& e,
                  core::EventContext& ctx) override {
    timed(core::ProgramHandler::kDequeue, [&] { inner_.on_dequeue(e, ctx); });
  }
  void on_overflow(const tm_::DropRecord& e,
                   core::EventContext& ctx) override {
    timed(core::ProgramHandler::kOverflow,
          [&] { inner_.on_overflow(e, ctx); });
  }
  void on_underflow(const tm_::UnderflowRecord& e,
                    core::EventContext& ctx) override {
    timed(core::ProgramHandler::kUnderflow,
          [&] { inner_.on_underflow(e, ctx); });
  }
  void on_transmit(const core::TransmitRecord& e,
                   core::EventContext& ctx) override {
    timed(core::ProgramHandler::kTransmit,
          [&] { inner_.on_transmit(e, ctx); });
  }
  void on_timer(const core::TimerEventData& e,
                core::EventContext& ctx) override {
    timed(core::ProgramHandler::kTimer, [&] { inner_.on_timer(e, ctx); });
  }
  void on_control(const core::ControlEventData& e,
                  core::EventContext& ctx) override {
    timed(core::ProgramHandler::kControl, [&] { inner_.on_control(e, ctx); });
  }
  void on_link_status(const core::LinkStatusEventData& e,
                      core::EventContext& ctx) override {
    timed(core::ProgramHandler::kLinkStatus,
          [&] { inner_.on_link_status(e, ctx); });
  }
  void on_user(const core::UserEventData& e,
               core::EventContext& ctx) override {
    timed(core::ProgramHandler::kUser, [&] { inner_.on_user(e, ctx); });
  }
  // Set-up calls are forwarded untimed: they run before the run phase.
  void on_attach(core::EventContext& ctx) override { inner_.on_attach(ctx); }
  bool realize_aggregated(std::string_view reg) override {
    return inner_.realize_aggregated(reg);
  }
  void visit_aggregated(
      const std::function<void(core::AggregatedRegister&)>& visit) override {
    inner_.visit_aggregated(visit);
  }

 private:
  template <typename F>
  void timed(core::ProgramHandler h, F&& body) {
    const std::uint64_t outer_children = child_ticks_;
    child_ticks_ = 0;
    const std::uint64_t t0 = ticks();
    body();
    const std::uint64_t spent = ticks() - t0;
    HandlerStats& s = stats_[static_cast<std::size_t>(h)];
    ++s.calls;
    s.self_ticks += spent - child_ticks_;
    child_ticks_ = outer_children + spent;
  }

  core::EventProgram& inner_;
  std::array<HandlerStats, core::kNumProgramHandlers> stats_{};
  /// Ticks spent in nested handler calls of the frame now running.
  std::uint64_t child_ticks_ = 0;
};

// ---- per-layer metrics (layers.cpp) -----------------------------------------

/// core.kernel_self_s and apps.*: `run_s` is the traced run phase and
/// `ticks_per_s` the cycle counter's rate measured over it.
void add_handler_metrics(Report& report, const TracedProgram& traced,
                         double run_s, double ticks_per_s, double packets);

/// core.dut.*, core.agg.*, tm.* and pisa.*: `dut` runs `program`, `all`
/// is every switch of the run (drop counts are summed over them).
void add_switch_metrics(Report& report, const core::EventSwitch& dut,
                        const std::vector<const core::EventSwitch*>& all,
                        TracedProgram& program, double packets);

// ---- workloads --------------------------------------------------------------

Report run_storm(const Options& options, std::size_t shards);
Report run_linerate(const Options& options, bool optimize);

}  // namespace edp::bench
