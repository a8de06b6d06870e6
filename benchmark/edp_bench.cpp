// edp_bench — the repository's benchmark harness.
//
//   edp_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--record FILE]
//
// Runs one workload (see kWorkloads) in this process and prints every metric
// as `workload metric value unit`, then, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics (from one extra traced repetition) with
// --trace 1. --record appends the full result, every metric and the
// per-repetition samples, as one JSON line to FILE (compare.py reads these).
//
// Exit status: 0 all checks passed, 1 a correctness check failed, 2 usage.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>

#include "harness.hpp"

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace edp::bench {

void Report::check(const std::string& what, bool ok) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "edp_bench: check failed: %s\n", what.c_str());
  }
}

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::vector<Rep> timed_reps(double seconds, const std::function<Rep()>& rep) {
  constexpr std::size_t kMinReps = 3;
  rep();  // warm-up: page faults, pool and allocator high-water marks
  std::vector<Rep> reps;
  const double start = wall_now();
  while (reps.size() < kMinReps || wall_now() - start < seconds) {
    reps.push_back(rep());
  }
  return reps;
}

double best_run_s(const std::vector<Rep>& reps) {
  double best = reps.front().run_s;
  for (const Rep& r : reps) {
    best = std::min(best, r.run_s);
  }
  return best;
}

void add_end_to_end(Report& report, const std::vector<Rep>& reps,
                    double packets) {
  std::vector<double> run, cpu, setup;
  for (const Rep& r : reps) {
    run.push_back(r.run_s);
    cpu.push_back(r.cpu_s);
    setup.push_back(r.setup_s);
  }
  // Best of K, set-up included: the work is identical in every repetition,
  // and on a shared host the fastest one is the least perturbed. Per-run
  // medians spread up to three times wider between seeds (README.md).
  report.end_to_end = {
      {"pkts_per_s", packets / best_run_s(reps), "1/s"},
      {"cpu_us_per_pkt",
       *std::min_element(cpu.begin(), cpu.end()) / packets * 1e6, "us"},
      {"setup_s", *std::min_element(setup.begin(), setup.end()), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  report.samples = {{"run_s", run}, {"cpu_s", cpu}, {"setup_s", setup}};
}

std::uint64_t ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

std::uint64_t TracedProgram::total_calls() const {
  std::uint64_t n = 0;
  for (const HandlerStats& s : stats_) {
    n += s.calls;
  }
  return n;
}

std::uint64_t TracedProgram::total_self_ticks() const {
  std::uint64_t n = 0;
  for (const HandlerStats& s : stats_) {
    n += s.self_ticks;
  }
  return n;
}

}  // namespace edp::bench

namespace {

using edp::bench::Options;
using edp::bench::Report;

struct Workload {
  const char* name;
  Report (*run)(const Options&);
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const Workload kWorkloads[] = {
    {"storm_seq",
     [](const Options& o) { return edp::bench::run_storm(o, 1); }},
    {"storm_4shard",
     [](const Options& o) { return edp::bench::run_storm(o, 4); }},
    {"linerate_fused",
     [](const Options& o) { return edp::bench::run_linerate(o, true); }},
    {"linerate_naive",
     [](const Options& o) { return edp::bench::run_linerate(o, false); }},
};

/// JSON number with every digit; the harness never produces NaN or inf.
std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_metrics(const std::vector<edp::bench::Metric>& metrics) {
  std::string out = "{";
  for (const auto& m : metrics) {
    if (out.size() > 1) {
      out += ", ";
    }
    out += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

/// The full result as one JSON line: every metric plus the samples.
std::string json_record(const Options& o, const Report& r) {
  std::vector<edp::bench::Metric> all = r.end_to_end;
  all.insert(all.end(), r.per_layer.begin(), r.per_layer.end());
  std::string samples = "{";
  for (const auto& [name, values] : r.samples) {
    if (samples.size() > 1) {
      samples += ", ";
    }
    samples += "\"" + name + "\": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      samples += (i == 0 ? "" : ", ") + json_number(values[i]);
    }
    samples += "]";
  }
  samples += "}";
  return "{\"workload\": \"" + o.workload +
         "\", \"seed\": " + std::to_string(o.seed) +
         ", \"seconds\": " + json_number(o.seconds) +
         ", \"correct\": " + (r.failed == 0 ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) +
         ", \"metrics\": " + json_metrics(all) + ", \"samples\": " + samples +
         "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: edp_bench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--record FILE]\nworkloads:");
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string record;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) {
      return usage();
    }
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (!(options.seconds > 0)) {
        return usage();
      }
    } else if (flag == "--trace") {
      options.trace = std::strtoul(value, &end, 10) != 0;
    } else if (flag == "--record") {
      record = value;
    } else {
      return usage();
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      return usage();
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    return usage();
  }

  const Report report = workload->run(options);

  const char* name = workload->name;
  for (const auto& m : report.end_to_end) {
    std::printf("%s %s %.6g %s\n", name, m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("%s error_frac %.6g ratio\n", name,
              static_cast<double>(report.failed) /
                  static_cast<double>(std::max<std::uint64_t>(
                      report.attempted, 1)));
  for (const auto& m : report.per_layer) {
    std::printf("%s %s %.6g %s\n", name, m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& [metric, values] : report.samples) {
    std::printf("# %s samples %s:", name, metric.c_str());
    for (const double v : values) {
      std::printf(" %.6g", v);
    }
    std::printf("\n");
  }
  if (!record.empty()) {
    if (std::FILE* f = std::fopen(record.c_str(), "a")) {
      std::fprintf(f, "%s\n", json_record(options, report).c_str());
      std::fclose(f);
    } else {
      std::fprintf(stderr, "edp_bench: cannot append to %s\n",
                   record.c_str());
      return 2;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              report.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              json_metrics(options.trace ? report.per_layer
                                         : report.end_to_end)
                  .c_str());
  return report.failed == 0 ? 0 : 1;
}
