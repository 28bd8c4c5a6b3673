// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload league|serve|remine --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. A per-layer metric of a layer the workload does not
// run reads 0. The line before it records the machine and the seed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "perfbench.hpp"

namespace {

using perfbench::MetricKey;
using Catalog = std::vector<std::pair<std::string, std::string>>;  // name, unit

Catalog EndToEndCatalog() {
  return {{"setup_s", "s"},
          {"cell_ns", "ns"},
          {"cold_rate", "ratio"},
          {"memory_share", "ratio"},
          {"peak_rss_mb", "MB"}};
}

Catalog PerLayerCatalog() {
  const auto policies = perfbench::LeaguePolicies();
  const auto scenarios = perfbench::LeagueScenarios();
  Catalog c;
  // A total plus one value per league scenario or policy.
  const auto per_spec = [&c](const std::string& name,
                             const std::vector<std::string>& specs) {
    c.emplace_back(name, "s");
    for (const auto& spec : specs) {
      c.emplace_back(name + "." + MetricKey(spec), "s");
    }
  };
  per_spec("trace.generate_s", scenarios);
  per_spec("mining.mine_s", scenarios);
  for (const char* stage : {"mining.classify_s", "mining.transactions_s",
                            "mining.split_s", "mining.fpgrowth_s",
                            "mining.ppmi_s", "graph.build_s",
                            "graph.components_s", "mining.serial_stage_s"}) {
    c.emplace_back(stage, "s");
  }
  for (const char* count : {"mining.transactions", "mining.itemsets",
                            "mining.weak_deps", "graph.sets"}) {
    c.emplace_back(count, "count");
  }
  for (const auto& p : policies) {
    c.emplace_back("arena.build_s." + MetricKey(p), "s");
  }
  per_spec("sim.simulate_s", policies);
  for (const auto& s : scenarios) {
    c.emplace_back("sim.simulate_s." + MetricKey(s), "s");
  }
  c.emplace_back("sim.invocation_minutes_per_s", "1/s");
  for (const char* latency :
       {"serve.invoke_us.p50", "serve.invoke_us.p99", "serve.idle_p99_us",
        "serve.inflight_p99_us", "platform.invoke_us.p50",
        "platform.invoke_us.p99", "server.handle_us.p50",
        "server.handle_us.p99", "net.wire_us.p50", "net.wire_us.p99"}) {
    c.emplace_back(latency, "us");
  }
  c.emplace_back("client.encode_ns", "ns");
  c.emplace_back("client.decode_ns", "ns");
  c.emplace_back("serve.invokes", "count");
  c.emplace_back("platform.inflight_invokes", "count");
  for (const char* mode : perfbench::kRemineModes) {
    for (int day = 1; day <= perfbench::kRemineBoundaries; ++day) {
      c.emplace_back("platform.remine_ms." + std::string{mode} + "." +
                         std::to_string(day),
                     "ms");
    }
    c.emplace_back("platform.remine_s." + std::string{mode}, "s");
  }
  for (int day = 1; day <= perfbench::kRemineBoundaries; ++day) {
    c.emplace_back("mining.window_events." + std::to_string(day), "count");
  }
  c.emplace_back("platform.invoke_s.full", "s");
  c.emplace_back("platform.invoke_s.delta", "s");
  c.emplace_back("platform.replay_s.delta", "s");
  c.emplace_back("delta.delta_mines", "count");
  c.emplace_back("delta.full_rebuilds", "count");
  return c;
}

bool ParseUnsigned(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') return false;
  out = value;
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload league|serve|remine --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

std::string JsonNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.process_start = perfbench::Clock::now();

  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && ParseUnsigned(value, number)) {
      options.seed = number;
    } else if (flag == "--seconds" && ParseUnsigned(value, number) &&
               number > 0) {
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace" && ParseUnsigned(value, number) &&
               number <= 1) {
      options.trace = number == 1;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_workload) return Usage();

  defuse::SetLogLevel(defuse::LogLevel::kError);
  perfbench::Report report;
  if (options.workload == "league") {
    perfbench::RunLeagueWorkload(options, report);
  } else if (options.workload == "serve") {
    perfbench::RunServeWorkload(options, report);
  } else if (options.workload == "remine") {
    perfbench::RunRemineWorkload(options, report);
  } else {
    return Usage();
  }
  report.Set("peak_rss_mb", perfbench::PeakRssMb(), "MB");

  const Catalog end_to_end = EndToEndCatalog();
  const Catalog per_layer = PerLayerCatalog();
  // Every name a workload reports belongs to one of the catalogs.
  for (const auto& [name, value] : report.metrics()) {
    bool known = false;
    for (const Catalog* catalog : {&end_to_end, &per_layer}) {
      for (const auto& entry : *catalog) known = known || entry.first == name;
    }
    report.Expect(known, "unlisted metric " + name);
    report.Expect(std::isfinite(value.first), "non-finite metric " + name);
  }

  std::string metrics;
  for (const auto& [name, unit] : options.trace ? per_layer : end_to_end) {
    const auto it = report.metrics().find(name);
    double value = 0.0;  // a layer this workload does not run
    if (it != report.metrics().end()) {
      value = it->second.first;
      report.Expect(it->second.second == unit, "unit of " + name);
    } else {
      report.Expect(options.trace, "missing end-to-end metric " + name);
    }
    if (!std::isfinite(value)) value = 0.0;
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + JsonNumber(value) +
               ", \"unit\": \"" + unit + "\"}";
  }

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
              "build_type=%s compiler=%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, std::thread::hardware_concurrency(),
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              report.correct() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  return report.correct() ? 0 : 1;
}
