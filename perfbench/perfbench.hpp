// Shared pieces of the benchmark driver: options, the metric report,
// clocks, percentiles, and the reference computations the workloads
// check the program's outputs against.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/defuse.hpp"
#include "graph/dependency_graph.hpp"
#include "graph/unit_map.hpp"
#include "stats/descriptive.hpp"
#include "trace/invocation_trace.hpp"
#include "trace/model.hpp"

namespace defuse::platform {
class Platform;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double SecondsSince(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  /// False: end-to-end metrics. True: per-layer metrics.
  bool trace = false;
  /// Taken first thing in main(); set-up time runs from here.
  Clock::time_point process_start;
};

/// Everything one run prints: the correctness verdict, the operation
/// counts and the metrics by name.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  /// Accumulates into `name` (starting from 0).
  void Add(const std::string& name, double value, const std::string& unit) {
    auto& slot = metrics_[name];
    slot.first += value;
    slot.second = unit;
  }
  /// Records a failed correctness check; the run reports correct=false.
  void Fail(const std::string& what);
  /// Checks `ok`, failing with `what` otherwise. Returns `ok`.
  bool Expect(bool ok, const std::string& what) {
    if (!ok) Fail(what);
    return ok;
  }

  [[nodiscard]] bool correct() const noexcept { return failures_ == 0; }
  [[nodiscard]] const std::map<std::string, std::pair<double, std::string>>&
  metrics() const noexcept {
    return metrics_;
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::uint64_t failures_ = 0;
};

/// Interpolated percentile, q in [0, 1]; 0 for no samples.
using defuse::stats::Percentile;
[[nodiscard]] double PeakRssMb();

/// A policy or scenario spec as a metric-name component ("hybrid:set" ->
/// "hybrid-set", "spes:tier=balanced" -> "spes-tier-balanced").
[[nodiscard]] std::string MetricKey(std::string_view spec);

// ---- Reference computations (written apart from the program) ----------

/// Active (function, minute) cells of the trace inside `range`, counted
/// from the raw per-function series.
[[nodiscard]] std::uint64_t ActiveCells(
    const defuse::trace::InvocationTrace& trace, defuse::TimeRange range);

/// Cold (function, minute) cells of a per-function fixed keep-alive of
/// `keepalive` minutes over `range`, starting with nothing resident: a
/// function is cold when it was not active in the preceding `keepalive`
/// minutes of the range.
[[nodiscard]] std::uint64_t KeepAliveColdCells(
    const defuse::trace::InvocationTrace& trace, defuse::TimeRange range,
    std::int64_t keepalive);

/// A partition as sorted member lists, sorted by first member: equal
/// partitions compare equal whatever their set ids.
using Partition = std::vector<std::vector<std::uint32_t>>;
[[nodiscard]] Partition CanonicalPartition(
    const std::vector<defuse::graph::DependencySet>& sets);
[[nodiscard]] Partition CanonicalPartition(const defuse::graph::UnitMap& units);
/// True when every function 0..num_functions-1 is in exactly one part.
[[nodiscard]] bool PartitionsAll(const Partition& partition,
                                 std::size_t num_functions);
/// Connected components of the graph's edges by breadth-first search.
[[nodiscard]] Partition BfsComponents(
    const defuse::graph::DependencyGraph& graph);

/// Checks a mining output against the references: its sets partition the
/// functions and equal the BFS components of its graph, and FP-Growth
/// equals the brute-force miner on the projected universe windows that
/// are small enough for it. Failures go to `report` under `label`.
void CheckMiningOutput(const defuse::trace::InvocationTrace& trace,
                       const defuse::trace::WorkloadModel& model,
                       defuse::TimeRange train,
                       const defuse::core::DefuseConfig& config,
                       const defuse::core::MiningOutput& mined,
                       const std::string& label, Report& report);

/// The paper's Fig 7 statistic over a platform's per-function counters:
/// the 75th percentile of the cold-start rates of invoked functions.
[[nodiscard]] double P75ColdRate(const defuse::platform::Platform& engine);

// ---- Layer timing shared by the league and remine workloads ----------

/// Times the mining stages one by one on `train` through their public
/// functions (serially) and adds the stage times and counts to `report`
/// as the mining.* / graph.* per-layer metrics. Checks the stage results
/// against `mined`, the MineDependencies output on the same inputs.
void TimeMiningStages(const defuse::trace::InvocationTrace& trace,
                      const defuse::trace::WorkloadModel& model,
                      defuse::TimeRange train,
                      const defuse::core::DefuseConfig& config,
                      const defuse::core::MiningOutput& mined,
                      const std::string& label, Report& report);

// ---- Workloads ----------------------------------------------------------

/// The league's policy and scenario specs: the ten policies and five
/// builtin scenarios `defuse arena` runs by default.
[[nodiscard]] std::vector<std::string> LeaguePolicies();
[[nodiscard]] std::vector<std::string> LeagueScenarios();
/// The remine workload's three platforms and its day boundaries.
inline constexpr std::array<const char*, 3> kRemineModes = {"full", "parallel",
                                                            "delta"};
inline constexpr int kRemineBoundaries = 7;

void RunLeagueWorkload(const Options& options, Report& report);
void RunServeWorkload(const Options& options, Report& report);
void RunRemineWorkload(const Options& options, Report& report);

}  // namespace perfbench
