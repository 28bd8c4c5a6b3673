#include "arena/league.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>

#include "common/thread_pool.hpp"
#include "core/experiment.hpp"
#include "stats/descriptive.hpp"

namespace defuse::arena {
namespace {

[[nodiscard]] std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// Resident function-minutes the policy paid for beyond the invoked
/// function-minutes — the league's "wasted memory" column.
[[nodiscard]] double WastedMemoryMinutes(const sim::SimulationResult& result) {
  std::uint64_t resident = 0;
  for (const std::uint64_t loaded : result.loaded_functions) {
    resident += loaded;
  }
  if (resident <= result.function_invocation_minutes) return 0.0;
  return static_cast<double>(resident - result.function_invocation_minutes);
}

}  // namespace

Result<LeagueTable> RunLeague(const LeagueConfig& config) {
  if (config.policies.empty() || config.scenarios.empty()) {
    return Error{.code = ErrorCode::kInvalidArgument,
                 .message = "league needs at least one policy and one "
                            "scenario spec"};
  }

  // Validate every spec up front: a typo in the last policy must not
  // surface only after the first scenario's mining run.
  const PolicyRegistry& policies = PolicyRegistry::Builtin();
  const ScenarioRegistry& scenarios = ScenarioRegistry::Builtin();
  for (const std::string& spec : config.policies) {
    auto resolved = policies.Resolve(spec);
    if (!resolved.ok()) return resolved.error();
  }
  // The league pool is the only thread setting: a mining.parallel width
  // would be ignored, so it is refused rather than dropped silently.
  if (config.mining.parallel.num_threads != 0) {
    return Error{.code = ErrorCode::kInvalidArgument,
                 .message = "league mining runs on the league pool: set "
                            "num_threads, not mining.parallel.num_threads"};
  }
  if (config.num_threads > kMaxLeagueThreads) {
    return Error{.code = ErrorCode::kInvalidArgument,
                 .message = "league num_threads " +
                            std::to_string(config.num_threads) +
                            " exceeds the limit of " +
                            std::to_string(kMaxLeagueThreads)};
  }
  std::vector<trace::ScenarioSpec> scenario_specs;
  scenario_specs.reserve(config.scenarios.size());
  for (const std::string& spec : config.scenarios) {
    auto resolved = scenarios.Resolve(spec, config.seed);
    if (!resolved.ok()) return resolved.error();
    trace::ScenarioSpec s = std::move(resolved).value();
    if (s.num_users == 0) s.num_users = config.num_users;
    if (s.horizon_minutes == 0) s.horizon_minutes = config.horizon_minutes;
    scenario_specs.push_back(s);
  }

  // One pool for the whole league: each row's mining pass and its policy
  // cells fan out on it. Rows stay sequential, so at most one scenario's
  // trace and mining output are alive at a time.
  const std::size_t num_threads = config.num_threads == 0
                                      ? ThreadPool::DefaultThreads()
                                      : config.num_threads;
  std::unique_ptr<ThreadPool> owned_pool;
  if (num_threads > 1) owned_pool = std::make_unique<ThreadPool>(num_threads);
  ThreadPool* pool = owned_pool.get();

  const std::size_t num_policies = config.policies.size();
  LeagueTable table;
  table.cells.resize(num_policies * scenario_specs.size());
  for (std::size_t si = 0; si < scenario_specs.size(); ++si) {
    const trace::SyntheticWorkload workload =
        trace::GenerateScenario(scenario_specs[si]);
    const MinuteDelta horizon =
        trace::MakeScenarioConfig(scenario_specs[si]).horizon_minutes;
    const auto [train, eval] =
        core::SplitTrainEval(TimeRange{0, horizon});

    // One mining pass per scenario, shared by every dependency-guided
    // policy in the row.
    auto mined = core::MineDependencies(workload.trace, workload.model, train,
                                        config.mining, nullptr, pool);
    if (!mined.ok()) return mined.error();
    const core::MiningOutput mining = std::move(mined).value();

    PolicyBuildContext context;
    context.model = &workload.model;
    context.trace = &workload.trace;
    context.train = train;
    context.mining = &mining;

    // Cell pi of the row writes only slot si * P + pi (or its error
    // slot), so the table is the serial loop's at any thread count. The
    // first failure in policy order is the one the serial loop returns.
    std::vector<std::optional<Error>> errors(num_policies);
    ParallelFor(pool, num_policies, [&](std::size_t pi) {
      const std::string& spec = config.policies[pi];
      auto built = policies.Build(context, spec);
      if (!built.ok()) {
        errors[pi] = built.error();
        return;
      }
      const std::unique_ptr<policy::SchedulingPolicy> policy =
          std::move(built).value();
      const sim::SimulationResult result =
          sim::Simulate(workload.trace, eval, *policy, config.sim_options);

      LeagueCell& cell = table.cells[si * num_policies + pi];
      cell.policy = spec;
      cell.scenario = config.scenarios[si];
      cell.policy_name = policy->name();
      cell.num_units = policy->unit_map().num_units();
      cell.invocation_minutes = result.function_invocation_minutes;
      cell.event_cold_fraction =
          result.function_invocation_minutes == 0
              ? 0.0
              : static_cast<double>(result.function_cold_minutes) /
                    static_cast<double>(result.function_invocation_minutes);
      cell.p75_cold_rate = result.ColdStartRatePercentile(policy->unit_map(),
                                                          0.75);
      cell.avg_memory = result.AverageMemoryUsage();
      cell.wasted_memory_minutes = WastedMemoryMinutes(result);
      cell.p99_cold_latency_ms = sim::LatencyPercentileMs(result, 0.99);
      cell.avg_loads_per_minute = result.AverageLoadingFunctions();
      cell.triggered_prewarms = result.triggered_prewarms;
    });
    for (std::optional<Error>& error : errors) {
      if (error.has_value()) return std::move(*error);
    }
  }
  return table;
}

std::string RenderLeagueCsv(const LeagueTable& table) {
  std::string out =
      "scenario,policy,policy_name,num_units,invocation_minutes,"
      "event_cold_fraction,p75_cold_rate,avg_memory,wasted_memory_minutes,"
      "p99_cold_latency_ms,avg_loads_per_minute,triggered_prewarms\n";
  for (const LeagueCell& cell : table.cells) {
    out += cell.scenario;
    out += ',';
    out += cell.policy;
    out += ',';
    out += cell.policy_name;
    out += ',';
    out += std::to_string(cell.num_units);
    out += ',';
    out += std::to_string(cell.invocation_minutes);
    out += ',';
    out += FormatDouble(cell.event_cold_fraction);
    out += ',';
    out += FormatDouble(cell.p75_cold_rate);
    out += ',';
    out += FormatDouble(cell.avg_memory);
    out += ',';
    out += FormatDouble(cell.wasted_memory_minutes);
    out += ',';
    out += FormatDouble(cell.p99_cold_latency_ms);
    out += ',';
    out += FormatDouble(cell.avg_loads_per_minute);
    out += ',';
    out += std::to_string(cell.triggered_prewarms);
    out += '\n';
  }
  return out;
}

std::string LeagueTableJson(const LeagueTable& table) {
  std::string out = "{";
  bool first = true;
  for (const LeagueCell& cell : table.cells) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + cell.policy + "|" + cell.scenario + "\": {";
    out += "\"policy_name\": \"" + cell.policy_name + "\"";
    out += ", \"num_units\": " + std::to_string(cell.num_units);
    out += ", \"invocation_minutes\": " +
           std::to_string(cell.invocation_minutes);
    out += ", \"event_cold_fraction\": " +
           FormatDouble(cell.event_cold_fraction);
    out += ", \"p75_cold_rate\": " + FormatDouble(cell.p75_cold_rate);
    out += ", \"avg_memory\": " + FormatDouble(cell.avg_memory);
    out += ", \"wasted_memory_minutes\": " +
           FormatDouble(cell.wasted_memory_minutes);
    out += ", \"p99_cold_latency_ms\": " +
           FormatDouble(cell.p99_cold_latency_ms);
    out += ", \"avg_loads_per_minute\": " +
           FormatDouble(cell.avg_loads_per_minute);
    out += ", \"triggered_prewarms\": " +
           std::to_string(cell.triggered_prewarms);
    out += "}";
  }
  out += "}";
  return out;
}

}  // namespace defuse::arena
