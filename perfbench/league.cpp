// The `league` workload: arena::RunLeague over the ten policies the
// `defuse arena` verb runs by default and the five builtin scenarios.
// One operation is one league cell; one round is one whole league.
//
// Untraced, a round is one RunLeague call. Traced, a round is the same
// league driven through the public calls RunLeague makes (scenario
// generation, core::MineDependencies, PolicyRegistry::Build,
// sim::Simulate), each timed from outside, plus the serial stage split
// of every scenario's mining pass.
#include <cstdio>
#include <map>

#include "arena/league.hpp"
#include "arena/registry.hpp"
#include "arena/scenarios.hpp"
#include "core/experiment.hpp"
#include "perfbench.hpp"
#include "sim/simulator.hpp"

namespace perfbench {
namespace {

namespace arena = defuse::arena;
namespace trace = defuse::trace;
using defuse::TimeRange;

// Workload make-up (see README.md).
constexpr std::uint32_t kUsers = 60;
constexpr std::int64_t kDays = 7;
constexpr std::int64_t kFixedKeepalive = 10;  // the "fixed" default

struct Scenario {
  std::string spec;
  trace::ScenarioSpec resolved;
  trace::SyntheticWorkload workload;
  TimeRange train{0, 0};
  TimeRange eval{0, 0};
  std::uint64_t input_cells = 0;      // over the whole horizon
  std::uint64_t active_cells = 0;     // reference, over eval
  std::uint64_t keepalive_cold = 0;   // reference, over eval
};

arena::LeagueConfig MakeConfig(std::uint64_t seed) {
  arena::LeagueConfig config;
  config.policies = LeaguePolicies();
  config.scenarios = LeagueScenarios();
  config.seed = seed;
  config.num_users = kUsers;
  config.horizon_minutes = kDays * defuse::kMinutesPerDay;
  return config;
}

/// Generates every scenario's workload the way RunLeague resolves it.
std::vector<Scenario> GenerateScenarios(const arena::LeagueConfig& config,
                                        Report& report) {
  std::vector<Scenario> scenarios;
  for (const std::string& spec : config.scenarios) {
    auto resolved =
        arena::ScenarioRegistry::Builtin().Resolve(spec, config.seed);
    if (!report.Expect(resolved.ok(), "scenario " + spec + " resolves")) {
      continue;
    }
    trace::ScenarioSpec s = std::move(resolved).value();
    if (s.num_users == 0) s.num_users = config.num_users;
    if (s.horizon_minutes == 0) s.horizon_minutes = config.horizon_minutes;
    Scenario scenario{.spec = spec,
                      .resolved = s,
                      .workload = trace::GenerateScenario(s)};
    const auto horizon = trace::MakeScenarioConfig(s).horizon_minutes;
    std::tie(scenario.train, scenario.eval) =
        defuse::core::SplitTrainEval(TimeRange{0, horizon});
    scenarios.push_back(std::move(scenario));
  }
  return scenarios;
}

void ComputeReferences(std::vector<Scenario>& scenarios) {
  for (Scenario& s : scenarios) {
    s.input_cells = ActiveCells(s.workload.trace, s.workload.trace.horizon());
    s.active_cells = ActiveCells(s.workload.trace, s.eval);
    s.keepalive_cold =
        KeepAliveColdCells(s.workload.trace, s.eval, kFixedKeepalive);
  }
}

/// Checks one cell's counts against the trace-derived references.
void CheckCell(const Scenario& scenario, const std::string& policy,
               std::uint64_t invocation_minutes, std::uint64_t cold_minutes,
               Report& report) {
  const std::string where = policy + " on " + scenario.spec;
  report.Expect(invocation_minutes == scenario.active_cells,
                where + ": invocation minutes differ from the trace");
  report.Expect(cold_minutes <= invocation_minutes,
                where + ": more cold minutes than invocation minutes");
  if (policy == "fixed") {
    report.Expect(
        cold_minutes == scenario.keepalive_cold,
        where + ": cold minutes differ from the keep-alive reference");
  }
}

void CheckTable(const arena::LeagueTable& table,
                const arena::LeagueConfig& config,
                const std::vector<Scenario>& scenarios, Report& report) {
  const std::size_t num_policies = config.policies.size();
  if (!report.Expect(table.cells.size() == num_policies * scenarios.size(),
                     "league table has one cell per policy and scenario")) {
    return;
  }
  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    for (std::size_t pi = 0; pi < num_policies; ++pi) {
      const arena::LeagueCell& cell = table.cells[si * num_policies + pi];
      report.Expect(cell.scenario == scenarios[si].spec &&
                        cell.policy == config.policies[pi],
                    "league cells are scenario-major, policy-minor");
      // The table carries the cold share; recover the count from it.
      const double cold = cell.event_cold_fraction *
                          static_cast<double>(cell.invocation_minutes);
      const auto cold_minutes = static_cast<std::uint64_t>(cold + 0.5);
      report.Expect(cell.event_cold_fraction >= 0.0 &&
                        cell.event_cold_fraction <= 1.0,
                    cell.policy + ": cold share outside [0, 1]");
      CheckCell(scenarios[si], cell.policy, cell.invocation_minutes,
                cold_minutes, report);
    }
  }
}

/// Mines every scenario once more and checks the output; traced, also
/// times the mining stages one by one on the same inputs.
void CheckMining(const std::vector<Scenario>& scenarios,
                 const arena::LeagueConfig& config, bool time_stages,
                 Report& report) {
  for (const Scenario& s : scenarios) {
    auto mined = defuse::core::MineDependencies(
        s.workload.trace, s.workload.model, s.train, config.mining);
    if (!report.Expect(mined.ok(), s.spec + ": mining succeeds")) continue;
    CheckMiningOutput(s.workload.trace, s.workload.model, s.train,
                      config.mining, mined.value(), s.spec, report);
    if (time_stages) {
      TimeMiningStages(s.workload.trace, s.workload.model, s.train,
                       config.mining, mined.value(), s.spec, report);
    }
  }
}

void RunUntraced(const arena::LeagueConfig& config,
                 const std::vector<Scenario>& scenarios,
                 const Options& options, Report& report) {
  std::vector<double> round_s;
  std::string first_csv;
  arena::LeagueTable first;
  const auto measure_begin = Clock::now();
  do {
    const auto begin = Clock::now();
    auto table = arena::RunLeague(config);
    round_s.push_back(SecondsSince(begin));
    std::fprintf(stderr, "# round %zu: %.4f s\n", round_s.size(),
                 round_s.back());
    if (!report.Expect(table.ok(), "RunLeague succeeds")) return;
    report.attempted += table.value().cells.size();
    const std::string csv = arena::RenderLeagueCsv(table.value());
    if (first_csv.empty()) {
      first_csv = csv;
      first = std::move(table).value();
    } else {
      report.Expect(csv == first_csv, "league rounds are bit-identical");
    }
  } while (SecondsSince(measure_begin) < options.seconds);

  CheckTable(first, config, scenarios, report);
  CheckMining(scenarios, config, /*time_stages=*/false, report);

  double input_cells = 0.0;
  for (const Scenario& s : scenarios) {
    input_cells += static_cast<double>(s.input_cells);
  }
  report.Set("cell_ns", Percentile(round_s, 0.5) / input_cells * 1e9, "ns");

  // The paper's trade-off: Defuse's p75 per-function cold rate and its
  // memory, averaged over the scenarios.
  if (first.cells.size() != config.policies.size() * scenarios.size()) return;
  double cold_rate = 0.0;
  double memory_share = 0.0;
  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    const auto& cell = first.cells[si * config.policies.size() + 1];
    if (!report.Expect(cell.policy == "hybrid:set", "hybrid:set is second")) {
      return;
    }
    cold_rate += cell.p75_cold_rate;
    memory_share +=
        cell.avg_memory /
        static_cast<double>(scenarios[si].workload.model.num_functions());
  }
  const double rows = static_cast<double>(scenarios.size());
  report.Set("cold_rate", cold_rate / rows, "ratio");
  report.Set("memory_share", memory_share / rows, "ratio");
}

void RunTraced(const arena::LeagueConfig& config,
               const std::vector<Scenario>& scenarios, const Options& options,
               Report& report) {
  const arena::PolicyRegistry& registry = arena::PolicyRegistry::Builtin();
  std::map<std::string, double> sums;  // per-layer seconds over all rounds
  double simulated_minutes = 0.0;
  std::size_t rounds = 0;
  const auto measure_begin = Clock::now();
  do {
    double round_s = 0.0;  // inside the timed calls
    for (const Scenario& s : scenarios) {
      const std::string scenario_key = MetricKey(s.spec);
      // RunLeague generates every scenario on every call; so does a round.
      auto begin = Clock::now();
      const trace::SyntheticWorkload workload =
          trace::GenerateScenario(s.resolved);
      const double generate_s = SecondsSince(begin);
      round_s += generate_s;
      sums["trace.generate_s"] += generate_s;
      sums["trace.generate_s." + scenario_key] += generate_s;

      begin = Clock::now();
      auto mined = defuse::core::MineDependencies(
          workload.trace, workload.model, s.train, config.mining);
      const double mine_s = SecondsSince(begin);
      round_s += mine_s;
      sums["mining.mine_s"] += mine_s;
      sums["mining.mine_s." + scenario_key] += mine_s;
      if (!report.Expect(mined.ok(), s.spec + ": mining succeeds")) continue;
      const defuse::core::MiningOutput& mining = mined.value();

      arena::PolicyBuildContext context;
      context.model = &workload.model;
      context.trace = &workload.trace;
      context.train = s.train;
      context.mining = &mining;
      for (const std::string& spec : config.policies) {
        const std::string policy_key = MetricKey(spec);
        begin = Clock::now();
        auto built = registry.Build(context, spec);
        const double build_s = SecondsSince(begin);
        round_s += build_s;
        sums["arena.build_s." + policy_key] += build_s;
        if (!report.Expect(built.ok(), spec + " builds")) continue;

        begin = Clock::now();
        const auto result = defuse::sim::Simulate(
            workload.trace, s.eval, *built.value(), config.sim_options);
        const double simulate_s = SecondsSince(begin);
        round_s += simulate_s;
        sums["sim.simulate_s"] += simulate_s;
        sums["sim.simulate_s." + policy_key] += simulate_s;
        sums["sim.simulate_s." + scenario_key] += simulate_s;
        simulated_minutes +=
            static_cast<double>(result.function_invocation_minutes);
        ++report.attempted;
        CheckCell(s, spec, result.function_invocation_minutes,
                  result.function_cold_minutes, report);
      }
    }
    ++rounds;
    std::fprintf(stderr, "# round %zu: %.4f s in timed calls\n", rounds,
                 round_s);
  } while (SecondsSince(measure_begin) < options.seconds);
  CheckMining(scenarios, config, /*time_stages=*/true, report);

  for (const auto& [name, total] : sums) {
    report.Set(name, total / static_cast<double>(rounds), "s");
  }
  report.Set("sim.invocation_minutes_per_s",
             simulated_minutes / sums["sim.simulate_s"], "1/s");
}

}  // namespace

std::vector<std::string> LeaguePolicies() {
  return {"fixed",   "hybrid:set", "hybrid:function", "hybrid:application",
          "diurnal", "predictor",  "ar",              "spes:tier=balanced",
          "hiku",    "forecast"};
}

std::vector<std::string> LeagueScenarios() {
  std::vector<std::string> scenarios;
  for (const auto& entry : arena::ScenarioRegistry::Builtin().entries()) {
    scenarios.push_back(entry.name);
  }
  return scenarios;
}

void RunLeagueWorkload(const Options& options, Report& report) {
  const arena::LeagueConfig config = MakeConfig(options.seed);
  std::vector<Scenario> scenarios = GenerateScenarios(config, report);
  report.Set("setup_s", SecondsSince(options.process_start), "s");
  ComputeReferences(scenarios);
  if (options.trace) {
    RunTraced(config, scenarios, options, report);
  } else {
    RunUntraced(config, scenarios, options, report);
  }
}

}  // namespace perfbench
