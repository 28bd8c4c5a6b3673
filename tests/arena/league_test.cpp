// League determinism and the triggered pre-warm machinery the hiku
// competitor rides on.
//
// The headline arena guarantee: every policy×scenario cell is
// bit-identical across reruns and across worker thread counts for seeds
// 0–9 (the CSV rendering is compared byte-for-byte, so every metric in
// every cell is pinned).
#include "arena/league.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

namespace defuse::arena {
namespace {

LeagueConfig TinyConfig(std::uint64_t seed) {
  LeagueConfig config;
  config.policies = {"fixed", "hybrid:set", "hiku", "spes:tier=cost"};
  config.scenarios = {"flat_poisson", "huawei_bursty"};
  config.seed = seed;
  config.num_users = 4;
  config.horizon_minutes = 2 * kMinutesPerDay;
  return config;
}

TEST(League, RerunsAreBitIdenticalForSeeds0To9) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    auto a = RunLeague(TinyConfig(seed));
    auto b = RunLeague(TinyConfig(seed));
    ASSERT_TRUE(a.ok()) << "seed " << seed << ": " << a.error().message;
    ASSERT_TRUE(b.ok()) << "seed " << seed << ": " << b.error().message;
    EXPECT_EQ(RenderLeagueCsv(a.value()), RenderLeagueCsv(b.value()))
        << "seed " << seed;
  }
}

TEST(League, CsvIsByteIdenticalAcrossThreadCountsForSeeds0To9) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    auto config = TinyConfig(seed);
    config.num_threads = 1;
    auto serial = RunLeague(config);
    ASSERT_TRUE(serial.ok()) << "seed " << seed << ": "
                             << serial.error().message;
    const std::string expected = RenderLeagueCsv(serial.value());
    for (const std::size_t threads : {2u, 4u}) {
      config.num_threads = threads;
      auto parallel = RunLeague(config);
      ASSERT_TRUE(parallel.ok()) << "seed " << seed << ", " << threads
                                 << " threads: " << parallel.error().message;
      EXPECT_EQ(RenderLeagueCsv(parallel.value()), expected)
          << "seed " << seed << ", " << threads << " threads";
    }
  }
}

TEST(League, MiningFailureIsTheSameErrorAtEveryThreadCount) {
  auto config = TinyConfig(1);
  // Passes spec validation; fails in the first scenario's mining pass.
  config.mining.universe_stride = config.mining.universe_window + 1;
  config.num_threads = 1;
  auto serial = RunLeague(config);
  ASSERT_FALSE(serial.ok());
  EXPECT_EQ(serial.error().code, ErrorCode::kInvalidArgument);
  for (const std::size_t threads : {2u, 4u}) {
    config.num_threads = threads;
    auto parallel = RunLeague(config);
    ASSERT_FALSE(parallel.ok()) << threads << " threads";
    EXPECT_EQ(parallel.error().code, serial.error().code);
    EXPECT_EQ(parallel.error().message, serial.error().message);
  }
}

TEST(League, RejectsThreadSettingsItWouldIgnoreOrCouldNotUse) {
  // Both are refused up front, before a pool or a scenario exists.
  auto config = TinyConfig(1);
  config.num_threads = kMaxLeagueThreads + 1;
  auto too_many = RunLeague(config);
  ASSERT_FALSE(too_many.ok());
  EXPECT_EQ(too_many.error().code, ErrorCode::kInvalidArgument);

  config = TinyConfig(1);
  config.mining.parallel.num_threads = 4;
  auto second_knob = RunLeague(config);
  ASSERT_FALSE(second_knob.ok());
  EXPECT_EQ(second_knob.error().code, ErrorCode::kInvalidArgument);
  EXPECT_NE(second_knob.error().message.find("mining.parallel"),
            std::string::npos);
}

TEST(League, CellsCoverTheCrossProductScenarioMajor) {
  const auto config = TinyConfig(1);
  auto table = RunLeague(config);
  ASSERT_TRUE(table.ok()) << table.error().message;
  ASSERT_EQ(table.value().cells.size(),
            config.policies.size() * config.scenarios.size());
  std::size_t i = 0;
  for (const auto& scenario : config.scenarios) {
    for (const auto& policy : config.policies) {
      EXPECT_EQ(table.value().cells[i].scenario, scenario);
      EXPECT_EQ(table.value().cells[i].policy, policy);
      EXPECT_GT(table.value().cells[i].num_units, 0u);
      EXPECT_GT(table.value().cells[i].invocation_minutes, 0u);
      ++i;
    }
  }
}

TEST(League, BadPolicySpecFailsBeforeAnyMining) {
  auto config = TinyConfig(1);
  config.policies.push_back("fixed:keepalive=nope");
  auto table = RunLeague(config);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.error().code, ErrorCode::kInvalidArgument);
  EXPECT_NE(table.error().message.find("keepalive=nope"), std::string::npos)
      << table.error().message;
}

TEST(League, BadScenarioSpecFails) {
  auto config = TinyConfig(1);
  config.scenarios = {"made_up_world"};
  auto table = RunLeague(config);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.error().code, ErrorCode::kInvalidArgument);
  EXPECT_NE(table.error().message.find("made_up_world"), std::string::npos);
}

TEST(League, JsonAndCsvRowsAgreeOnCellCount) {
  auto table = RunLeague(TinyConfig(2));
  ASSERT_TRUE(table.ok());
  const auto csv = RenderLeagueCsv(table.value());
  const auto json = LeagueTableJson(table.value());
  std::size_t csv_rows = 0;
  for (const char c : csv) csv_rows += c == '\n' ? 1u : 0u;
  EXPECT_EQ(csv_rows, table.value().cells.size() + 1);  // + header
  for (const auto& cell : table.value().cells) {
    EXPECT_NE(json.find("\"" + cell.policy + "|" + cell.scenario + "\""),
              std::string::npos);
  }
}

/// Two-function policy: invoking function 0 pulls function 1 warm via
/// CollectTriggeredPrewarms (delay 1, keepalive 2); nobody lingers on
/// their own.
class PullPolicy final : public policy::SchedulingPolicy {
 public:
  PullPolicy() : units_(graph::UnitMap::PerFunction(2)) {}

  [[nodiscard]] const graph::UnitMap& unit_map() const noexcept override {
    return units_;
  }
  [[nodiscard]] policy::UnitDecision OnInvocation(UnitId, Minute) override {
    return {.prewarm = 0, .keepalive = 1};
  }
  void ObserveIdleTime(UnitId, MinuteDelta) override {}
  void CollectTriggeredPrewarms(
      UnitId invoked, Minute,
      std::vector<policy::PrewarmRequest>& out) override {
    if (invoked.value() == 0) {
      out.push_back({.unit = UnitId{1}, .delay = 1, .keepalive = 2});
    }
  }
  [[nodiscard]] const char* name() const noexcept override { return "pull"; }

 private:
  graph::UnitMap units_;
};

trace::InvocationTrace TraceOf(
    std::vector<std::pair<std::uint32_t, Minute>> events) {
  trace::InvocationTrace t{2, TimeRange{0, 100}};
  for (const auto& [fn, minute] : events) t.Add(FunctionId{fn}, minute);
  t.Finalize();
  return t;
}

TEST(TriggeredPrewarm, PullsTheTargetWarm) {
  // fn0 fires at 5; fn1 fires at 7 — inside the triggered window
  // [6, 6+2), so fn1's only invocation is warm.
  auto trace = TraceOf({{0, 5}, {1, 7}});
  PullPolicy policy;
  const auto r = sim::Simulate(trace, TimeRange{0, 100}, policy);
  EXPECT_EQ(r.triggered_prewarms, 1u);
  EXPECT_EQ(r.unit_cold_minutes[1], 0u);
  EXPECT_EQ(r.unit_cold_minutes[0], 1u);  // nothing pulls fn0
}

TEST(TriggeredPrewarm, WindowExpires) {
  // fn1 fires at 9 — the triggered window [6, 8) has closed, cold.
  auto trace = TraceOf({{0, 5}, {1, 9}});
  PullPolicy policy;
  const auto r = sim::Simulate(trace, TimeRange{0, 100}, policy);
  EXPECT_EQ(r.triggered_prewarms, 1u);
  EXPECT_EQ(r.unit_cold_minutes[1], 1u);
}

TEST(TriggeredPrewarm, TargetInvokedThisMinuteIsSkipped) {
  // fn0 and fn1 both fire at 5: fn1's own residency decision governs
  // (keepalive 1 → resident [5, 6), evicted before the invocation at
  // 6), and the trigger is not applied or counted.
  auto trace = TraceOf({{0, 5}, {1, 5}, {1, 6}});
  PullPolicy policy;
  const auto r = sim::Simulate(trace, TimeRange{0, 100}, policy);
  EXPECT_EQ(r.triggered_prewarms, 0u);
  EXPECT_EQ(r.unit_cold_minutes[1], 2u);
}

TEST(TriggeredPrewarm, RetriggerExtendsResidency) {
  // fn0 fires at 5 and 6. The first trigger keeps fn1 resident over
  // [6, 8); the second extends the window to [6, 9) without an extra
  // load, so fn1 is warm at 8.
  auto trace = TraceOf({{0, 5}, {0, 6}, {1, 8}});
  PullPolicy policy;
  const auto r = sim::Simulate(trace, TimeRange{0, 100}, policy);
  EXPECT_EQ(r.triggered_prewarms, 2u);
  EXPECT_EQ(r.unit_cold_minutes[1], 0u);
}

}  // namespace
}  // namespace defuse::arena
