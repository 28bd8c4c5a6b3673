// The policy×scenario league: every policy spec simulated against every
// scenario spec, one metrics row per cell.
//
// A league run is deterministic end to end: scenarios are pure
// functions of (spec, seed), mining is deterministic, registry
// factories are deterministic, and the simulator is deterministic —
// the arena test suite pins reruns bit-identical for seeds 0–9, and
// the rendered table byte-identical across worker thread counts.
//
// Per-cell metrics (the league table columns):
//   * event_cold_fraction   — cold invocation events / all events;
//   * p75_cold_rate         — 75th percentile of per-function cold-start
//     rates (the paper's Fig 7 headline statistic);
//   * avg_memory            — mean resident functions (memory proxy);
//   * wasted_memory_minutes — resident function-minutes in excess of
//     invoked function-minutes: what keep-alive paid for nothing;
//   * p99_cold_latency_ms   — 99th-percentile latency under the
//     two-point warm/cold latency model (cold latency proxy);
//   * avg_loads_per_minute  — scheduler overhead (Fig 9 proxy).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "arena/registry.hpp"
#include "arena/scenarios.hpp"
#include "common/result.hpp"
#include "core/defuse.hpp"
#include "sim/simulator.hpp"

namespace defuse::arena {

struct LeagueConfig {
  /// Policy specs (e.g. "hybrid:set", "spes:tier=cost").
  std::vector<std::string> policies;
  /// Scenario specs (e.g. "azure_like", "huawei_bursty:users=100").
  std::vector<std::string> scenarios;
  std::uint64_t seed = 42;
  /// Scale overrides applied to every scenario (0 = leave the scenario's
  /// own scale; spec-level users=/days= take precedence over these).
  std::uint32_t num_users = 0;
  MinuteDelta horizon_minutes = 0;
  /// Mining configuration shared by every dependency-guided policy.
  /// Mining runs on the league's pool, so `mining.parallel.num_threads`
  /// must stay 0; RunLeague rejects any other value.
  core::DefuseConfig mining;
  sim::SimulatorOptions sim_options;
  /// Worker threads for each scenario row's mining pass and policy
  /// cells. 0 = ThreadPool::DefaultThreads() (all cores), 1 = inline
  /// serial with no pool; above kMaxLeagueThreads is rejected. Every
  /// accepted value yields the same table.
  std::size_t num_threads = 0;
};

/// Upper bound on LeagueConfig::num_threads. A row runs one cell per
/// policy at a time, so a larger pool could only idle.
inline constexpr std::size_t kMaxLeagueThreads = 256;

struct LeagueCell {
  std::string policy;    // the spec string
  std::string scenario;  // the spec string
  std::string policy_name;  // SchedulingPolicy::name()
  std::size_t num_units = 0;
  std::uint64_t invocation_minutes = 0;
  double event_cold_fraction = 0.0;
  double p75_cold_rate = 0.0;
  double avg_memory = 0.0;
  double wasted_memory_minutes = 0.0;
  double p99_cold_latency_ms = 0.0;
  double avg_loads_per_minute = 0.0;
  std::uint64_t triggered_prewarms = 0;
};

struct LeagueTable {
  /// Scenario-major, policy-minor — the cross-product order of the
  /// config's spec lists.
  std::vector<LeagueCell> cells;
};

/// Runs the full cross product. All specs are validated up front, so a
/// typo fails fast instead of after the first scenario's mining run.
/// kInvalidArgument names the offending spec token, or the thread
/// setting out of range (see LeagueConfig::num_threads). Scenarios run one
/// after another; a scenario's policy cells run concurrently. A failing
/// cell or mining pass returns the first error in scenario-major,
/// policy-minor order — the one a serial loop would stop at.
[[nodiscard]] Result<LeagueTable> RunLeague(const LeagueConfig& config);

/// CSV rendering (header + one row per cell), for the CLI `arena` verb.
[[nodiscard]] std::string RenderLeagueCsv(const LeagueTable& table);

/// Flat JSON object keyed "policy|scenario", one metrics object per
/// cell — the shape bench::MergeJsonSection expects for a section.
[[nodiscard]] std::string LeagueTableJson(const LeagueTable& table);

}  // namespace defuse::arena
