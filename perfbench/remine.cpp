// The `remine` workload: one trace replayed by direct calls into three
// platform::Platforms that differ only in how a day-boundary re-mine
// runs: a serial full rebuild, a full rebuild on min(cores, 4) mining
// threads, and delta mining. One operation is one boundary re-mine,
// timed at the public call that runs it (Platform::AdvanceTo to the
// boundary minute); one round replays the trace through all three.
//
// Traced, the round also reports every boundary's time per mode, the
// time spent inside Invoke, the delta accumulator's books, and the
// serial stage split of mining on the last boundary window.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <thread>

#include "perfbench.hpp"
#include "platform/platform.hpp"
#include "trace/generator.hpp"

namespace perfbench {
namespace {

namespace platform = defuse::platform;
namespace trace = defuse::trace;
using defuse::Minute;
using defuse::TimeRange;

// Workload make-up (see README.md).
constexpr std::uint32_t kUsers = 120;
constexpr std::int64_t kDays = kRemineBoundaries + 1;
constexpr std::size_t kMaxMineThreads = 4;

std::size_t MineThreads() {
  const unsigned cores = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(cores, 1, kMaxMineThreads);
}

std::array<platform::PlatformConfig, 3> MakeConfigs() {
  platform::PlatformConfig base;
  base.horizon = kDays * defuse::kMinutesPerDay;
  base.remine_interval = defuse::kMinutesPerDay;
  std::array<platform::PlatformConfig, 3> configs = {base, base, base};
  configs[1].mining.parallel.num_threads = MineThreads();
  configs[2].mining.delta.enabled = true;
  return configs;
}

using Platforms = std::array<std::unique_ptr<platform::Platform>, 3>;

Platforms MakePlatforms(
    const trace::WorkloadModel& model,
    const std::array<platform::PlatformConfig, 3>& configs) {
  Platforms platforms;
  for (std::size_t m = 0; m < configs.size(); ++m) {
    platforms[m] = std::make_unique<platform::Platform>(model, configs[m]);
  }
  return platforms;
}

struct ModeTimes {
  std::vector<double> remine_s;  // per boundary, day 1 first
  double invoke_s = 0.0;
  double resident_sum = 0.0;     // resident functions summed over minutes
  std::vector<Partition> partitions;  // per boundary
};

/// Replays the trace into `engine`, timing each boundary re-mine and the
/// invokes of every minute.
ModeTimes Replay(platform::Platform& engine, const trace::MinuteIndex& index,
                 TimeRange horizon, Report& report) {
  ModeTimes times;
  for (Minute t = horizon.begin; t < horizon.end; ++t) {
    if (t > 0 && t % defuse::kMinutesPerDay == 0) {
      const auto before = engine.stats();
      const auto begin = Clock::now();
      engine.AdvanceTo(t);
      times.remine_s.push_back(SecondsSince(begin));
      ++report.attempted;
      report.Expect(engine.stats().remines == before.remines + 1,
                    "one re-mine per boundary");
      if (engine.stats().degraded_remines != before.degraded_remines) {
        ++report.failed;
      }
      times.partitions.push_back(CanonicalPartition(engine.units()));
    }
    const auto begin = Clock::now();
    for (const auto& [fn, count] : index.at(t)) {
      (void)count;
      (void)engine.Invoke(fn, t);
    }
    times.invoke_s += SecondsSince(begin);
    times.resident_sum += static_cast<double>(engine.ResidentFunctions(t));
  }
  return times;
}

}  // namespace

void RunRemineWorkload(const Options& options, Report& report) {
  trace::GeneratorConfig generator;
  generator.seed = options.seed;
  generator.num_users = kUsers;
  generator.horizon_minutes = kDays * defuse::kMinutesPerDay;

  auto begin = Clock::now();
  const auto workload = trace::GenerateWorkload(generator);
  report.Set("trace.generate_s", SecondsSince(begin), "s");
  const TimeRange horizon = workload.trace.horizon();
  const auto index = workload.trace.BuildMinuteIndex(horizon);
  const auto configs = MakeConfigs();
  Platforms platforms = MakePlatforms(workload.model, configs);
  report.Set("setup_s", SecondsSince(options.process_start), "s");

  const std::size_t num_functions = workload.model.num_functions();
  const std::size_t boundaries = static_cast<std::size_t>(kDays - 1);
  std::vector<double> round_s;
  std::array<std::vector<double>, 3> remine_sum{};  // per mode, per boundary
  std::array<double, 3> invoke_sum{};
  std::uint64_t delta_mines = 0;
  std::uint64_t full_rebuilds = 0;
  double cold_rate = 0.0;
  double avg_memory = 0.0;
  for (auto& sums : remine_sum) sums.assign(boundaries, 0.0);

  const auto measure_begin = Clock::now();
  while (true) {
    std::array<ModeTimes, 3> times;
    double wall = 0.0;
    for (std::size_t m = 0; m < kRemineModes.size(); ++m) {
      times[m] = Replay(*platforms[m], index, horizon, report);
      invoke_sum[m] += times[m].invoke_s;
      wall += times[m].invoke_s;
      for (std::size_t b = 0; b < times[m].remine_s.size(); ++b) {
        remine_sum[m][b] += times[m].remine_s[b];
        wall += times[m].remine_s[b];
      }
    }
    round_s.push_back(wall);
    std::fprintf(stderr, "# round %zu: %.4f s\n", round_s.size(), wall);

    // Every boundary: identical partitions of all functions.
    for (std::size_t m = 0; m < kRemineModes.size(); ++m) {
      const std::string mode = kRemineModes[m];
      if (!report.Expect(times[m].partitions.size() == boundaries,
                         mode + ": a re-mine per boundary")) {
        return;
      }
      for (std::size_t b = 0; b < boundaries; ++b) {
        const std::string day = " at day " + std::to_string(b + 1);
        report.Expect(PartitionsAll(times[m].partitions[b], num_functions),
                      mode + ": units do not partition the functions" + day);
        report.Expect(times[m].partitions[b] == times[0].partitions[b],
                      mode + ": units differ from the serial full rebuild" +
                          day);
      }
    }
    if (const auto* acc = platforms[2]->delta_accumulator()) {
      delta_mines = acc->books().delta_mines;
      full_rebuilds = acc->books().full_rebuilds;
    }
    cold_rate = P75ColdRate(*platforms[0]);
    avg_memory = times[0].resident_sum / static_cast<double>(horizon.length());

    if (SecondsSince(measure_begin) >= options.seconds) break;
    for (auto& engine : platforms) engine.reset();
    platforms = MakePlatforms(workload.model, configs);
  }
  const double rounds = static_cast<double>(round_s.size());

  // The last boundary's mining pass, recomputed from the trace, must give
  // the units the platforms adopted there.
  const Minute last = static_cast<Minute>(boundaries) * defuse::kMinutesPerDay;
  const TimeRange window{std::max<Minute>(0, last - configs[0].mining_window),
                         last};
  begin = Clock::now();
  auto mined = defuse::core::MineDependencies(workload.trace, workload.model,
                                              window, configs[0].mining);
  const double mine_s = SecondsSince(begin);
  if (report.Expect(mined.ok(), "last-window mining succeeds")) {
    report.Expect(CanonicalPartition(mined.value().sets) ==
                      CanonicalPartition(platforms[0]->units()),
                  "platform units equal MineDependencies on the last window");
    CheckMiningOutput(workload.trace, workload.model, window,
                      configs[0].mining, mined.value(), "remine", report);
    if (options.trace) {
      report.Set("mining.mine_s", mine_s, "s");
      TimeMiningStages(workload.trace, workload.model, window,
                       configs[0].mining, mined.value(), "remine", report);
    }
  }

  const double input_cells =
      static_cast<double>(ActiveCells(workload.trace, horizon));
  report.Set("cell_ns", Percentile(round_s, 0.5) / input_cells * 1e9, "ns");
  report.Set("cold_rate", cold_rate, "ratio");
  report.Set("memory_share", avg_memory / static_cast<double>(num_functions),
             "ratio");

  for (std::size_t m = 0; m < kRemineModes.size(); ++m) {
    const std::string mode = kRemineModes[m];
    double total = 0.0;
    for (std::size_t b = 0; b < boundaries; ++b) {
      report.Set("platform.remine_ms." + mode + "." + std::to_string(b + 1),
                 remine_sum[m][b] / rounds * 1e3, "ms");
      total += remine_sum[m][b];
    }
    report.Set("platform.remine_s." + mode, total / rounds, "s");
  }
  report.Set("platform.invoke_s.full", invoke_sum[0] / rounds, "s");
  report.Set("platform.invoke_s.delta", invoke_sum[2] / rounds, "s");
  double delta_remine = 0.0;
  for (const double s : remine_sum[2]) delta_remine += s;
  report.Set("platform.replay_s.delta", (invoke_sum[2] + delta_remine) / rounds,
             "s");
  report.Set("delta.delta_mines", static_cast<double>(delta_mines), "count");
  report.Set("delta.full_rebuilds", static_cast<double>(full_rebuilds),
             "count");
  for (std::size_t b = 0; b < boundaries; ++b) {
    const Minute at = static_cast<Minute>(b + 1) * defuse::kMinutesPerDay;
    const TimeRange w{std::max<Minute>(0, at - configs[0].mining_window), at};
    report.Set("mining.window_events." + std::to_string(b + 1),
               static_cast<double>(ActiveCells(workload.trace, w)), "count");
  }
}

}  // namespace perfbench
