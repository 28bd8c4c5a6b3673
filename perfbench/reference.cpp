// Reference computations, written apart from the program, and the
// serial stage-by-stage timing of the mining pipeline.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <deque>

#include "common/rng.hpp"
#include "mining/cooccurrence.hpp"
#include "mining/fpgrowth.hpp"
#include "mining/predictability.hpp"
#include "mining/transactions.hpp"
#include "perfbench.hpp"
#include "platform/platform.hpp"

namespace perfbench {

using defuse::FunctionId;
using defuse::TimeRange;

void Report::Fail(const std::string& what) {
  ++failures_;
  // Only the first few failures are spelled out; the count is the verdict.
  if (failures_ <= 10) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string MetricKey(std::string_view spec) {
  std::string key{spec};
  for (char& c : key) {
    if (c == ':' || c == '=' || c == ',') c = '-';
  }
  return key;
}

std::uint64_t ActiveCells(const defuse::trace::InvocationTrace& trace,
                          TimeRange range) {
  std::uint64_t cells = 0;
  for (std::uint32_t f = 0; f < trace.num_functions(); ++f) {
    defuse::Minute last = -1;
    for (const auto& event : trace.series(FunctionId{f})) {
      if (event.count == 0 || event.minute < range.begin ||
          event.minute >= range.end || event.minute == last) {
        continue;
      }
      last = event.minute;
      ++cells;
    }
  }
  return cells;
}

std::uint64_t KeepAliveColdCells(const defuse::trace::InvocationTrace& trace,
                                 TimeRange range, std::int64_t keepalive) {
  std::uint64_t cold = 0;
  for (std::uint32_t f = 0; f < trace.num_functions(); ++f) {
    defuse::Minute last = -1;
    for (const auto& event : trace.series(FunctionId{f})) {
      if (event.count == 0 || event.minute < range.begin ||
          event.minute >= range.end || event.minute == last) {
        continue;
      }
      if (last < 0 || event.minute - last >= keepalive) ++cold;
      last = event.minute;
    }
  }
  return cold;
}

namespace {

void SortPartition(Partition& partition) {
  for (auto& part : partition) std::sort(part.begin(), part.end());
  std::sort(partition.begin(), partition.end());
}

}  // namespace

Partition CanonicalPartition(
    const std::vector<defuse::graph::DependencySet>& sets) {
  Partition partition;
  partition.reserve(sets.size());
  for (const auto& set : sets) {
    auto& part = partition.emplace_back();
    for (const FunctionId fn : set.functions) part.push_back(fn.value());
  }
  SortPartition(partition);
  return partition;
}

Partition CanonicalPartition(const defuse::graph::UnitMap& units) {
  Partition partition(units.num_units());
  for (std::uint32_t f = 0; f < units.num_functions(); ++f) {
    partition[units.unit_of(FunctionId{f}).value()].push_back(f);
  }
  std::erase_if(partition, [](const auto& part) { return part.empty(); });
  SortPartition(partition);
  return partition;
}

bool PartitionsAll(const Partition& partition, std::size_t num_functions) {
  std::vector<int> seen(num_functions, 0);
  for (const auto& part : partition) {
    if (part.empty()) return false;
    for (const std::uint32_t f : part) {
      if (f >= num_functions || seen[f]++ != 0) return false;
    }
  }
  return std::all_of(seen.begin(), seen.end(), [](int s) { return s == 1; });
}

Partition BfsComponents(const defuse::graph::DependencyGraph& graph) {
  const std::size_t n = graph.num_functions();
  std::vector<std::vector<std::uint32_t>> adjacent(n);
  for (const auto& edge : graph.edges()) {
    adjacent[edge.a.value()].push_back(edge.b.value());
    adjacent[edge.b.value()].push_back(edge.a.value());
  }
  Partition components;
  std::vector<bool> visited(n, false);
  for (std::uint32_t start = 0; start < n; ++start) {
    if (visited[start]) continue;
    auto& component = components.emplace_back();
    std::deque<std::uint32_t> frontier{start};
    visited[start] = true;
    while (!frontier.empty()) {
      const std::uint32_t f = frontier.front();
      frontier.pop_front();
      component.push_back(f);
      for (const std::uint32_t g : adjacent[f]) {
        if (!visited[g]) {
          visited[g] = true;
          frontier.push_back(g);
        }
      }
    }
  }
  SortPartition(components);
  return components;
}

double P75ColdRate(const defuse::platform::Platform& engine) {
  std::vector<double> rates;
  const auto& invocations = engine.function_invocations();
  const auto& cold = engine.function_cold();
  for (std::size_t f = 0; f < invocations.size(); ++f) {
    if (invocations[f] == 0) continue;
    rates.push_back(static_cast<double>(cold[f]) /
                    static_cast<double>(invocations[f]));
  }
  return Percentile(rates, 0.75);
}

namespace {

/// The universe windows MineDependencies mines for `user`: the stream is
/// derived from (mining_seed, user id) alone.
std::vector<defuse::mining::UniverseWindow> UserWindows(
    const defuse::trace::WorkloadModel& model, defuse::UserId user,
    const defuse::core::DefuseConfig& config) {
  std::uint64_t stream =
      config.mining_seed ^
      (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(user.value()) + 1));
  defuse::Rng rng{defuse::SplitMix64(stream)};
  auto windows =
      defuse::mining::SplitUniverse(model.FunctionsOfUser(user),
                                    config.universe_window,
                                    config.universe_stride, rng);
  if (!windows.ok()) return {};
  return std::move(windows).value();
}

std::vector<defuse::mining::Itemset> Sorted(
    std::vector<defuse::mining::Itemset> itemsets) {
  std::sort(itemsets.begin(), itemsets.end(), [](const auto& a, const auto& b) {
    return a.items < b.items;
  });
  return itemsets;
}

// The brute-force miner enumerates every subset of the window's items,
// so only small projections are compared.
constexpr std::size_t kBruteForceMaxItems = 12;
constexpr std::size_t kBruteForceMaxTransactions = 2000;
constexpr std::size_t kBruteForceMaxWindows = 40;

}  // namespace

void CheckMiningOutput(const defuse::trace::InvocationTrace& trace,
                       const defuse::trace::WorkloadModel& model,
                       TimeRange train,
                       const defuse::core::DefuseConfig& config,
                       const defuse::core::MiningOutput& mined,
                       const std::string& label, Report& report) {
  const Partition sets = CanonicalPartition(mined.sets);
  report.Expect(PartitionsAll(sets, model.num_functions()),
                label + ": mined sets do not partition the functions");
  report.Expect(sets == BfsComponents(mined.graph),
                label + ": mined sets differ from the BFS components");

  std::size_t compared = 0;
  for (const auto& user : model.users()) {
    if (compared >= kBruteForceMaxWindows) break;
    const auto transactions = defuse::mining::BuildUserTransactions(
        trace, model, user.id, train, config.MakeTransactionConfig());
    if (transactions.empty()) continue;
    for (const auto& window : UserWindows(model, user.id, config)) {
      const auto projected =
          defuse::mining::ProjectTransactions(transactions, window);
      std::vector<FunctionId> items;
      for (const auto& t : projected) {
        items.insert(items.end(), t.begin(), t.end());
      }
      std::sort(items.begin(), items.end());
      items.erase(std::unique(items.begin(), items.end()), items.end());
      if (projected.empty() || items.size() > kBruteForceMaxItems ||
          projected.size() > kBruteForceMaxTransactions) {
        continue;
      }
      const auto fp = defuse::mining::MineFrequentItemsets(
          projected, config.MakeFpGrowthConfig());
      const auto brute = defuse::mining::MineFrequentItemsetsBruteForce(
          projected, config.MakeFpGrowthConfig());
      report.Expect(Sorted(fp) == Sorted(brute),
                    label + ": FP-Growth differs from brute force for user " +
                        std::to_string(user.id.value()));
      if (++compared >= kBruteForceMaxWindows) break;
    }
  }
  report.Expect(compared > 0,
                label + ": no universe window was small enough to compare");
}

void TimeMiningStages(const defuse::trace::InvocationTrace& trace,
                      const defuse::trace::WorkloadModel& model,
                      TimeRange train,
                      const defuse::core::DefuseConfig& config,
                      const defuse::core::MiningOutput& mined,
                      const std::string& label, Report& report) {
  namespace mining = defuse::mining;
  const auto& users = model.users();

  auto begin = Clock::now();
  const auto predictability = mining::ClassifyFunctions(
      trace, model, train, config.MakePredictabilityConfig());
  const double classify_s = SecondsSince(begin);

  std::vector<std::vector<mining::Transaction>> transactions(users.size());
  begin = Clock::now();
  for (std::size_t u = 0; u < users.size(); ++u) {
    transactions[u] = mining::BuildUserTransactions(
        trace, model, users[u].id, train, config.MakeTransactionConfig());
  }
  const double transactions_s = SecondsSince(begin);

  std::vector<std::vector<mining::UniverseWindow>> windows(users.size());
  begin = Clock::now();
  for (std::size_t u = 0; u < users.size(); ++u) {
    if (!transactions[u].empty()) {
      windows[u] = UserWindows(model, users[u].id, config);
    }
  }
  const double split_s = SecondsSince(begin);

  std::vector<mining::Itemset> itemsets;
  begin = Clock::now();
  for (std::size_t u = 0; u < users.size(); ++u) {
    for (const auto& window : windows[u]) {
      const auto projected =
          mining::ProjectTransactions(transactions[u], window);
      if (projected.empty()) continue;
      auto found =
          mining::MineFrequentItemsets(projected, config.MakeFpGrowthConfig());
      itemsets.insert(itemsets.end(), std::make_move_iterator(found.begin()),
                      std::make_move_iterator(found.end()));
    }
  }
  const double fpgrowth_s = SecondsSince(begin);

  std::vector<mining::WeakDependency> weak;
  begin = Clock::now();
  for (const auto& user : users) {
    auto found = mining::MineWeakDependencies(
        trace, model, user.id, predictability.predictable, train,
        config.MakePpmiConfig());
    weak.insert(weak.end(), found.begin(), found.end());
  }
  const double ppmi_s = SecondsSince(begin);

  begin = Clock::now();
  defuse::graph::DependencyGraph graph{model.num_functions()};
  for (const auto& itemset : itemsets) {
    graph.AddStrongItemset(itemset.items, itemset.support);
  }
  for (const auto& dep : weak) {
    graph.AddWeakDependency(dep.from, dep.to, dep.ppmi);
  }
  graph.Canonicalize();
  const double build_s = SecondsSince(begin);

  begin = Clock::now();
  const auto sets = graph.ConnectedComponents();
  const double components_s = SecondsSince(begin);

  std::size_t num_transactions = 0;
  for (const auto& t : transactions) num_transactions += t.size();

  report.Expect(predictability.predictable == mined.predictability.predictable,
                label + ": stage-wise predictability differs");
  report.Expect(itemsets.size() == mined.num_frequent_itemsets,
                label + ": stage-wise itemset count differs");
  report.Expect(weak.size() == mined.num_weak_dependencies,
                label + ": stage-wise weak dependency count differs");
  report.Expect(CanonicalPartition(sets) == CanonicalPartition(mined.sets),
                label + ": stage-wise dependency sets differ");

  report.Add("mining.classify_s", classify_s, "s");
  report.Add("mining.transactions_s", transactions_s, "s");
  report.Add("mining.split_s", split_s, "s");
  report.Add("mining.fpgrowth_s", fpgrowth_s, "s");
  report.Add("mining.ppmi_s", ppmi_s, "s");
  report.Add("graph.build_s", build_s, "s");
  report.Add("graph.components_s", components_s, "s");
  report.Add("mining.serial_stage_s", split_s + build_s + components_s, "s");
  report.Add("mining.transactions", static_cast<double>(num_transactions),
             "count");
  report.Add("mining.itemsets", static_cast<double>(itemsets.size()), "count");
  report.Add("mining.weak_deps", static_cast<double>(weak.size()), "count");
  report.Add("graph.sets", static_cast<double>(sets.size()), "count");
}

}  // namespace perfbench
