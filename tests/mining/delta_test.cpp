// The streaming-accumulator contract (mining/delta.hpp): every layer —
// the CanTree transaction store, the co-occurrence counters, the event
// store — must be EXACT, so a delta mine is bit-identical to a full
// pipeline pass over the same window. These tests pin that equivalence
// at the mining layer; the platform-level differential suite
// (tests/platform/delta_platform_test.cpp) pins it end to end.
#include "mining/delta.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/defuse.hpp"
#include "graph/serialization.hpp"
#include "mining/cooccurrence.hpp"
#include "mining/transactions.hpp"

namespace defuse::mining {
namespace {

/// Two users: u0 owns {f0, f1, f2} (co-firing pairs for strong/weak
/// signal), u1 owns {g0, g1}.
struct Fixture {
  trace::WorkloadModel model;
  FunctionId f0, f1, f2, g0, g1;
  Fixture() {
    const UserId u0 = model.AddUser("u0");
    const AppId a0 = model.AddApp(u0, "a0");
    f0 = model.AddFunction(a0, "f0");
    f1 = model.AddFunction(a0, "f1");
    const AppId a1 = model.AddApp(u0, "a1");
    f2 = model.AddFunction(a1, "f2");
    const UserId u1 = model.AddUser("u1");
    const AppId b0 = model.AddApp(u1, "b0");
    g0 = model.AddFunction(b0, "g0");
    g1 = model.AddFunction(b0, "g1");
  }
};

constexpr Minute kHorizon = 600;

/// Feeds the same deterministic workload to the accumulator and to a
/// plain trace, minute by minute (Ingest requires monotonic minutes).
void Drive(const Fixture& fx, DeltaAccumulator& acc,
           trace::InvocationTrace& trace, Minute begin, Minute end) {
  const auto emit = [&](FunctionId fn, Minute t, std::uint32_t c) {
    acc.Ingest(fn, t, c);
    trace.Add(fn, t, c);
  };
  for (Minute t = begin; t < end; ++t) {
    if (t % 2 == 0) emit(fx.f0, t, 1);
    if (t % 4 == 0) emit(fx.f1, t, 2);  // always co-fires with f0
    if (t % 7 == 0) emit(fx.f2, t, 1);
    if (t % 3 == 0) emit(fx.g0, t, 1);
    if (t % 6 == 0) emit(fx.g1, t, 3);  // always co-fires with g0
  }
}

std::vector<Transaction> Sorted(std::vector<Transaction> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::string SetsCsv(const core::MiningOutput& mined,
                    const trace::WorkloadModel& model) {
  return graph::WriteDependencySetsCsvChecksummed(mined.sets, model);
}

TEST(CanTree, ExportIsMultisetEqualToInsertHistory) {
  CanTree tree;
  const Transaction ab{FunctionId{1}, FunctionId{2}};
  const Transaction abc{FunctionId{1}, FunctionId{2}, FunctionId{3}};
  const Transaction cd{FunctionId{3}, FunctionId{4}};
  tree.Insert(abc);
  tree.Insert(ab, 2);
  tree.Insert(cd);
  tree.Insert(abc);  // multiplicity via repeated insert too
  EXPECT_EQ(tree.size(), 5u);

  std::vector<Transaction> out;
  tree.Export(out);
  EXPECT_EQ(Sorted(out), Sorted({abc, ab, ab, cd, abc}));
  // Export is deterministic lexicographic order, not just multiset-equal.
  EXPECT_EQ(out, Sorted(out));
}

TEST(CanTree, ShapeIsIndependentOfInsertionOrder) {
  const std::vector<Transaction> ts{
      {FunctionId{1}, FunctionId{2}},
      {FunctionId{1}, FunctionId{2}, FunctionId{3}},
      {FunctionId{2}, FunctionId{3}},
      {FunctionId{1}, FunctionId{3}},
  };
  CanTree forward, backward;
  for (const auto& t : ts) forward.Insert(t);
  for (auto it = ts.rbegin(); it != ts.rend(); ++it) backward.Insert(*it);
  std::vector<Transaction> a, b;
  forward.Export(a);
  backward.Export(b);
  EXPECT_EQ(a, b);
}

TEST(CanTree, RemoveIsAnExactInverse) {
  CanTree tree;
  const Transaction ab{FunctionId{1}, FunctionId{2}};
  const Transaction abc{FunctionId{1}, FunctionId{2}, FunctionId{3}};
  tree.Insert(ab, 3);
  tree.Insert(abc);
  ASSERT_TRUE(tree.Remove(ab, 2));
  EXPECT_EQ(tree.size(), 2u);
  std::vector<Transaction> out;
  tree.Export(out);
  EXPECT_EQ(Sorted(out), Sorted({ab, abc}));

  // Removing more copies than stored — or a transaction never inserted —
  // fails and changes nothing.
  EXPECT_FALSE(tree.Remove(ab, 2));
  EXPECT_FALSE(tree.Remove(Transaction{FunctionId{9}}));
  EXPECT_FALSE(tree.Remove(Transaction{FunctionId{1}}));  // prefix only
  out.clear();
  tree.Export(out);
  EXPECT_EQ(Sorted(out), Sorted({ab, abc}));

  ASSERT_TRUE(tree.Remove(ab));
  ASSERT_TRUE(tree.Remove(abc));
  EXPECT_EQ(tree.size(), 0u);
  out.clear();
  tree.Export(out);
  EXPECT_TRUE(out.empty());
}

TEST(DeltaAccumulator, TransactionsMatchBuildUserTransactions) {
  Fixture fx;
  DeltaAccumulator acc{fx.model, DeltaMineConfig{true, 8}, 1};
  trace::InvocationTrace trace{fx.model.num_functions(),
                               TimeRange{0, kHorizon}};
  Drive(fx, acc, trace, 0, 200);
  trace.Finalize();

  const TimeRange window{0, 200};
  acc.SealTo(window.end);
  acc.EvictTo(window.begin);
  const DeltaMiningInput input = acc.BuildInput(window);
  ASSERT_TRUE(input.has_transactions);
  ASSERT_EQ(input.transactions.size(), fx.model.num_users());
  for (std::size_t u = 0; u < fx.model.num_users(); ++u) {
    const auto direct = BuildUserTransactions(
        trace, fx.model, UserId{static_cast<std::uint32_t>(u)}, window);
    EXPECT_EQ(Sorted(input.transactions[u]), Sorted(direct)) << "user " << u;
  }
}

TEST(DeltaAccumulator, CooccurrenceCountsMatchAccumulate) {
  Fixture fx;
  DeltaAccumulator acc{fx.model, DeltaMineConfig{true, 8}, 1};
  trace::InvocationTrace trace{fx.model.num_functions(),
                               TimeRange{0, kHorizon}};
  Drive(fx, acc, trace, 0, 300);
  trace.Finalize();

  const TimeRange window{0, 300};
  acc.SealTo(window.end);
  const DeltaMiningInput input = acc.BuildInput(window);
  ASSERT_TRUE(input.has_cooc);
  EXPECT_EQ(input.total_windows, static_cast<std::uint64_t>(window.length()));

  // An arbitrary row/column split of u0's functions: the loaded matrix
  // must reproduce Accumulate's integers exactly, hence Ppmi (a pure
  // function of those integers) bit-for-bit.
  CooccurrenceMatrix scanned{{fx.f1, fx.f2}, {fx.f0}};
  scanned.Accumulate(trace, window, 1);
  CooccurrenceMatrix loaded{{fx.f1, fx.f2}, {fx.f0}};
  loaded.LoadAccumulated(input.cooc[0].active, input.cooc[0].pairs,
                         input.total_windows);
  ASSERT_EQ(loaded.num_rows(), scanned.num_rows());
  ASSERT_EQ(loaded.num_cols(), scanned.num_cols());
  EXPECT_EQ(loaded.total_windows(), scanned.total_windows());
  for (std::size_t r = 0; r < scanned.num_rows(); ++r) {
    EXPECT_EQ(loaded.row_total(r), scanned.row_total(r)) << "row " << r;
    for (std::size_t c = 0; c < scanned.num_cols(); ++c) {
      EXPECT_EQ(loaded.at(r, c), scanned.at(r, c)) << r << "," << c;
      EXPECT_EQ(loaded.Ppmi(r, c), scanned.Ppmi(r, c)) << r << "," << c;
    }
  }
  for (std::size_t c = 0; c < scanned.num_cols(); ++c) {
    EXPECT_EQ(loaded.col_total(c), scanned.col_total(c)) << "col " << c;
  }
}

TEST(DeltaAccumulator, SlidingWindowsWithEvictionStayExact) {
  Fixture fx;
  DeltaAccumulator acc{fx.model, DeltaMineConfig{true, 8}, 1};
  trace::InvocationTrace trace{fx.model.num_functions(),
                               TimeRange{0, kHorizon}};
  // Three overlapping mine windows over a growing stream; between each,
  // only the new events are ingested and the slid-past prefix evicted.
  const std::vector<TimeRange> windows{{0, 100}, {50, 150}, {100, 250}};
  Minute fed = 0;
  for (const TimeRange window : windows) {
    Drive(fx, acc, trace, fed, window.end);
    fed = window.end;
    trace.Finalize();
    acc.SealTo(window.end);
    acc.EvictTo(window.begin);
    const DeltaMiningInput input = acc.BuildInput(window);
    ASSERT_TRUE(input.has_transactions);
    for (std::size_t u = 0; u < fx.model.num_users(); ++u) {
      const auto direct = BuildUserTransactions(
          trace, fx.model, UserId{static_cast<std::uint32_t>(u)}, window);
      EXPECT_EQ(Sorted(input.transactions[u]), Sorted(direct))
          << "window [" << window.begin << "," << window.end << ") user "
          << u;
    }
    // The materialized window is exactly the full trace restricted to it.
    const auto mat = acc.MaterializeWindow(window, TimeRange{0, kHorizon});
    for (std::size_t f = 0; f < fx.model.num_functions(); ++f) {
      const FunctionId fn{static_cast<std::uint32_t>(f)};
      const auto want = trace.SeriesInRange(fn, window);
      const auto got = mat.SeriesInRange(fn, window);
      ASSERT_EQ(got.size(), want.size()) << "fn " << f;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].minute, want[i].minute);
        EXPECT_EQ(got[i].count, want[i].count);
      }
    }
    acc.Commit(window.end, /*anchored=*/false);
  }
  EXPECT_EQ(acc.books().delta_mines, windows.size());
}

TEST(DeltaAccumulator, MineDependenciesFromDeltaInputIsBitIdentical) {
  Fixture fx;
  DeltaAccumulator acc{fx.model, DeltaMineConfig{true, 8}, 1};
  trace::InvocationTrace trace{fx.model.num_functions(),
                               TimeRange{0, kHorizon}};
  Drive(fx, acc, trace, 0, 400);
  trace.Finalize();

  const TimeRange window{0, 400};
  acc.SealTo(window.end);
  const DeltaMiningInput input = acc.BuildInput(window);
  const auto mat = acc.MaterializeWindow(window, TimeRange{0, kHorizon});

  core::DefuseConfig cfg;
  const auto from_input =
      core::MineDependencies(mat, fx.model, window, cfg, &input);
  const auto from_scan =
      core::MineDependencies(mat, fx.model, window, cfg, nullptr);
  ASSERT_TRUE(from_input.ok());
  ASSERT_TRUE(from_scan.ok());
  EXPECT_EQ(SetsCsv(from_input.value(), fx.model),
            SetsCsv(from_scan.value(), fx.model));
  EXPECT_EQ(from_input.value().num_frequent_itemsets,
            from_scan.value().num_frequent_itemsets);
  EXPECT_EQ(from_input.value().num_weak_dependencies,
            from_scan.value().num_weak_dependencies);
  EXPECT_GT(from_input.value().sets.size(), 0u);
}

TEST(DeltaAccumulator, NonUnitWindowMinutesFallsBackToTraceScan) {
  Fixture fx;
  DeltaAccumulator acc{fx.model, DeltaMineConfig{true, 8}, 2};
  trace::InvocationTrace trace{fx.model.num_functions(),
                               TimeRange{0, kHorizon}};
  Drive(fx, acc, trace, 0, 100);
  const TimeRange window{0, 100};
  acc.SealTo(window.end);
  const DeltaMiningInput input = acc.BuildInput(window);
  // The fast-path flags stay off — callers mine the materialized window
  // through the standard pipeline, which is exact at any granularity.
  EXPECT_FALSE(input.has_transactions);
  EXPECT_FALSE(input.has_cooc);
  trace.Finalize();
  const auto mat = acc.MaterializeWindow(window, TimeRange{0, kHorizon});
  EXPECT_EQ(mat.SeriesInRange(fx.f0, window).size(),
            trace.SeriesInRange(fx.f0, window).size());
}

TEST(DeltaAccumulator, FullRebuildCadenceAndBooks) {
  Fixture fx;
  DeltaAccumulator acc{fx.model, DeltaMineConfig{true, 3}, 1};
  // full_rebuild_every = 3: two delta commits, then the third is due as
  // an anchor; an anchored commit resets the cadence.
  EXPECT_FALSE(acc.FullRebuildDue());
  acc.Commit(10, /*anchored=*/false);
  EXPECT_FALSE(acc.FullRebuildDue());
  acc.Commit(20, /*anchored=*/false);
  EXPECT_TRUE(acc.FullRebuildDue());
  acc.Commit(30, /*anchored=*/true);
  EXPECT_FALSE(acc.FullRebuildDue());
  EXPECT_EQ(acc.books().delta_mines, 2u);
  EXPECT_EQ(acc.books().full_rebuilds, 1u);
  EXPECT_EQ(acc.last_good(), 30);

  // Abandon books the rollback and leaves the boundary untouched.
  acc.Abandon();
  EXPECT_EQ(acc.books().aborted_deltas, 1u);
  EXPECT_EQ(acc.last_good(), 30);

  // every = 1 anchors every mine; 0 never does.
  DeltaAccumulator always{fx.model, DeltaMineConfig{true, 1}, 1};
  EXPECT_TRUE(always.FullRebuildDue());
  DeltaAccumulator never{fx.model, DeltaMineConfig{true, 0}, 1};
  EXPECT_FALSE(never.FullRebuildDue());
  never.Commit(10, /*anchored=*/false);
  EXPECT_FALSE(never.FullRebuildDue());
}

TEST(DeltaAccumulator, SerializeRoundTripsByteForByte) {
  Fixture fx;
  DeltaAccumulator acc{fx.model, DeltaMineConfig{true, 8}, 1};
  trace::InvocationTrace trace{fx.model.num_functions(),
                               TimeRange{0, kHorizon}};
  Drive(fx, acc, trace, 0, 150);
  acc.SealTo(100);
  acc.EvictTo(30);
  acc.Commit(100, /*anchored=*/false);
  const std::string saved = acc.Serialize();

  DeltaAccumulator restored{fx.model, DeltaMineConfig{true, 8}, 1};
  ASSERT_TRUE(restored.Deserialize(saved));
  EXPECT_EQ(restored.Serialize(), saved);
  EXPECT_EQ(restored.store_begin(), acc.store_begin());
  EXPECT_EQ(restored.sealed_end(), acc.sealed_end());
  EXPECT_EQ(restored.last_good(), acc.last_good());
  EXPECT_EQ(restored.stored_events(), acc.stored_events());

  // The derived accumulators re-derive exactly: the next window's input
  // is identical on both sides.
  const TimeRange window{30, 150};
  acc.SealTo(window.end);
  restored.SealTo(window.end);
  const auto a = acc.BuildInput(window);
  const auto b = restored.BuildInput(window);
  ASSERT_TRUE(a.has_transactions && b.has_transactions);
  EXPECT_EQ(a.transactions, b.transactions);
  for (std::size_t u = 0; u < fx.model.num_users(); ++u) {
    EXPECT_EQ(a.cooc[u].active, b.cooc[u].active) << "user " << u;
    EXPECT_EQ(a.cooc[u].pairs, b.cooc[u].pairs) << "user " << u;
  }
}

TEST(DeltaAccumulator, DeserializeRejectsMinutePastTheEventRange) {
  Fixture fx;
  DeltaAccumulator acc{fx.model, DeltaMineConfig{true, 8}, 1};
  // The last minute an 8-byte event holds loads; one past it (2^31) is
  // corrupt, never truncated.
  ASSERT_TRUE(acc.Deserialize(
      "delta-accumulator-v1\nmeta,0,0,-1,0,1\nrun,0,2147483647:1\nend\n"));
  const std::string before = acc.Serialize();
  EXPECT_FALSE(acc.Deserialize(
      "delta-accumulator-v1\nmeta,0,0,-1,0,1\nrun,0,2147483648:1\nend\n"));
  EXPECT_EQ(acc.Serialize(), before);
}

TEST(DeltaAccumulator, DeserializeRejectsMalformedInputUnchanged) {
  Fixture fx;
  DeltaAccumulator donor{fx.model, DeltaMineConfig{true, 8}, 1};
  trace::InvocationTrace trace{fx.model.num_functions(),
                               TimeRange{0, kHorizon}};
  Drive(fx, donor, trace, 0, 80);
  donor.SealTo(80);
  donor.Commit(80, /*anchored=*/false);
  const std::string good = donor.Serialize();
  ASSERT_NE(good.find("end\n"), std::string::npos);

  struct Case {
    const char* name;
    std::string text;
  };
  const std::vector<Case> cases{
      {"empty", ""},
      {"wrong header", "delta-accumulator-v9\nmeta,0,0,-1,0,1\nend\n"},
      {"missing end sentinel",
       good.substr(0, good.size() - std::string{"end\n"}.size())},
      {"trailing junk after end", good + "run,0,9:9\n"},
      {"window-minutes mismatch",
       "delta-accumulator-v1\nmeta,0,0,-1,0,2\nend\n"},
      {"sealed before begin", "delta-accumulator-v1\nmeta,10,5,-1,0,1\nend\n"},
      {"negative store begin",
       "delta-accumulator-v1\nmeta,-3,0,-1,0,1\nend\n"},
      {"function out of range",
       "delta-accumulator-v1\nmeta,0,0,-1,0,1\nrun,99,5:1\nend\n"},
      {"duplicate function run",
       "delta-accumulator-v1\nmeta,0,0,-1,0,1\nrun,0,5:1\nrun,0,7:1\nend\n"},
      {"non-ascending minutes",
       "delta-accumulator-v1\nmeta,0,0,-1,0,1\nrun,0,7:1,5:1\nend\n"},
      {"zero count", "delta-accumulator-v1\nmeta,0,0,-1,0,1\nrun,0,5:0\nend\n"},
      {"count overflows uint32",
       "delta-accumulator-v1\nmeta,0,0,-1,0,1\nrun,0,5:4294967296\nend\n"},
      {"minute below store begin",
       "delta-accumulator-v1\nmeta,10,10,-1,0,1\nrun,0,5:1\nend\n"},
      {"garbage meta", "delta-accumulator-v1\nmeta,x,y,z,w,v\nend\n"},
  };
  for (const auto& c : cases) {
    DeltaAccumulator victim{fx.model, DeltaMineConfig{true, 8}, 1};
    ASSERT_TRUE(victim.Deserialize(good)) << c.name;
    const std::string before = victim.Serialize();
    EXPECT_FALSE(victim.Deserialize(c.text)) << c.name;
    EXPECT_EQ(victim.Serialize(), before) << c.name;
  }

  // Torn writes: every prefix of a valid snapshot must be rejected (the
  // "end" sentinel is the last line, so no proper prefix parses).
  for (const std::size_t cut :
       {std::size_t{1}, good.size() / 4, good.size() / 2,
        good.size() - 2, good.size() - 1}) {
    DeltaAccumulator victim{fx.model, DeltaMineConfig{true, 8}, 1};
    EXPECT_FALSE(victim.Deserialize(good.substr(0, cut))) << "cut " << cut;
  }
}

TEST(DeltaAccumulator, RebuildFromTraceMatchesStreamedState) {
  Fixture fx;
  DeltaAccumulator streamed{fx.model, DeltaMineConfig{true, 8}, 1};
  trace::InvocationTrace trace{fx.model.num_functions(),
                               TimeRange{0, kHorizon}};
  Drive(fx, streamed, trace, 0, 200);
  trace.Finalize();
  streamed.SealTo(200);
  streamed.EvictTo(60);

  DeltaAccumulator rebuilt{fx.model, DeltaMineConfig{true, 8}, 1};
  rebuilt.RebuildFromTrace(trace, 60);
  rebuilt.SealTo(200);

  const TimeRange window{60, 200};
  const auto a = streamed.BuildInput(window);
  const auto b = rebuilt.BuildInput(window);
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(streamed.Serialize(), rebuilt.Serialize());
}

}  // namespace
}  // namespace defuse::mining
