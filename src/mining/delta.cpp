#include "mining/delta.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <limits>

namespace defuse::mining {
namespace {

constexpr std::string_view kSnapshotHeader = "delta-accumulator-v1";

/// Appends "<n>" to out.
void AppendInt(std::string& out, std::int64_t n) {
  char buf[24];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, n);
  assert(ec == std::errc{});
  out.append(buf, static_cast<std::size_t>(ptr - buf));
}

/// Parses one integer field, advancing `text` past it and the following
/// delimiter. Returns false on malformed input.
bool ParseInt(std::string_view& text, char delim, std::int64_t& out) {
  const std::size_t stop = text.find(delim);
  if (stop == std::string_view::npos) return false;
  const std::string_view field = text.substr(0, stop);
  auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), out);
  if (ec != std::errc{} || ptr != field.data() + field.size()) return false;
  text.remove_prefix(stop + 1);
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// CanTree

void CanTree::Insert(const Transaction& t, std::uint32_t count) {
  assert(std::is_sorted(t.begin(), t.end()));
  std::uint32_t node = 0;
  for (const FunctionId item : t) {
    auto [it, inserted] =
        nodes_[node].children.try_emplace(item.value(), std::uint32_t{0});
    if (inserted) {
      it->second = static_cast<std::uint32_t>(nodes_.size());
      // nodes_ may reallocate here; `it` stays valid (map iterator), but
      // re-read through it after the push_back.
      nodes_.emplace_back();
    }
    node = it->second;
  }
  nodes_[node].terminal += count;
  size_ += count;
}

bool CanTree::Remove(const Transaction& t, std::uint32_t count) {
  std::uint32_t node = 0;
  for (const FunctionId item : t) {
    const auto it = nodes_[node].children.find(item.value());
    if (it == nodes_[node].children.end()) return false;
    node = it->second;
  }
  if (nodes_[node].terminal < count) return false;
  // Empty sub-paths are left in place (Export skips terminal == 0); the
  // periodic full-rebuild anchor reclaims them.
  nodes_[node].terminal -= count;
  size_ -= count;
  return true;
}

void CanTree::Export(std::vector<Transaction>& out) const {
  Transaction prefix;
  ExportFrom(0, prefix, out);
}

void CanTree::ExportFrom(std::uint32_t node, Transaction& prefix,
                         std::vector<Transaction>& out) const {
  const Node& n = nodes_[node];
  for (std::uint32_t i = 0; i < n.terminal; ++i) out.push_back(prefix);
  for (const auto& [item, child] : n.children) {
    prefix.push_back(FunctionId{item});
    ExportFrom(child, prefix, out);
    prefix.pop_back();
  }
}

void CanTree::Clear() {
  nodes_.assign(1, Node{});
  size_ = 0;
}

// ---------------------------------------------------------------------------
// DeltaAccumulator

DeltaAccumulator::DeltaAccumulator(const trace::WorkloadModel& model,
                                   DeltaMineConfig config,
                                   MinuteDelta window_minutes)
    : model_(&model),
      config_(config),
      window_minutes_(window_minutes),
      runs_(model.num_functions()),
      users_(model.num_users()) {
  assert(window_minutes_ >= 1);
}

void DeltaAccumulator::Ingest(FunctionId fn, Minute minute,
                              std::uint32_t count) {
  assert(fn.value() < runs_.size());
  assert(minute >= ingest_watermark_ && "delta ingest must be monotonic");
  assert(minute >= sealed_end_ && "cannot ingest into a sealed minute");
  assert(trace::FitsEventMinute(minute));
  ingest_watermark_ = minute;
  auto& run = runs_[fn.value()];
  if (!run.empty() && run.back().minute == minute) {
    run.back().count += count;
  } else {
    run.push_back({static_cast<std::int32_t>(minute), count});
  }
}

void DeltaAccumulator::SealTo(Minute end) {
  if (end <= sealed_end_) return;
  if (window_minutes_ == 1) ApplySpan({sealed_end_, end}, +1);
  sealed_end_ = end;
}

void DeltaAccumulator::EvictTo(Minute begin) {
  if (begin <= store_begin_) return;
  assert(begin <= sealed_end_ && "cannot evict unsealed minutes");
  if (window_minutes_ == 1) ApplySpan({store_begin_, begin}, -1);
  for (auto& run : runs_) {
    const auto keep = std::lower_bound(
        run.begin(), run.end(), begin,
        [](const trace::InvocationEvent& e, Minute m) { return e.minute < m; });
    run.erase(run.begin(), keep);
  }
  store_begin_ = begin;
}

trace::InvocationTrace DeltaAccumulator::MaterializeWindow(
    TimeRange window, TimeRange horizon) const {
  trace::InvocationTrace out(runs_.size(), horizon);
  for (std::size_t fn = 0; fn < runs_.size(); ++fn) {
    const auto& run = runs_[fn];
    auto it = std::lower_bound(
        run.begin(), run.end(), window.begin,
        [](const trace::InvocationEvent& e, Minute m) { return e.minute < m; });
    for (; it != run.end() && it->minute < window.end; ++it) {
      out.Add(FunctionId{static_cast<std::uint32_t>(fn)}, it->minute,
              it->count);
    }
  }
  out.Finalize();
  return out;
}

DeltaMiningInput DeltaAccumulator::BuildInput(TimeRange window) const {
  DeltaMiningInput input;
  if (window_minutes_ != 1) return input;
  assert(store_begin_ == window.begin && sealed_end_ == window.end &&
         "accumulators must cover exactly the mining window");
  input.transactions.resize(users_.size());
  input.cooc.resize(users_.size());
  for (std::size_t u = 0; u < users_.size(); ++u) {
    users_[u].tree.Export(input.transactions[u]);
    auto& counts = input.cooc[u];
    counts.active.assign(users_[u].active.begin(), users_[u].active.end());
    counts.pairs.assign(users_[u].pairs.begin(), users_[u].pairs.end());
  }
  input.total_windows = static_cast<std::uint64_t>(
      window.length() > 0 ? window.length() : 0);
  input.has_transactions = true;
  input.has_cooc = true;
  return input;
}

void DeltaAccumulator::RebuildFromTrace(const trace::InvocationTrace& trace,
                                        Minute begin) {
  assert(trace.num_functions() == runs_.size());
  ResetDerived();
  ingest_watermark_ = begin;
  for (std::size_t fn = 0; fn < runs_.size(); ++fn) {
    const auto series = trace.series(FunctionId{static_cast<std::uint32_t>(fn)});
    auto it = std::lower_bound(
        series.begin(), series.end(), begin,
        [](const trace::InvocationEvent& e, Minute m) { return e.minute < m; });
    runs_[fn].assign(it, series.end());
    if (!runs_[fn].empty()) {
      ingest_watermark_ =
          std::max<Minute>(ingest_watermark_, runs_[fn].back().minute);
    }
  }
  store_begin_ = begin;
  sealed_end_ = begin;
  commits_since_anchor_ = 0;
}

void DeltaAccumulator::Commit(Minute boundary, bool anchored) {
  last_good_ = boundary;
  if (anchored) {
    commits_since_anchor_ = 0;
    ++books_.full_rebuilds;
  } else {
    ++commits_since_anchor_;
    ++books_.delta_mines;
  }
}

void DeltaAccumulator::Abandon() { ++books_.aborted_deltas; }

std::uint64_t DeltaAccumulator::stored_events() const noexcept {
  std::uint64_t n = 0;
  for (const auto& run : runs_) n += run.size();
  return n;
}

std::string DeltaAccumulator::Serialize() const {
  std::string out;
  out += kSnapshotHeader;
  out += '\n';
  out += "meta,";
  AppendInt(out, store_begin_);
  out += ',';
  AppendInt(out, sealed_end_);
  out += ',';
  AppendInt(out, last_good_);
  out += ',';
  AppendInt(out, static_cast<std::int64_t>(commits_since_anchor_));
  out += ',';
  AppendInt(out, window_minutes_);
  out += '\n';
  for (std::size_t fn = 0; fn < runs_.size(); ++fn) {
    if (runs_[fn].empty()) continue;
    out += "run,";
    AppendInt(out, static_cast<std::int64_t>(fn));
    for (const auto& e : runs_[fn]) {
      out += ',';
      AppendInt(out, e.minute);
      out += ':';
      AppendInt(out, static_cast<std::int64_t>(e.count));
    }
    out += '\n';
  }
  // Torn-write sentinel: a snapshot without it is rejected on load.
  out += "end\n";
  return out;
}

bool DeltaAccumulator::Deserialize(std::string_view text) {
  // Parse into staging first; commit only a fully validated snapshot.
  std::size_t eol = text.find('\n');
  if (eol == std::string_view::npos || text.substr(0, eol) != kSnapshotHeader) {
    return false;
  }
  text.remove_prefix(eol + 1);

  eol = text.find('\n');
  if (eol == std::string_view::npos) return false;
  std::string_view meta = text.substr(0, eol);
  text.remove_prefix(eol + 1);
  if (!meta.starts_with("meta,")) return false;
  meta.remove_prefix(5);
  // Re-terminate so ParseInt's delimiter search works on the last field.
  std::string meta_line(meta);
  meta_line += ',';
  std::string_view cursor = meta_line;
  std::int64_t begin = 0;
  std::int64_t sealed = 0;
  std::int64_t good = 0;
  std::int64_t commits = 0;
  std::int64_t wm = 0;
  if (!ParseInt(cursor, ',', begin) || !ParseInt(cursor, ',', sealed) ||
      !ParseInt(cursor, ',', good) || !ParseInt(cursor, ',', commits) ||
      !ParseInt(cursor, ',', wm) || !cursor.empty()) {
    return false;
  }
  if (begin < 0 || sealed < begin || good < -1 || commits < 0 ||
      wm != window_minutes_) {
    return false;
  }

  std::vector<std::vector<trace::InvocationEvent>> staged(runs_.size());
  Minute watermark = begin;
  bool saw_end = false;
  while (!text.empty()) {
    eol = text.find('\n');
    if (eol == std::string_view::npos) return false;  // torn final line
    std::string_view line = text.substr(0, eol);
    text.remove_prefix(eol + 1);
    if (line == "end") {
      saw_end = text.empty();
      break;
    }
    if (!line.starts_with("run,")) return false;
    line.remove_prefix(4);
    std::string run_line(line);
    run_line += ',';
    cursor = run_line;
    std::int64_t fn = 0;
    if (!ParseInt(cursor, ',', fn)) return false;
    if (fn < 0 || static_cast<std::size_t>(fn) >= staged.size()) return false;
    auto& run = staged[static_cast<std::size_t>(fn)];
    if (!run.empty()) return false;  // duplicate run line
    while (!cursor.empty()) {
      std::int64_t minute = 0;
      std::int64_t count = 0;
      if (!ParseInt(cursor, ':', minute) || !ParseInt(cursor, ',', count)) {
        return false;
      }
      // Events below store_begin would desync eviction accounting; a
      // count of zero or overflow would desync seal/unseal arithmetic; a
      // minute past the 32-bit event range would be truncated.
      if (minute < begin || !trace::FitsEventMinute(minute) || count <= 0 ||
          count > static_cast<std::int64_t>(
                      std::numeric_limits<std::uint32_t>::max())) {
        return false;
      }
      if (!run.empty() && run.back().minute >= minute) return false;
      run.push_back({static_cast<std::int32_t>(minute),
                     static_cast<std::uint32_t>(count)});
      watermark = std::max(watermark, static_cast<Minute>(minute));
    }
    if (run.empty()) return false;  // "run,<fn>" with no events
  }
  if (!saw_end) return false;

  runs_ = std::move(staged);
  store_begin_ = begin;
  sealed_end_ = begin;  // re-derive the sealed span below
  last_good_ = good;
  ingest_watermark_ = watermark;
  commits_since_anchor_ = static_cast<std::uint32_t>(commits);
  ResetDerived();
  SealTo(sealed);
  return true;
}

void DeltaAccumulator::ApplySpan(TimeRange span, int sign) {
  if (span.empty()) return;
  for (std::size_t u = 0; u < users_.size(); ++u) {
    // Per-minute item sets of this user inside the span, mirroring
    // BuildUserTransactions at window_minutes == 1.
    std::map<Minute, Transaction> minutes;
    for (const FunctionId fn :
         model_->FunctionsOfUser(UserId{static_cast<std::uint32_t>(u)})) {
      const auto& run = runs_[fn.value()];
      auto it = std::lower_bound(run.begin(), run.end(), span.begin,
                                 [](const trace::InvocationEvent& e, Minute m) {
                                   return e.minute < m;
                                 });
      for (; it != run.end() && it->minute < span.end; ++it) {
        minutes[it->minute].push_back(fn);
      }
    }
    UserAcc& acc = users_[u];
    for (auto& [minute, items] : minutes) {
      std::sort(items.begin(), items.end());
      items.erase(std::unique(items.begin(), items.end()), items.end());
      for (std::size_t i = 0; i < items.size(); ++i) {
        const std::uint32_t a = items[i].value();
        if (sign > 0) {
          ++acc.active[a];
        } else {
          const auto it = acc.active.find(a);
          assert(it != acc.active.end() && it->second > 0);
          if (--it->second == 0) acc.active.erase(it);
        }
        for (std::size_t j = i + 1; j < items.size(); ++j) {
          const auto key = std::make_pair(a, items[j].value());
          if (sign > 0) {
            ++acc.pairs[key];
          } else {
            const auto pit = acc.pairs.find(key);
            assert(pit != acc.pairs.end() && pit->second > 0);
            if (--pit->second == 0) acc.pairs.erase(pit);
          }
        }
      }
      // Matches TransactionConfig::min_items: singleton windows carry no
      // co-invocation signal and never reach FP-Growth.
      if (items.size() >= 2) {
        if (sign > 0) {
          acc.tree.Insert(items);
        } else {
          const bool removed = acc.tree.Remove(items);
          assert(removed && "evicted transaction missing from CanTree");
          (void)removed;
        }
      }
    }
  }
}

void DeltaAccumulator::ResetDerived() {
  for (auto& acc : users_) {
    acc.tree.Clear();
    acc.pairs.clear();
    acc.active.clear();
  }
}

}  // namespace defuse::mining
