#include "trace/invocation_trace.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace defuse::trace {

InvocationTrace::InvocationTrace(std::size_t num_functions, TimeRange horizon)
    : series_(num_functions), horizon_(horizon) {
  // Add() narrows minutes to 32 bits, which is exact only inside this
  // horizon; checked in every build because an assert would compile out
  // and let a long horizon silently wrap.
  if (!FitsEventHorizon(horizon)) {
    std::fprintf(stderr,
                 "defuse: fatal: trace horizon [%lld, %lld) exceeds the "
                 "32-bit event minute range\n",
                 static_cast<long long>(horizon.begin),
                 static_cast<long long>(horizon.end));
    std::abort();
  }
}

void InvocationTrace::Add(FunctionId fn, Minute minute, std::uint32_t count) {
  assert(fn.value() < series_.size());
  assert(horizon_.contains(minute));
  if (count == 0) return;
  auto& s = series_[fn.value()];
  // Common case: events arrive in time order; accumulate in place.
  if (!s.empty() && s.back().minute == minute) {
    s.back().count += count;
    return;
  }
  if (!s.empty() && s.back().minute > minute) finalized_ = false;
  s.push_back(InvocationEvent{.minute = static_cast<std::int32_t>(minute),
                              .count = count});
}

void InvocationTrace::Finalize() {
  if (finalized_) return;
  for (auto& s : series_) {
    std::sort(s.begin(), s.end(),
              [](const InvocationEvent& a, const InvocationEvent& b) {
                return a.minute < b.minute;
              });
    // Coalesce duplicates.
    std::size_t out = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (out > 0 && s[out - 1].minute == s[i].minute) {
        s[out - 1].count += s[i].count;
      } else {
        s[out++] = s[i];
      }
    }
    s.resize(out);
  }
  finalized_ = true;
}

void InvocationTrace::ShrinkToFit() {
  for (auto& s : series_) s.shrink_to_fit();
}

std::span<const InvocationEvent> InvocationTrace::series(
    FunctionId fn) const noexcept {
  assert(finalized_);
  assert(fn.value() < series_.size());
  return series_[fn.value()];
}

std::span<const InvocationEvent> InvocationTrace::SeriesInRange(
    FunctionId fn, TimeRange range) const noexcept {
  const auto full = series(fn);
  const auto lo = std::lower_bound(
      full.begin(), full.end(), range.begin,
      [](const InvocationEvent& e, Minute t) { return e.minute < t; });
  const auto hi = std::lower_bound(
      lo, full.end(), range.end,
      [](const InvocationEvent& e, Minute t) { return e.minute < t; });
  return full.subspan(static_cast<std::size_t>(lo - full.begin()),
                      static_cast<std::size_t>(hi - lo));
}

std::uint64_t InvocationTrace::TotalInvocations(
    FunctionId fn, TimeRange range) const noexcept {
  std::uint64_t total = 0;
  for (const auto& e : SeriesInRange(fn, range)) total += e.count;
  return total;
}

std::uint64_t InvocationTrace::ActiveMinutes(FunctionId fn,
                                             TimeRange range) const noexcept {
  return SeriesInRange(fn, range).size();
}

std::uint64_t InvocationTrace::TotalInvocations(
    TimeRange range) const noexcept {
  std::uint64_t total = 0;
  for (std::size_t f = 0; f < series_.size(); ++f) {
    total += TotalInvocations(FunctionId{static_cast<std::uint32_t>(f)}, range);
  }
  return total;
}

std::vector<MinuteDelta> InvocationTrace::IdleTimes(FunctionId fn,
                                                    TimeRange range) const {
  const auto events = SeriesInRange(fn, range);
  std::vector<MinuteDelta> gaps;
  if (events.size() < 2) return gaps;
  gaps.reserve(events.size() - 1);
  for (std::size_t i = 1; i < events.size(); ++i) {
    gaps.push_back(events[i].minute - events[i - 1].minute);
  }
  return gaps;
}

std::vector<MinuteDelta> InvocationTrace::GroupIdleTimes(
    std::span<const FunctionId> fns, TimeRange range) const {
  // k-way merge of active minutes; the group is active at a minute iff
  // any member is.
  std::vector<Minute> active;
  for (const FunctionId fn : fns) {
    for (const auto& e : SeriesInRange(fn, range)) active.push_back(e.minute);
  }
  std::sort(active.begin(), active.end());
  active.erase(std::unique(active.begin(), active.end()), active.end());
  std::vector<MinuteDelta> gaps;
  if (active.size() < 2) return gaps;
  gaps.reserve(active.size() - 1);
  for (std::size_t i = 1; i < active.size(); ++i) {
    gaps.push_back(active[i] - active[i - 1]);
  }
  return gaps;
}

std::vector<double> InvocationTrace::ActivitySeries(
    FunctionId fn, TimeRange range, MinuteDelta bucket_minutes) const {
  assert(bucket_minutes >= 1);
  const MinuteDelta length = std::max<MinuteDelta>(range.length(), 0);
  std::vector<double> series(
      static_cast<std::size_t>((length + bucket_minutes - 1) /
                               bucket_minutes),
      0.0);
  for (const auto& e : SeriesInRange(fn, range)) {
    series[static_cast<std::size_t>((e.minute - range.begin) /
                                    bucket_minutes)] += e.count;
  }
  return series;
}

MinuteIndex InvocationTrace::BuildMinuteIndex(TimeRange range) const {
  assert(finalized_);
  std::vector<std::vector<std::pair<FunctionId, std::uint32_t>>> per_minute(
      static_cast<std::size_t>(std::max<MinuteDelta>(range.length(), 0)));
  for (std::size_t f = 0; f < series_.size(); ++f) {
    const FunctionId fn{static_cast<std::uint32_t>(f)};
    for (const auto& e : SeriesInRange(fn, range)) {
      per_minute[static_cast<std::size_t>(e.minute - range.begin)]
          .emplace_back(fn, e.count);
    }
  }
  return MinuteIndex{range, std::move(per_minute)};
}

}  // namespace defuse::trace
