// The `serve` workload: one closed-loop client walks a multi-day trace
// minute by minute, one invoke per active (function, minute) cell, over
// the in-process loopback stack:
//
//   server::Client -> framing -> net::ServerCore admission
//     -> server::PlatformServer -> platform::Platform::Invoke
//
// Async re-mining and delta mining are on. One operation is one invoke;
// one round is one walk of the whole trace against a fresh stack.
//
// Traced, a timing net::RequestHandler wraps the PlatformServer, the
// client's encode/decode calls are timed on the same requests, and a
// direct-drive twin (no wire) times Platform::Invoke alone.
#include <cstdio>
#include <memory>
#include <optional>

#include "net/loopback.hpp"
#include "net/server_core.hpp"
#include "perfbench.hpp"
#include "platform/platform.hpp"
#include "server/client.hpp"
#include "server/platform_server.hpp"
#include "server/protocol.hpp"
#include "trace/generator.hpp"

namespace perfbench {
namespace {

namespace platform = defuse::platform;
namespace server = defuse::server;
namespace trace = defuse::trace;
using defuse::FunctionId;
using defuse::Minute;

// Workload make-up (see README.md).
constexpr std::uint32_t kUsers = 100;
constexpr std::int64_t kDays = 4;

/// Forwards to the PlatformServer and times HandleRequest: decode,
/// idempotency, Platform::Invoke and encode.
class TimingHandler final : public defuse::net::RequestHandler {
 public:
  explicit TimingHandler(server::PlatformServer& inner) : inner_(inner) {}

  std::string HandleRequest(std::string_view request) override {
    const auto begin = Clock::now();
    std::string reply = inner_.HandleRequest(request);
    last_handle_us_ = SecondsSince(begin) * 1e6;
    last_reply_ = reply;
    return reply;
  }
  std::string EncodeTransportError(const defuse::Error& error) override {
    return inner_.EncodeTransportError(error);
  }
  std::string EncodeRetryableError(const defuse::Error& error,
                                   defuse::MinuteDelta retry_after) override {
    return inner_.EncodeRetryableError(error, retry_after);
  }
  std::optional<defuse::net::RequestEnvelope> InspectRequest(
      std::string_view request) override {
    return inner_.InspectRequest(request);
  }
  bool HasCachedReply(std::uint64_t request_id) override {
    return inner_.HasCachedReply(request_id);
  }
  Minute ClockMinute() override { return inner_.ClockMinute(); }

  [[nodiscard]] double last_handle_us() const noexcept {
    return last_handle_us_;
  }
  [[nodiscard]] const std::string& last_reply() const noexcept {
    return last_reply_;
  }

 private:
  server::PlatformServer& inner_;
  double last_handle_us_ = 0.0;
  std::string last_reply_;
};

/// The serving stack of one round. Members hold references to earlier
/// members, so the stack is neither copied nor moved.
struct Stack {
  Stack(const trace::WorkloadModel& model,
        const platform::PlatformConfig& config, bool timed)
      : engine(model, config),
        handler(engine),
        timing(handler),
        core(timed ? static_cast<defuse::net::RequestHandler&>(timing)
                   : static_cast<defuse::net::RequestHandler&>(handler)),
        loopback(core) {}
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  platform::Platform engine;
  server::PlatformServer handler;
  TimingHandler timing;
  defuse::net::ServerCore core;
  defuse::net::LoopbackServer loopback;
  std::unique_ptr<server::Client> client;
};

std::unique_ptr<Stack> MakeStack(const trace::WorkloadModel& model,
                                 const platform::PlatformConfig& config,
                                 bool timed, Report& report) {
  auto stack = std::make_unique<Stack>(model, config, timed);
  auto channel = stack->loopback.Connect();
  if (!report.Expect(channel.ok(), "loopback connect succeeds")) return nullptr;
  stack->client = std::make_unique<server::Client>(std::move(channel).value());
  return stack;
}

/// Per-invoke timings of the traced walk (one round's worth).
struct Samples {
  std::vector<double> round_trip_us;
  std::vector<double> idle_us;
  std::vector<double> inflight_us;
  std::vector<double> handle_us;
  std::vector<double> wire_us;
  std::vector<double> encode_ns;
  std::vector<double> decode_ns;
};

/// Walks the whole trace through `stack`, one invoke per active cell, and
/// returns the acknowledged count. With `samples` (traced runs) every
/// invoke is timed, and the client's encode/decode calls are timed on the
/// same request and reply; untraced, no clock is read inside the walk.
std::uint64_t Walk(Stack& stack, const trace::MinuteIndex& index,
                   defuse::TimeRange horizon, Samples* samples,
                   Report& report) {
  std::uint64_t acked = 0;
  std::size_t sink = 0;  // keeps the timed encode/decode results alive
  for (Minute t = horizon.begin; t < horizon.end; ++t) {
    for (const auto& [fn, count] : index.at(t)) {
      (void)count;
      ++report.attempted;
      if (samples == nullptr) {
        if (stack.client->Invoke(fn, t).ok()) {
          ++acked;
        } else {
          ++report.failed;
        }
        continue;
      }
      const bool in_flight = stack.engine.remine_in_flight();
      const auto begin = Clock::now();
      const auto reply = stack.client->Invoke(fn, t);
      const double us = SecondsSince(begin) * 1e6;
      if (!reply.ok()) {
        ++report.failed;
        continue;
      }
      ++acked;
      samples->round_trip_us.push_back(us);
      (in_flight ? samples->inflight_us : samples->idle_us).push_back(us);
      samples->handle_us.push_back(stack.timing.last_handle_us());
      samples->wire_us.push_back(us - stack.timing.last_handle_us());
      const auto encode_begin = Clock::now();
      const std::string request = server::EncodeRequest(
          server::InvokeRequest{.function = fn, .now = t});
      samples->encode_ns.push_back(SecondsSince(encode_begin) * 1e9);
      const auto decode_begin = Clock::now();
      const auto decoded = server::DecodeReply(stack.timing.last_reply());
      samples->decode_ns.push_back(SecondsSince(decode_begin) * 1e9);
      sink += request.size() + (decoded.ok() ? decoded.value().body.size() : 0);
    }
  }
  stack.engine.FinishPendingRemine();
  report.Expect(samples == nullptr || sink > 0, "encode/decode produced bytes");
  return acked;
}

/// Replays the trace straight into `engine` (no wire). Returns the mean
/// resident function count per minute; times every Invoke into
/// `invoke_us` when given.
double DirectDrive(platform::Platform& engine, const trace::MinuteIndex& index,
                   defuse::TimeRange horizon, std::vector<double>* invoke_us) {
  double resident = 0.0;
  for (Minute t = horizon.begin; t < horizon.end; ++t) {
    for (const auto& [fn, count] : index.at(t)) {
      (void)count;
      if (invoke_us == nullptr) {
        (void)engine.Invoke(fn, t);
        continue;
      }
      const auto begin = Clock::now();
      (void)engine.Invoke(fn, t);
      invoke_us->push_back(SecondsSince(begin) * 1e6);
    }
    resident += static_cast<double>(engine.ResidentFunctions(t));
  }
  engine.FinishPendingRemine();
  return resident / static_cast<double>(horizon.length());
}

}  // namespace

void RunServeWorkload(const Options& options, Report& report) {
  trace::GeneratorConfig generator;
  generator.seed = options.seed;
  generator.num_users = kUsers;
  generator.horizon_minutes = kDays * defuse::kMinutesPerDay;

  auto begin = Clock::now();
  const auto workload = trace::GenerateWorkload(generator);
  report.Set("trace.generate_s", SecondsSince(begin), "s");
  const defuse::TimeRange horizon = workload.trace.horizon();
  const auto index = workload.trace.BuildMinuteIndex(horizon);

  platform::PlatformConfig config;
  config.horizon = generator.horizon_minutes;
  config.remine_interval = defuse::kMinutesPerDay;
  config.async_remine = true;
  config.mining.delta.enabled = true;
  std::unique_ptr<Stack> stack =
      MakeStack(workload.model, config, options.trace, report);
  report.Set("setup_s", SecondsSince(options.process_start), "s");
  if (stack == nullptr) return;

  // Traced, the samples hold the last round: memory stays one round's
  // worth however long the run.
  Samples samples;
  std::vector<double> cell_ns;  // one invoke per input cell
  const std::uint64_t sent_per_round = ActiveCells(workload.trace, horizon);
  const auto measure_begin = Clock::now();
  while (true) {
    if (options.trace) samples = Samples{};
    const std::uint64_t attempted_before = report.attempted;
    begin = Clock::now();
    const std::uint64_t acked = Walk(
        *stack, index, horizon, options.trace ? &samples : nullptr, report);
    const double round_s = SecondsSince(begin);
    cell_ns.push_back(round_s / static_cast<double>(acked) * 1e9);
    std::fprintf(stderr, "# round %zu: %.4f s for %llu invokes\n",
                 cell_ns.size(), round_s,
                 static_cast<unsigned long long>(acked));
    report.Expect(report.attempted - attempted_before == sent_per_round &&
                      acked == sent_per_round &&
                      stack->engine.stats().invocations == sent_per_round,
                  "every active cell is sent once and acknowledged");
    if (SecondsSince(measure_begin) >= options.seconds) break;
    stack.reset();
    stack = MakeStack(workload.model, config, options.trace, report);
    if (stack == nullptr) return;
  }

  // Reference: a serial, full-rebuild platform driven directly.
  platform::PlatformConfig serial = config;
  serial.async_remine = false;
  serial.mining.delta.enabled = false;
  platform::Platform reference{workload.model, serial};
  const double avg_memory = DirectDrive(reference, index, horizon, nullptr);
  const Partition served = CanonicalPartition(stack->engine.units());
  report.Expect(PartitionsAll(served, workload.model.num_functions()),
                "served units partition the functions");
  report.Expect(served == CanonicalPartition(reference.units()),
                "served units equal the serial full-rebuild reference");
  report.Expect(
      reference.stats().remines == static_cast<std::uint64_t>(kDays - 1),
      "one re-mine per day boundary");

  report.Set("cell_ns", Percentile(cell_ns, 0.5), "ns");
  report.Set("cold_rate", P75ColdRate(reference), "ratio");
  report.Set("memory_share",
             avg_memory / static_cast<double>(workload.model.num_functions()),
             "ratio");

  if (!options.trace) return;

  report.Set("serve.invokes", static_cast<double>(samples.round_trip_us.size()),
             "count");
  report.Set("serve.invoke_us.p50", Percentile(samples.round_trip_us, 0.50),
             "us");
  report.Set("serve.invoke_us.p99", Percentile(samples.round_trip_us, 0.99),
             "us");
  report.Set("serve.idle_p99_us", Percentile(samples.idle_us, 0.99), "us");
  report.Set("serve.inflight_p99_us", Percentile(samples.inflight_us, 0.99),
             "us");
  report.Set("platform.inflight_invokes",
             static_cast<double>(samples.inflight_us.size()), "count");

  report.Set("server.handle_us.p50", Percentile(samples.handle_us, 0.50), "us");
  report.Set("server.handle_us.p99", Percentile(samples.handle_us, 0.99), "us");
  report.Set("net.wire_us.p50", Percentile(samples.wire_us, 0.50), "us");
  report.Set("net.wire_us.p99", Percentile(samples.wire_us, 0.99), "us");
  report.Set("client.encode_ns", Percentile(samples.encode_ns, 0.50), "ns");
  report.Set("client.decode_ns", Percentile(samples.decode_ns, 0.50), "ns");

  // The direct-drive twin: the served configuration without the wire.
  platform::Platform twin{workload.model, config};
  std::vector<double> invoke_us;
  (void)DirectDrive(twin, index, horizon, &invoke_us);
  report.Set("platform.invoke_us.p50", Percentile(invoke_us, 0.50), "us");
  report.Set("platform.invoke_us.p99", Percentile(invoke_us, 0.99), "us");
  report.Expect(CanonicalPartition(twin.units()) == served,
                "direct-drive twin ends on the served units");
}

}  // namespace perfbench
