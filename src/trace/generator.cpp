#include "trace/generator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

namespace defuse::trace {
namespace {

/// Produces the minutes at which one app's trigger fires.
std::vector<Minute> GenerateTriggerMinutes(TriggerKind kind,
                                           const GeneratorConfig& cfg,
                                           MinuteDelta horizon, Rng& rng,
                                           MinuteDelta period_override = 0) {
  std::vector<Minute> triggers;
  switch (kind) {
    case TriggerKind::kPeriodic: {
      const MinuteDelta period =
          period_override > 0 ? period_override
                              : cfg.periods[rng.NextBelow(cfg.periods.size())];
      Minute t = static_cast<Minute>(rng.NextBelow(
          static_cast<std::uint64_t>(std::max<MinuteDelta>(period, 1))));
      for (; t < horizon; t += period) {
        if (rng.NextBernoulli(cfg.periodic_skip_prob)) continue;
        Minute fire = t;
        if (rng.NextBernoulli(cfg.periodic_jitter_prob)) {
          fire += rng.NextInRange(-1, 1);
        }
        if (fire >= 0 && fire < horizon) triggers.push_back(fire);
      }
      break;
    }
    case TriggerKind::kPoisson: {
      // Log-uniform mean gap: spans frequent services and rare jobs.
      const double lo = std::log(cfg.poisson_mean_gap_min);
      const double hi = std::log(cfg.poisson_mean_gap_max);
      const double mean_gap = std::exp(lo + (hi - lo) * rng.NextDouble());
      double t = mean_gap * rng.NextExponential(1.0);
      while (t < static_cast<double>(horizon)) {
        triggers.push_back(static_cast<Minute>(t));
        t += mean_gap * rng.NextExponential(1.0);
      }
      break;
    }
    case TriggerKind::kDiurnal: {
      const MinuteDelta window =
          rng.NextInRange(cfg.diurnal_window_min, cfg.diurnal_window_max);
      const Minute start = rng.NextInRange(0, kMinutesPerDay - 1);
      for (Minute day = 0; day < horizon; day += kMinutesPerDay) {
        double t = cfg.diurnal_mean_gap * rng.NextExponential(1.0);
        while (t < static_cast<double>(window)) {
          // The window may wrap past midnight; wrap into the horizon.
          const Minute fire = day + ((start + static_cast<Minute>(t)) %
                                     kMinutesPerDay);
          if (fire < horizon) triggers.push_back(fire);
          t += cfg.diurnal_mean_gap * rng.NextExponential(1.0);
        }
      }
      std::sort(triggers.begin(), triggers.end());
      break;
    }
    case TriggerKind::kBursty: {
      double t = cfg.bursty_off_mean * rng.NextExponential(1.0);
      while (t < static_cast<double>(horizon)) {
        const double on_len = cfg.bursty_on_mean * rng.NextExponential(1.0);
        const double on_end =
            std::min(t + on_len, static_cast<double>(horizon));
        while (t < on_end) {
          triggers.push_back(static_cast<Minute>(t));
          t += cfg.bursty_in_gap * rng.NextExponential(1.0);
        }
        t = on_end + cfg.bursty_off_mean * rng.NextExponential(1.0);
      }
      break;
    }
  }
  // Deduplicate minutes (two arrivals inside a minute is one active
  // minute in a minute-granularity trace).
  triggers.erase(std::unique(triggers.begin(), triggers.end()),
                 triggers.end());
  return triggers;
}

TriggerKind PickTriggerKind(const GeneratorConfig& cfg, Rng& rng) {
  const double total =
      cfg.frac_periodic + cfg.frac_poisson + cfg.frac_diurnal + cfg.frac_bursty;
  double u = rng.NextDouble() * total;
  if ((u -= cfg.frac_periodic) < 0) return TriggerKind::kPeriodic;
  if ((u -= cfg.frac_poisson) < 0) return TriggerKind::kPoisson;
  if ((u -= cfg.frac_diurnal) < 0) return TriggerKind::kDiurnal;
  return TriggerKind::kBursty;
}

std::uint32_t FiringCount(const GeneratorConfig& cfg, Rng& rng) {
  return 1 + rng.NextPoisson(cfg.extra_invocations_mean);
}

}  // namespace

SyntheticWorkload GenerateWorkload(const GeneratorConfig& cfg) {
  assert(cfg.num_users > 0);
  assert(cfg.horizon_minutes > 0);
  assert(!cfg.periods.empty());
  assert(cfg.min_functions_per_workflow >= 1);
  assert(cfg.max_functions_per_workflow >= cfg.min_functions_per_workflow);

  Rng root{cfg.seed};
  WorkloadModel model;

  // One plan per *workflow*: an independently-triggered endpoint inside
  // an application. Applications with several workflows are what make
  // app-granularity scheduling wasteful.
  struct WorkflowPlan {
    TriggerKind kind;
    std::vector<FunctionId> core;             // fire on every trigger
    std::vector<FunctionId> aux;              // fire with aux_prob[i]
    std::vector<double> aux_prob;
    FunctionId weak_target = FunctionId::invalid();  // common-service ping
    MinuteDelta period_override = 0;  // >0 forces a periodic period
    std::uint64_t rng_stream = 0;
  };
  std::vector<WorkflowPlan> plans;
  GroundTruth truth;

  const ZipfSampler apps_zipf{cfg.max_extra_apps_per_user, cfg.apps_zipf_s};
  const ZipfSampler workflows_zipf{cfg.max_extra_workflows_per_app,
                                   cfg.workflows_zipf_s};
  const ZipfSampler fns_zipf{
      cfg.max_functions_per_workflow - cfg.min_functions_per_workflow + 1,
      cfg.functions_zipf_s};
  const ZipfSampler core_zipf{cfg.max_core_group, cfg.core_zipf_s};

  std::uint64_t stream_counter = 1;
  for (std::uint32_t u = 0; u < cfg.num_users; ++u) {
    Rng user_rng = root.Fork(stream_counter++);
    const UserId user = model.AddUser("user" + std::to_string(u));

    // Optionally give the user a periodic common-service app first; its
    // functions become weak-dependency targets for the user's
    // unpredictable workflows.
    std::vector<FunctionId> common_services;
    if (user_rng.NextBernoulli(cfg.frac_users_with_common_service)) {
      const AppId app =
          model.AddApp(user, "user" + std::to_string(u) + "-common");
      WorkflowPlan plan;
      plan.kind = TriggerKind::kPeriodic;
      plan.period_override = cfg.common_service_period;
      plan.rng_stream = stream_counter++;
      for (std::uint32_t f = 0; f < cfg.common_service_functions; ++f) {
        const FunctionId fn =
            model.AddFunction(app, model.app(app).name + "-svc" +
                                       std::to_string(f));
        plan.core.push_back(fn);
        common_services.push_back(fn);
      }
      if (plan.core.size() >= 2) truth.strong_groups.push_back(plan.core);
      plans.push_back(std::move(plan));
    }

    const auto num_apps =
        1 + static_cast<std::uint32_t>(apps_zipf.Sample(user_rng));
    for (std::uint32_t a = 0; a < num_apps; ++a) {
      const AppId app = model.AddApp(
          user, "user" + std::to_string(u) + "-app" + std::to_string(a));
      const auto num_workflows =
          1 + static_cast<std::uint32_t>(workflows_zipf.Sample(user_rng));
      for (std::uint32_t w = 0; w < num_workflows; ++w) {
        WorkflowPlan plan;
        plan.kind = PickTriggerKind(cfg, user_rng);
        plan.rng_stream = stream_counter++;

        const auto num_fns =
            cfg.min_functions_per_workflow +
            static_cast<std::uint32_t>(fns_zipf.Sample(user_rng));
        std::vector<FunctionId> fns;
        fns.reserve(num_fns);
        for (std::uint32_t f = 0; f < num_fns; ++f) {
          fns.push_back(model.AddFunction(
              app, model.app(app).name + "-w" + std::to_string(w) + "-fn" +
                       std::to_string(f)));
        }

        const auto core_size = std::min<std::uint32_t>(
            1 + static_cast<std::uint32_t>(core_zipf.Sample(user_rng)),
            num_fns);
        plan.core.assign(fns.begin(), fns.begin() + core_size);
        for (std::uint32_t f = core_size; f < num_fns; ++f) {
          plan.aux.push_back(fns[f]);
          const bool branch = user_rng.NextBernoulli(cfg.branch_aux_fraction);
          const double lo = branch ? cfg.branch_prob_min : cfg.rare_prob_min;
          const double hi = branch ? cfg.branch_prob_max : cfg.rare_prob_max;
          plan.aux_prob.push_back(lo + (hi - lo) * user_rng.NextDouble());
        }
        if (plan.core.size() >= 2) truth.strong_groups.push_back(plan.core);

        // Unpredictable workflows of common-service users get a weak
        // link: whenever the workflow fires, it also pings one
        // common-service function.
        const bool unpredictable = plan.kind == TriggerKind::kPoisson ||
                                   plan.kind == TriggerKind::kBursty;
        if (unpredictable && !common_services.empty() &&
            user_rng.NextBernoulli(cfg.weak_link_prob)) {
          plan.weak_target =
              common_services[user_rng.NextBelow(common_services.size())];
          truth.weak_links.emplace_back(plan.core.front(), plan.weak_target);
        }
        plans.push_back(std::move(plan));
      }
    }
  }

  truth.function_trigger.resize(model.num_functions());
  const TimeRange horizon{0, cfg.horizon_minutes};
  InvocationTrace trace{model.num_functions(), horizon};

  for (const WorkflowPlan& plan : plans) {
    Rng app_rng = root.Fork(plan.rng_stream);
    const auto triggers = GenerateTriggerMinutes(
        plan.kind, cfg, cfg.horizon_minutes, app_rng, plan.period_override);
    for (const Minute t : triggers) {
      for (const FunctionId fn : plan.core) {
        trace.Add(fn, t, FiringCount(cfg, app_rng));
      }
      for (std::size_t i = 0; i < plan.aux.size(); ++i) {
        if (app_rng.NextBernoulli(plan.aux_prob[i])) {
          trace.Add(plan.aux[i], t, FiringCount(cfg, app_rng));
        }
      }
      if (plan.weak_target.valid() &&
          app_rng.NextBernoulli(cfg.weak_ping_prob)) {
        trace.Add(plan.weak_target, t, 1);
      }
    }
    for (const FunctionId fn : plan.core) {
      truth.function_trigger[fn.value()] = plan.kind;
    }
    for (const FunctionId fn : plan.aux) {
      truth.function_trigger[fn.value()] = plan.kind;
    }
  }

  trace.Finalize();
  trace.ShrinkToFit();

  // Per-function memory weights, lognormal with mean exactly 1 when
  // sigma = 0 and approximately 1 otherwise (mu = -sigma^2/2).
  std::vector<double> weights(model.num_functions(), 1.0);
  if (cfg.size_lognormal_sigma > 0.0) {
    Rng size_rng = root.Fork(0x517e);
    const double sigma = cfg.size_lognormal_sigma;
    const double mu = -0.5 * sigma * sigma;
    for (auto& w : weights) {
      w = std::exp(mu + sigma * size_rng.NextGaussian());
    }
  }

  return SyntheticWorkload{.model = std::move(model),
                           .trace = std::move(trace),
                           .truth = std::move(truth),
                           .function_weights = std::move(weights)};
}

GeneratorConfig MakeScenarioConfig(const ScenarioSpec& spec) {
  GeneratorConfig cfg;
  switch (spec.kind) {
    case ScenarioKind::kAzureLike:
      // The generator defaults: the Azure-trace-shaped mix documented on
      // GeneratorConfig.
      break;
    case ScenarioKind::kHuaweiBursty:
      // Sub-minute ON/OFF bursts dominate: short dense sessions, short
      // off periods, heavy per-firing fan-out. At minute granularity a
      // sub-minute gap is in-burst co-firing, so bursty_in_gap < 1
      // combined with extra invocations per firing models it.
      cfg.frac_periodic = 0.10;
      cfg.frac_poisson = 0.15;
      cfg.frac_diurnal = 0.05;
      cfg.frac_bursty = 0.70;
      cfg.bursty_on_mean = 8.0;
      cfg.bursty_off_mean = 90.0;
      cfg.bursty_in_gap = 0.8;
      cfg.extra_invocations_mean = 1.5;
      break;
    case ScenarioKind::kHuaweiDiurnal:
      // Strong day/night cycles: most apps fire only inside long daily
      // windows, densely while active.
      cfg.frac_periodic = 0.15;
      cfg.frac_poisson = 0.10;
      cfg.frac_diurnal = 0.65;
      cfg.frac_bursty = 0.10;
      cfg.diurnal_window_min = 8 * kMinutesPerHour;
      cfg.diurnal_window_max = 14 * kMinutesPerHour;
      cfg.diurnal_mean_gap = 8.0;
      break;
    case ScenarioKind::kSkewExtreme:
      // Extreme per-function skew: steeper Zipf everywhere, a long cold
      // tail of rarely-taken branches, and arrival gaps spread over two
      // extra octaves so head and tail functions differ by orders of
      // magnitude.
      cfg.apps_zipf_s = 2.0;
      cfg.workflows_zipf_s = 1.4;
      cfg.functions_zipf_s = 1.6;
      cfg.max_functions_per_workflow = 20;
      cfg.poisson_mean_gap_min = 2.0;
      cfg.poisson_mean_gap_max = 720.0;
      cfg.branch_aux_fraction = 0.3;
      cfg.rare_prob_min = 0.005;
      cfg.rare_prob_max = 0.05;
      break;
    case ScenarioKind::kFlatPoisson:
      // Memoryless control: every workflow is Poisson over a narrow gap
      // range — nothing for a histogram or forecaster to latch onto.
      cfg.frac_periodic = 0.0;
      cfg.frac_poisson = 1.0;
      cfg.frac_diurnal = 0.0;
      cfg.frac_bursty = 0.0;
      cfg.poisson_mean_gap_min = 10.0;
      cfg.poisson_mean_gap_max = 40.0;
      cfg.frac_users_with_common_service = 0.0;
      break;
  }
  cfg.seed = spec.seed;
  if (spec.num_users > 0) cfg.num_users = spec.num_users;
  if (spec.horizon_minutes > 0) cfg.horizon_minutes = spec.horizon_minutes;
  return cfg;
}

SyntheticWorkload GenerateScenario(const ScenarioSpec& spec) {
  return GenerateWorkload(MakeScenarioConfig(spec));
}

}  // namespace defuse::trace
