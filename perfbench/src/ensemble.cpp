// `ensemble-unc`: the Table 2 rate sweep at UNC.
//
// One batch is the six-rate sweep with `trials` index-seeded trials per
// rate, run through bench::detection_ensemble: the backgrounds depend
// only on (seed, index), so every background repeats once per rate.
// One operation is one trial. Each batch re-derives two rates' rows
// (different rates each batch) by the direct composition
//   trace::generate_site_trace -> trace::extract_periods ->
//   attack::generate_flood_times -> core::run_over_series
// -- the reference path, and the one the traced run times call by call
// -- and each must match the ensemble's row bit for bit; a differing
// row fails all of its trials. Unsampled rows are not checked.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/experiment.hpp"
#include "harness.hpp"
#include "syndog/attack/flood.hpp"
#include "syndog/core/syndog.hpp"
#include "syndog/trace/periods.hpp"
#include "syndog/trace/site.hpp"
#include "syndog/util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using syndog::bench::DetectionRow;
using syndog::bench::EnsembleConfig;

struct Sweep {
  std::vector<double> rates;
  int trials = 0;  ///< per rate and batch
};

Sweep sweep_for(Size size) {
  if (size == Size::kTiny) return {{37.0, 120.0}, 1};
  return {{37.0, 40.0, 45.0, 60.0, 80.0, 120.0}, 4};
}

/// Rows of each batch re-derived by the reference composition.
constexpr std::size_t kSampledRows = 2;

EnsembleConfig config_for(std::uint64_t seed, int trials) {
  EnsembleConfig cfg;  // Table 2: onset uniform in [3 min, 9 min]
  cfg.trials = trials;
  cfg.seed = seed;
  cfg.start_min_s = 3 * 60.0;
  cfg.start_max_s = 9 * 60.0;
  return cfg;
}

/// Layer accumulators of the direct composition; all null when untraced.
struct TrialLayers {
  Layer* synth = nullptr;
  Layer* extract = nullptr;
  Layer* flood = nullptr;
  Layer* cusum = nullptr;
};

struct Verdict {
  bool detected = false;
  double delay = 0.0;
  int false_alarms = 0;
};

/// Trial `index` of rate `fi`, composed from the layers' public calls in
/// the order bench::make_flood_trial makes them. `corrupt` flips one
/// period count before the detector sees it.
Verdict direct_trial(const syndog::trace::SiteSpec& spec, double fi,
                     const syndog::core::SynDogParams& params,
                     const EnsembleConfig& cfg, int index,
                     const TrialLayers& layers, bool corrupt) {
  namespace trace = syndog::trace;
  const trace::ConnectionTrace background = span(layers.synth, [&] {
    return trace::generate_site_trace(
        spec, cfg.seed + static_cast<std::uint64_t>(index));
  });
  if (layers.synth != nullptr) layers.synth->work += background.attempts();
  trace::PeriodSeries periods = span(layers.extract, [&] {
    return trace::extract_periods(background, trace::kObservationPeriod);
  });

  std::int64_t onset = static_cast<std::int64_t>(periods.size());
  std::int64_t flood_end = onset;
  span(layers.flood, [&] {
    syndog::util::Rng rng = syndog::util::Rng::child(
        cfg.seed ^ 0xa77ac4, static_cast<std::uint64_t>(index));
    syndog::attack::FloodSpec flood;
    flood.rate = fi;
    flood.shape = cfg.shape;
    flood.start = syndog::util::SimTime::from_seconds(
        rng.uniform(cfg.start_min_s, cfg.start_max_s));
    flood.duration = cfg.flood_duration;
    const std::vector<syndog::util::SimTime> times =
        syndog::attack::generate_flood_times(flood, rng);
    periods.add_outbound_syns(
        trace::bucket_times(times, periods.period, periods.size()));
    onset = flood.start / periods.period;
    flood_end = std::min<std::int64_t>(
        (flood.start + flood.duration) / periods.period,
        static_cast<std::int64_t>(periods.size()) - 1);
  });
  if (corrupt) periods.out_syn.front() += 100000;

  const std::vector<syndog::core::PeriodReport> reports =
      span(layers.cusum, [&] {
        return syndog::core::run_over_series(params, periods.out_syn,
                                             periods.in_syn_ack);
      });
  if (layers.cusum != nullptr) layers.cusum->work += reports.size();

  Verdict v;
  const auto n_reports = static_cast<std::int64_t>(reports.size());
  for (std::int64_t n = 0; n < onset && n < n_reports; ++n) {
    if (reports[static_cast<std::size_t>(n)].alarm) ++v.false_alarms;
  }
  for (std::int64_t n = onset; n <= flood_end && n < n_reports; ++n) {
    if (reports[static_cast<std::size_t>(n)].alarm) {
      v.detected = true;
      v.delay = static_cast<double>(n - onset);
      break;
    }
  }
  return v;
}

/// Folds verdicts into a row exactly as bench::detection_ensemble does.
DetectionRow fold(double fi, const std::vector<Verdict>& verdicts) {
  DetectionRow row;
  row.fi = fi;
  row.trials = static_cast<int>(verdicts.size());
  double delay_sum = 0.0;
  int detected = 0;
  for (const Verdict& v : verdicts) {
    row.false_alarm_periods += v.false_alarms;
    if (v.detected) {
      ++detected;
      delay_sum += v.delay;
      row.max_delay_periods = std::max(row.max_delay_periods, v.delay);
    }
  }
  row.detection_probability =
      static_cast<double>(detected) / static_cast<double>(row.trials);
  row.mean_delay_periods = detected == 0 ? 0.0 : delay_sum / detected;
  return row;
}

bool same_row(const DetectionRow& a, const DetectionRow& b) {
  return a.fi == b.fi && a.trials == b.trials &&
         a.detection_probability == b.detection_probability &&
         a.mean_delay_periods == b.mean_delay_periods &&
         a.max_delay_periods == b.max_delay_periods &&
         a.false_alarm_periods == b.false_alarm_periods;
}

struct Fixture {
  syndog::trace::SiteSpec spec;
  syndog::core::SynDogParams params;
};

/// Builds the site and detector and runs one warm-up trial (on a seed no
/// batch uses), so page faults and first-touch costs land in set-up.
Fixture set_up(std::uint64_t seed) {
  Fixture f{syndog::trace::site_spec(syndog::trace::SiteId::kUnc),
            syndog::core::SynDogParams::paper_defaults()};
  (void)direct_trial(f.spec, 37.0, f.params,
                     config_for(derive_seed(~seed, 0), 1), 0, {}, false);
  return f;
}

/// Rate `fi`'s row re-derived trial by trial; per-trial wall times are
/// appended to `trial_ms` when given.
DetectionRow compose_row(const Fixture& fx, double fi,
                         const EnsembleConfig& cfg, const TrialLayers& layers,
                         std::vector<double>* trial_ms, bool corrupt) {
  std::vector<Verdict> verdicts;
  for (int t = 0; t < cfg.trials; ++t) {
    const Clock::time_point start = Clock::now();
    verdicts.push_back(direct_trial(fx.spec, fi, fx.params, cfg, t, layers,
                                    corrupt && t == 0));
    if (trial_ms != nullptr) trial_ms->push_back(seconds_since(start) * 1e3);
  }
  return fold(fi, verdicts);
}

}  // namespace

Result run_ensemble(const Options& opts) {
  const Sweep sweep = sweep_for(opts.size);
  const auto batch_trials =
      static_cast<double>(sweep.rates.size()) * sweep.trials;

  Result result;
  Measurement m;
  Fixture fx;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point start = Clock::now();
    fx = set_up(opts.seed);
    m.setups.push_back(seconds_since(start));
  }

  Layer synth;
  Layer extract;
  Layer flood;
  Layer cusum;
  const TrialLayers traced{&synth, &extract, &flood, &cusum};
  std::vector<double> trial_ms;
  double traced_s = 0.0;
  double plain_s = 0.0;
  while (m.more(opts)) {
    m.begin_batch();
    const EnsembleConfig cfg =
        config_for(derive_seed(opts.seed, m.batches), sweep.trials);

    // The program's path: one detection_ensemble call per rate.
    std::vector<DetectionRow> rows;
    const Timing ensemble = time_it([&] {
      for (const double fi : sweep.rates) {
        rows.push_back(syndog::bench::detection_ensemble(fx.spec, fi,
                                                         fx.params, cfg));
      }
    });
    m.work.push_back({batch_trials, ensemble});

    // The reference: kSampledRows rows per batch, rotating through the
    // rates, re-derived trial by trial, untraced.
    std::vector<std::size_t> sampled;
    for (std::size_t k = 0; k < kSampledRows; ++k) {
      sampled.push_back((m.batches * kSampledRows + k) % sweep.rates.size());
    }
    const bool corrupt_batch = opts.corrupt && m.batches == 0;
    std::vector<DetectionRow> reference;
    const Timing composed = time_it([&] {
      for (const std::size_t r : sampled) {
        reference.push_back(compose_row(fx, sweep.rates[r], cfg, {}, nullptr,
                                        corrupt_batch && r == sampled[0]));
      }
    });
    m.ref_work.push_back(
        {static_cast<double>(sampled.size()) * sweep.trials, composed});
    m.measured_s += ensemble.wall_s + composed.wall_s;
    result.attempted += static_cast<std::uint64_t>(batch_trials);
    for (std::size_t k = 0; k < sampled.size(); ++k) {
      if (!same_row(rows[sampled[k]], reference[k])) {
        result.failed += static_cast<std::uint64_t>(sweep.trials);
      }
    }

    if (opts.trace) {
      // The whole sweep composed call by call, once untraced and once
      // with a span around every layer call; every row must match.
      Clock::time_point start = Clock::now();
      for (const double fi : sweep.rates) {
        (void)compose_row(fx, fi, cfg, {}, nullptr, false);
      }
      const double plain = seconds_since(start);
      start = Clock::now();
      for (std::size_t r = 0; r < sweep.rates.size(); ++r) {
        if (!same_row(rows[r], compose_row(fx, sweep.rates[r], cfg, traced,
                                           &trial_ms, false))) {
          result.checks_passed = false;
          result.notes.push_back("traced composition differs from the "
                                 "ensemble");
        }
      }
      const double t = seconds_since(start);
      plain_s += plain;
      traced_s += t;
      m.measured_s += plain + t;
    }
    m.end_batch();
  }

  result.info["threads"] = "1";
  result.info["trials_per_batch"] = std::to_string(
      static_cast<int>(batch_trials));
  m.report(result);
  if (opts.trace) {
    const double n = m.batches;
    result.metric("trace.synth_s", synth.busy_s / n, "s");
    result.metric("trace.connections", static_cast<double>(synth.work) / n,
                  "count");
    result.metric("trace.synth_ns_per_conn",
                  synth.busy_s * 1e9 / static_cast<double>(synth.work), "ns");
    result.metric("trace.synth_share", synth.busy_s / traced_s, "ratio");
    result.metric("trace.extract_s", extract.busy_s / n, "s");
    result.metric("attack.flood_s", flood.busy_s / n, "s");
    result.metric("core.cusum_s", cusum.busy_s / n, "s");
    result.metric("core.periods", static_cast<double>(cusum.work) / n,
                  "count");
    result.metric("core.cusum_ns_per_period",
                  cusum.busy_s * 1e9 / static_cast<double>(cusum.work), "ns");
    result.metric("ensemble.trial_p50_ms", quantile(trial_ms, 0.5), "ms");
    result.metric("ensemble.trial_p90_ms", quantile(trial_ms, 0.9), "ms");
    // Each background (seed, index) serves one trial per rate.
    result.metric("ensemble.background_reuse",
                  static_cast<double>(sweep.rates.size()), "ratio");
    result.metric("bench.trace_overhead", traced_s / plain_s, "ratio");
  }
  return result;
}

}  // namespace perfbench
