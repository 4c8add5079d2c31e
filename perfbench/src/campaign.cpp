// `campaign-flood` and `campaign-spread`: the sharded campaign DES.
//
// One batch builds a fresh CampaignSim (the set-up), runs it to the end
// of its simulated span on nproc workers (the measured path), and runs
// an identical sim through the single-threaded reference
// CampaignSim::run_until(end). One operation is one stub: an attacked
// stub that never alarms, or an unattacked stub that alarms, fails.
// Every stub fails when the two runs' state digests differ or when the
// victim's SYN count does not equal the records that crossed to it.
//
// The traced run times, per window, run_cell_until for every cell and
// then exchange_and_advance -- the reference loop, driven from here.
#include <malloc.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "syndog/campaign/campaign_sim.hpp"
#include "syndog/core/syndog.hpp"
#include "syndog/net/address.hpp"
#include "syndog/util/rng.hpp"
#include "syndog/util/time.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using syndog::campaign::CampaignSim;
using syndog::util::SimTime;

struct Shape {
  int stubs = 0;
  std::uint32_t hosts = 0;
  int attacked = 0;           ///< stubs [0, attacked) flood the victim
  double flood_rate = 0.0;    ///< SYN/s per attacked stub
  double flood_start_s = 0.0;
  double flood_end_s = 0.0;
  double end_s = 0.0;         ///< simulated span
  SimTime period;             ///< agent observation period
  std::uint64_t flood_salt = 0;
};

constexpr double kBackgroundRate = 3.0;  // wire SYN/s per stub

/// campaign-flood: the syndog_campaign CLI's shape -- every stub floods
/// at 120 SYN/s over the middle third, t0 = 10 s.
/// campaign-spread: bench_campaign_scale's detectable wave -- A_s = 378
/// of 1,000 stubs at 2.5 f_min after a 60 s warm-up, t0 = 20 s, over a
/// simulated span 8x longer than campaign-flood's.
Shape shape_for(CampaignKind kind, Size size) {
  const bool tiny = size == Size::kTiny;
  Shape s;
  if (kind == CampaignKind::kFlood) {
    s.stubs = tiny ? 16 : 1000;
    s.hosts = 100;
    s.attacked = s.stubs;
    s.flood_rate = 120.0;
    s.end_s = 30.0;
    s.flood_start_s = s.end_s / 3.0;
    s.flood_end_s = 2.0 * s.end_s / 3.0;
    s.period = SimTime::seconds(10);
    s.flood_salt = 0xCAFEu;
    return s;
  }
  s.stubs = tiny ? 16 : 1000;
  s.hosts = 1000;
  s.attacked = tiny ? 6 : 378;
  s.period = SimTime::seconds(20);
  const double t0 = s.period.to_seconds();
  const syndog::core::SynDogParams agent;
  const double f_min = syndog::core::SynDog::min_detectable_rate(
      agent.a, 0.0, kBackgroundRate * t0, s.period);
  s.flood_rate = 2.5 * f_min;
  s.flood_start_s = 60.0;
  // Eight flood periods where bench_campaign_scale runs four: a stub
  // whose K estimate starts high (a busy first period) can need more
  // than four at 2.5 f_min. Then one quiet period, so every record has
  // crossed when the victim's SYN count is checked.
  s.flood_end_s = s.flood_start_s + 8 * t0;
  s.end_s = s.flood_end_s + t0;
  s.flood_salt = 0x5CA1Eu;
  return s;
}

/// Hands freed heap pages back to the kernel after a campaign is torn
/// down. The nproc-worker run allocates from per-thread malloc arenas and
/// the reference from the main one, so without this the next batch's
/// peak resident set would include the previous campaign's free pages.
void release_free_memory() { malloc_trim(0); }

/// Builds and loads one campaign; everything here is set-up.
std::unique_ptr<CampaignSim> build(const Shape& shape, std::uint64_t seed) {
  syndog::campaign::CampaignParams params;
  params.stub_count = shape.stubs;
  params.hosts_per_stub = shape.hosts;
  params.agent_params.observation_period = shape.period;
  params.seed = seed;
  auto sim = std::make_unique<CampaignSim>(params);
  const SimTime end = SimTime::from_seconds(shape.end_s);
  for (int s = 0; s < shape.stubs; ++s) {
    sim->start_wire_background(s, kBackgroundRate, SimTime::zero(), end);
  }
  const syndog::net::Ipv4Prefix spoof =
      *syndog::net::Ipv4Prefix::parse("240.0.0.0/8");
  for (int s = 0; s < shape.attacked; ++s) {
    syndog::util::Rng rng = syndog::util::Rng::child(
        seed ^ shape.flood_salt, static_cast<std::uint64_t>(s));
    std::vector<SimTime> times;
    double t = shape.flood_start_s;
    while (true) {
      t += rng.exponential_mean(1.0 / shape.flood_rate);
      if (t >= shape.flood_end_s) break;
      times.push_back(SimTime::from_seconds(t));
    }
    sim->launch_flood(s, 1 + static_cast<std::uint32_t>(s) % shape.hosts,
                      times, spoof);
  }
  return sim;
}

/// Stubs whose verdict is wrong: attacked and silent, or clean and
/// alarmed. `corrupt` flips stub 0's verdict.
struct Verdicts {
  std::uint64_t missed = 0;
  std::uint64_t false_alarms = 0;
};

Verdicts wrong_verdicts(const CampaignSim& sim, const Shape& shape,
                        bool corrupt) {
  Verdicts v;
  for (int s = 0; s < shape.stubs; ++s) {
    bool alarmed = sim.agent(s).ever_alarmed();
    if (corrupt && s == 0) alarmed = !alarmed;
    if (s < shape.attacked && !alarmed) ++v.missed;
    if (s >= shape.attacked && alarmed) ++v.false_alarms;
  }
  return v;
}

/// What the traced reference loop measured for one campaign.
struct WindowTrace {
  double victim_s = 0.0;
  double stubs_s = 0.0;
  double exchange_s = 0.0;
  double critical_path_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> window_us;
};

/// CampaignSim::run_until(end), window by window, with a span around
/// each run_cell_until and each exchange_and_advance.
WindowTrace traced_run(CampaignSim& sim, SimTime end) {
  WindowTrace wt;
  const int cells = sim.cell_count();
  const int victim_cell = cells - 1;
  const Clock::time_point run_start = Clock::now();
  while (sim.now() < end) {
    const SimTime barrier = std::min(sim.now() + sim.window(), end);
    double window_s = 0.0;
    double slowest_s = 0.0;
    for (int c = 0; c < cells; ++c) {
      const Clock::time_point start = Clock::now();
      (void)sim.run_cell_until(c, barrier);
      const double t = seconds_since(start);
      (c == victim_cell ? wt.victim_s : wt.stubs_s) += t;
      window_s += t;
      slowest_s = std::max(slowest_s, t);
    }
    const Clock::time_point start = Clock::now();
    sim.exchange_and_advance(barrier);
    const double t = seconds_since(start);
    wt.exchange_s += t;
    wt.critical_path_s += slowest_s + t;
    wt.window_us.push_back((window_s + t) * 1e6);
  }
  wt.wall_s = seconds_since(run_start);
  return wt;
}

}  // namespace

Result run_campaign(const Options& opts, CampaignKind kind) {
  const Shape shape = shape_for(kind, opts.size);
  const SimTime end = SimTime::from_seconds(shape.end_s);
  const int workers = opts.nproc;

  Result result;
  Measurement m;
  WindowTrace total;
  double plain_s = 0.0;
  double events = 0.0;
  double barriers = 0.0;
  double cross_records = 0.0;

  const auto timed_build = [&](std::uint64_t seed) {
    const Clock::time_point start = Clock::now();
    auto sim = build(shape, seed);
    m.setups.push_back(seconds_since(start));
    return sim;
  };

  while (m.more(opts)) {
    m.begin_batch();
    const std::uint64_t seed = derive_seed(opts.seed, m.batches);

    auto sim = timed_build(seed);
    const Timing par = time_it([&] { sim->run_until(end, workers); });
    const std::string digest = sim->state_digest();
    const bool corrupt_batch = opts.corrupt && m.batches == 0;
    const Verdicts wrong = wrong_verdicts(*sim, shape, corrupt_batch);
    bool consistent = sim->cross_stats().to_victim ==
                      sim->victim().stats().syns_received;
    sim.reset();
    release_free_memory();

    auto ref = timed_build(seed);
    const Timing inline_run = time_it([&] { ref->run_until(end); });
    consistent = consistent && ref->state_digest() == digest;
    ref.reset();
    release_free_memory();

    if (opts.trace) {
      // A third copy through the traced reference loop: its digest must
      // match the timed run's too.
      auto traced = timed_build(seed);
      const WindowTrace wt = traced_run(*traced, end);
      consistent = consistent && traced->state_digest() == digest;
      total.victim_s += wt.victim_s;
      total.stubs_s += wt.stubs_s;
      total.exchange_s += wt.exchange_s;
      total.critical_path_s += wt.critical_path_s;
      total.wall_s += wt.wall_s;
      total.window_us.insert(total.window_us.end(), wt.window_us.begin(),
                             wt.window_us.end());
      plain_s += inline_run.wall_s;
      events += static_cast<double>(traced->events_executed());
      barriers += static_cast<double>(traced->cross_stats().barriers);
      cross_records +=
          static_cast<double>(traced->cross_stats().to_victim +
                              traced->cross_stats().to_stubs);
      m.measured_s += wt.wall_s;
    }

    const auto stubs = static_cast<std::uint64_t>(shape.stubs);
    result.attempted += stubs;
    result.failed += consistent ? wrong.missed + wrong.false_alarms : stubs;
    const std::string batch = "batch " + std::to_string(m.batches) + ": ";
    if (!consistent) {
      result.notes.push_back(batch + "digest or victim SYN identity mismatch");
    }
    if (wrong.missed + wrong.false_alarms != 0) {
      result.notes.push_back(batch + std::to_string(wrong.missed) +
                             " attacked stubs silent, " +
                             std::to_string(wrong.false_alarms) +
                             " clean stubs alarmed");
    }
    m.work.push_back({shape.end_s, par});
    m.ref_work.push_back({shape.end_s, inline_run});
    m.measured_s += par.wall_s + inline_run.wall_s;
    m.end_batch();
  }

  result.info["threads"] = std::to_string(workers);
  result.info["reference_threads"] = "1";
  result.info["stubs"] = std::to_string(shape.stubs);
  result.info["simulated_s"] = std::to_string(shape.end_s);
  m.report(result);
  if (opts.trace) {
    const double n = m.batches;
    const double serial_s = total.victim_s + total.stubs_s + total.exchange_s;
    const double cells_s = total.victim_s + total.stubs_s;
    result.metric("campaign.victim_cell_busy_s", total.victim_s / n, "s");
    result.metric("campaign.stub_cells_busy_s", total.stubs_s / n, "s");
    // Share of the critical path the victim cell alone accounts for.
    result.metric("campaign.victim_share",
                  total.victim_s / total.critical_path_s, "ratio");
    result.metric("campaign.critical_path_s", total.critical_path_s / n, "s");
    result.metric("campaign.parallel_ceiling",
                  serial_s / total.critical_path_s, "ratio");
    result.metric("campaign.events", events / n, "count");
    result.metric("campaign.events_per_s", events / cells_s, "1/s");
    result.metric("campaign.exchange_s", total.exchange_s / n, "s");
    result.metric("campaign.barriers", barriers / n, "count");
    result.metric("campaign.cross_records", cross_records / n, "count");
    result.metric("campaign.exchange_ns_per_record",
                  total.exchange_s * 1e9 / cross_records, "ns");
    result.metric("campaign.window_p50_us", quantile(total.window_us, 0.5),
                  "us");
    result.metric("campaign.window_p99_us", quantile(total.window_us, 0.99),
                  "us");
    // Against the screened nproc-worker wall, like work_per_s.
    const double parallel_wall_s = shape.end_s / screened_rate(m.work);
    result.metric("campaign.parallel_efficiency",
                  serial_s / n / (workers * parallel_wall_s), "ratio");
    result.metric("bench.trace_overhead", total.wall_s / plain_s, "ratio");
  }
  return result;
}

}  // namespace perfbench
