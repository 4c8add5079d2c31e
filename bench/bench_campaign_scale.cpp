// Sharded campaign DES at the paper's §4.2.3 scale: 1,000 stub networks
// (a 1,000,000-host simulated address space) sharing one victim, with
// the attack spread across A_s = 378 stubs — the UNC hiding bound from
// `bench_sensitivity_bound` (V = 14,000 SYN/s, f_min = 37 SYN/s there;
// here the same *ratios* f_i / f_min drive a wire-rate campaign sized to
// the sim's own f_min = a * K-bar / t0).
//
// Three waves, each a fresh campaign over the same 1,000 stubs:
//  * detectable — f_i = 2.5 f_min: every attacked stub must alarm;
//  * boundary   — f_i = 1.0 f_min: zero CUSUM drift, the knife edge;
//  * hiding     — f_i = 0.7 f_min: the spread-out attacker wins, nobody
//    should alarm (the paper's evasion capacity, finally exercised).
//
// The detectable wave is additionally re-run with workers 2, 4 and 8.
// Each run's merged state digest is byte-compared against the workers=1
// run (merge_match) — the determinism contract at full scale — and the
// wall-derived events_per_sec_w1/_w2/_w4 and speedup_w4 record how the
// campaign scales with workers.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/experiment.hpp"
#include "common/sidecar.hpp"
#include "syndog/campaign/campaign_sim.hpp"
#include "syndog/core/syndog.hpp"
#include "syndog/net/address.hpp"
#include "syndog/obs/wallclock.hpp"
#include "syndog/util/rng.hpp"
#include "syndog/util/time.hpp"

using namespace syndog;
using util::SimTime;

namespace {

constexpr int kStubs = 1000;
constexpr std::uint32_t kHostsPerStub = 1000;  // 1M-host address space
constexpr int kAttackedStubs = 378;            // A_s at the UNC bound
constexpr double kBgRate = 3.0;                // SYN/s per stub
constexpr double kWarmupS = 60.0;              // 3 periods of K settling
constexpr double kEndS = 140.0;                // + 4 flood periods

campaign::CampaignParams scale_params() {
  campaign::CampaignParams p;
  p.stub_count = kStubs;
  p.hosts_per_stub = kHostsPerStub;
  p.seed = 17;
  return p;
}

struct WaveRun {
  std::unique_ptr<campaign::CampaignSim> sim;
  double wall_s = 0.0;  ///< run_until only, not the set-up

  [[nodiscard]] double events_per_sec() const {
    return static_cast<double>(sim->events_executed()) / wall_s;
  }
};

WaveRun run_wave(double per_stub_rate, int workers) {
  auto sim = std::make_unique<campaign::CampaignSim>(scale_params());
  for (int s = 0; s < kStubs; ++s) {
    sim->start_wire_background(s, kBgRate, SimTime::zero(),
                               SimTime::from_seconds(kEndS));
  }
  const net::Ipv4Prefix spoof = *net::Ipv4Prefix::parse("240.0.0.0/8");
  for (int s = 0; s < kAttackedStubs; ++s) {
    util::Rng rng = util::Rng::child(0x5CA1Eu,
                                     static_cast<std::uint64_t>(s));
    std::vector<SimTime> times;
    double t = kWarmupS;
    while (true) {
      t += rng.exponential_mean(1.0 / per_stub_rate);
      if (t >= kEndS) break;
      times.push_back(SimTime::from_seconds(t));
    }
    sim->launch_flood(s, 1, times, spoof);
  }
  const obs::WallClock clock;
  const std::int64_t wall_start = clock.now_ns();
  sim->run_until(SimTime::from_seconds(kEndS), workers);
  const double wall_s =
      static_cast<double>(clock.now_ns() - wall_start) / 1e9;
  return {std::move(sim), wall_s};
}

int alarmed_attacked(const campaign::CampaignSim& sim) {
  int count = 0;
  for (int s = 0; s < kAttackedStubs; ++s) {
    if (sim.agent(s).ever_alarmed()) ++count;
  }
  return count;
}

}  // namespace

int main() {
  bench::print_header(
      "campaign_scale",
      "Sharded 1,000-stub campaign DES at the Eq. (8) hiding bound",
      "A_s=378 attacked stubs, f_i/f_min in {2.5, 1.0, 0.7}; workers 1 "
      "vs 2/4/8 byte-compared");

  // The sim's own sensitivity bound (conservative c = 0, like
  // bench_sensitivity_bound): K-bar settles at bg_rate * t0.
  const core::SynDogParams agent = scale_params().agent_params;
  const double t0 = agent.observation_period.to_seconds();
  const double f_min =
      core::SynDog::min_detectable_rate(agent.a, 0.0, kBgRate * t0,
                                        agent.observation_period);
  std::printf("sim f_min = %.3f SYN/s per stub (a=%.2f, K-bar=%.0f, "
              "t0=%.0f s)\n\n",
              f_min, agent.a, kBgRate * t0, t0);

  struct Wave {
    const char* name;
    double ratio;
  };
  const Wave waves[] = {{"detectable", 2.5},
                        {"boundary", 1.0},
                        {"hiding", 0.7}};

  std::string detectable_digest;
  double detectable_wall_s = 0.0;
  double detectable_events_per_sec = 0.0;
  for (const Wave& wave : waves) {
    const double rate = wave.ratio * f_min;
    const WaveRun run = run_wave(rate, 1);
    const auto& sim = run.sim;
    const int attacked = alarmed_attacked(*sim);
    const int total = sim->stubs_alarmed();
    std::printf(
        "%-10s  f_i=%.2f SYN/s (%.1fx f_min): %3d/%d attacked stubs "
        "alarmed, %d false alarms, %.2fs wall, %.2e events/s\n",
        wave.name, rate, wave.ratio, attacked, kAttackedStubs,
        total - attacked, run.wall_s, run.events_per_sec());
    bench::sidecar()->scalar(std::string("fi_over_fmin_") + wave.name,
                             wave.ratio);
    bench::sidecar()->scalar(std::string("stubs_alarmed_") + wave.name,
                             attacked);
    bench::sidecar()->scalar(std::string("false_alarms_") + wave.name,
                             total - attacked);
    if (wave.ratio > 2.0) {
      detectable_digest = sim->state_digest();
      detectable_wall_s = run.wall_s;
      detectable_events_per_sec = run.events_per_sec();
      bench::sidecar()->scalar("stubs", kStubs);
      bench::sidecar()->scalar("hosts_simulated",
                               static_cast<double>(kStubs) *
                                   kHostsPerStub);
      bench::sidecar()->scalar("events_per_sec", detectable_events_per_sec);
      bench::sidecar()->scalar(
          "cross_records",
          static_cast<double>(sim->cross_stats().to_victim));
      // The realized per-stub share, the empirical side of
      // bench_sensitivity_bound's per_stub_fi_* scalars.
      const double realized_fi =
          static_cast<double>(sim->cross_stats().to_victim) /
          kAttackedStubs / (kEndS - kWarmupS);
      bench::sidecar()->scalar("realized_fi_detectable", realized_fi);
      bench::sidecar()->scalar("realized_fi_over_fmin",
                               realized_fi / f_min);
    }
  }

  // Determinism at scale: the same detectable wave on 2, 4 and 8
  // workers must reproduce the workers=1 digest byte for byte. 8 workers
  // oversubscribe a 4-CPU host on purpose.
  std::printf("\nworkers  wall s   events/s  speedup  digest\n");
  std::printf("%7d  %6.2f  %9.2e  %7.2f  (reference)\n", 1,
              detectable_wall_s, detectable_events_per_sec, 1.0);
  bench::sidecar()->scalar("events_per_sec_w1", detectable_events_per_sec);
  bool match = true;
  for (const int workers : {2, 4, 8}) {
    const WaveRun run = run_wave(2.5 * f_min, workers);
    const bool same = run.sim->state_digest() == detectable_digest;
    match = match && same;
    const double speedup = run.events_per_sec() / detectable_events_per_sec;
    std::printf("%7d  %6.2f  %9.2e  %7.2f  %s\n", workers, run.wall_s,
                run.events_per_sec(), speedup,
                same ? "matches" : "DIVERGES");
    if (workers == 8) continue;
    bench::sidecar()->scalar("events_per_sec_w" + std::to_string(workers),
                             run.events_per_sec());
    if (workers == 4) bench::sidecar()->scalar("speedup_w4", speedup);
  }
  bench::sidecar()->scalar("merge_match", match ? 1.0 : 0.0);
  std::printf(
      "\nworkers 2/4/8 reruns: %zu-byte state digest %s the workers=1 run\n",
      detectable_digest.size(), match ? "MATCHES" : "DIVERGES from");
  std::printf(
      "\nexpected: all attacked stubs alarm at 2.5x f_min, none hide at "
      "0.7x,\nand the merged digest is identical at any worker count.\n");
  return 0;
}
