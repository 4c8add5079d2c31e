// syndog_campaign — sharded thousand-stub campaign runner CLI.
//
// Runs a distributed SYN-flood campaign against one victim across
// `--stubs` stub networks sharded over `--workers` threads, and prints a
// deterministic report: per-wave alarm counts, cross-shard traffic
// totals, and the campaign state digest. Output depends only on
// (--stubs, --hosts, --cells, --seed, --minutes) — never on --workers —
// which is what the campaign_workers_equivalence ctest pins byte for
// byte.
//
//   syndog_campaign [--stubs N] [--workers N] [--seed N] [--minutes N]
//                   [--hosts N] [--cells N]
//
// Every value must be one whole decimal number; an unknown flag, a
// missing or malformed value, or a count below its minimum exits 2 with
// the usage line instead of running a default.
#include <climits>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "syndog/campaign/campaign_sim.hpp"
#include "syndog/net/address.hpp"
#include "syndog/util/rng.hpp"
#include "syndog/util/strings.hpp"
#include "syndog/util/time.hpp"

using namespace syndog;
using util::SimTime;

namespace {

constexpr const char* kUsage =
    "usage: syndog_campaign [--stubs N] [--workers N] [--seed N] "
    "[--minutes N] [--hosts N] [--cells N]\n";

struct Flag {
  std::string_view name;
  std::int64_t value;  ///< the default until the flag is given
  std::int64_t min;
};

int reject(const std::string& why) {
  std::fprintf(stderr, "syndog_campaign: %s\n%s", why.c_str(), kUsage);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Flag flags[] = {{"--stubs", 64, 1},  {"--workers", 1, 1},
                  {"--seed", 1, 0},    {"--minutes", 2, 0},
                  {"--hosts", 100, 1}, {"--cells", 0, 0}};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    }
    Flag* flag = nullptr;
    for (Flag& f : flags) {
      if (f.name == arg) flag = &f;
    }
    if (flag == nullptr) {
      return reject("unknown argument '" + std::string(arg) + "'");
    }
    if (i + 1 >= argc) return reject(std::string(arg) + " needs a value");
    const std::string_view text = argv[++i];
    std::int64_t v = 0;
    if (!util::parse_whole(text, v)) {
      return reject(std::string(arg) + ": '" + std::string(text) +
                    "' is not a whole number");
    }
    if (v < flag->min) {
      return reject(std::string(arg) + " must be at least " +
                    std::to_string(flag->min));
    }
    if (v > INT_MAX) return reject(std::string(arg) + " is out of range");
    flag->value = v;
  }
  const auto stubs = static_cast<int>(flags[0].value);
  const auto workers = static_cast<int>(flags[1].value);
  const auto seed = static_cast<std::uint64_t>(flags[2].value);
  const std::int64_t minutes = flags[3].value;
  const auto hosts = static_cast<std::uint32_t>(flags[4].value);
  const auto cells = static_cast<int>(flags[5].value);

  try {
    campaign::CampaignParams params;
    params.stub_count = stubs;
    params.hosts_per_stub = hosts;
    params.cells = cells;
    params.agent_params.observation_period = SimTime::seconds(10);
    params.seed = seed;
    campaign::CampaignSim sim(params);

    const SimTime end = SimTime::minutes(minutes);
    const double bg_rate = 3.0;  // SYN/s of benign wire background per stub
    for (int s = 0; s < stubs; ++s) {
      sim.start_wire_background(s, bg_rate, SimTime::zero(), end);
    }

    // One slave per stub floods the shared victim from one third of the
    // run to two thirds, well above f_min so every stub should alarm.
    const double flood_rate = 120.0;
    const double flood_start = end.to_seconds() / 3.0;
    const double flood_end = 2.0 * end.to_seconds() / 3.0;
    const net::Ipv4Prefix spoof_pool =
        *net::Ipv4Prefix::parse("240.0.0.0/8");
    for (int s = 0; s < stubs; ++s) {
      util::Rng rng =
          util::Rng::child(seed ^ 0xCAFEu, static_cast<std::uint64_t>(s));
      std::vector<SimTime> times;
      double t = flood_start;
      while (true) {
        t += rng.exponential_mean(1.0 / flood_rate);
        if (t >= flood_end) break;
        times.push_back(SimTime::from_seconds(t));
      }
      sim.launch_flood(s, 1 + s % static_cast<int>(hosts), times, spoof_pool);
    }

    sim.run_until(end, workers);

    std::printf("syndog_campaign: %d stubs x %u hosts, %lld min, seed %llu\n",
                stubs, hosts, static_cast<long long>(minutes),
                static_cast<unsigned long long>(seed));
    std::printf(
        "flood: %.0f SYN/s per stub over [%.0f s, %.0f s) -> %d/%d stubs "
        "alarmed\n",
        flood_rate, flood_start, flood_end, sim.stubs_alarmed(), stubs);
    const campaign::CrossStats& cross = sim.cross_stats();
    std::printf(
        "cross-shard: %llu records to victim, %llu replies to stubs, %llu "
        "replies died unreachable, %llu barriers\n",
        static_cast<unsigned long long>(cross.to_victim),
        static_cast<unsigned long long>(cross.to_stubs),
        static_cast<unsigned long long>(cross.dropped_unreachable),
        static_cast<unsigned long long>(cross.barriers));
    const sim::TcpHostStats& v = sim.victim().stats();
    std::printf("victim: %llu SYNs, %llu SYN/ACKs, %llu backlog drops\n",
                static_cast<unsigned long long>(v.syns_received),
                static_cast<unsigned long long>(v.syn_acks_sent),
                static_cast<unsigned long long>(v.backlog_drops));
    const auto alarms = sim.merged_alarms();
    std::printf("alarm timeline: %zu alarms", alarms.size());
    if (!alarms.empty()) {
      std::printf(", first stub %d at %s", alarms.front().stub,
                  alarms.front().event.at.to_string().c_str());
    }
    std::printf("\n\n-- state digest (worker-count invariant) --\n%s",
                sim.state_digest().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "syndog_campaign: %s\n", e.what());
    return 1;
  }
}
