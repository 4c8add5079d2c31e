// syndog_tool — command-line front end to the library.
//
//   syndog_tool gen-trace [site=unc] [seed=42] [out=trace.pcap]
//                         [flood_rate=0] [flood_start_min=5]
//                         [format=pcap|pcapng]
//       render a calibrated synthetic leaf-router capture (optionally
//       with a spoofed flood mixed in) to a pcap file
//
//   syndog_tool analyze <file.pcap> [a=0.35] [N=1.05] [t0=20]
//                         [stub=10.1.0.0/16]
//       run the SYN-dog detector over an Ethernet capture and report
//       per-period statistics, alarms, and MAC suspects
//
//   syndog_tool sensitivity [site=unc] [seed=42]
//       estimate a site's K-bar, c, and the Eq. (8) detection floor,
//       plus the hiding capacity against V=14000 SYN/s campaigns
//
//   syndog_tool sweep [site=unc] [trials=10] [rates=30,40,60,90]
//       detection probability/delay table over flood rates
//
//   syndog_tool calibrate <capture> [stub=10.1.0.0/16] [t0=20]
//       derive a site profile (K-bar, c, burstiness, recommended
//       detector parameters) from any pcap/pcapng capture
//
// analyze and calibrate accept both classic pcap and pcapng files.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "syndog/attack/campaign.hpp"
#include "syndog/attack/flood.hpp"
#include "syndog/classify/segment.hpp"
#include "syndog/core/locator.hpp"
#include "syndog/core/sniffer.hpp"
#include "syndog/core/syndog.hpp"
#include "syndog/detect/arl_bins.hpp"
#include "syndog/ingest/capture_source.hpp"
#include "syndog/pcap/pcap.hpp"
#include "syndog/pcap/pcapng.hpp"
#include "syndog/stats/online.hpp"
#include "syndog/trace/calibrate.hpp"
#include "syndog/trace/render.hpp"
#include "syndog/trace/site.hpp"
#include "syndog/util/config.hpp"
#include "syndog/util/strings.hpp"
#include "syndog/util/table.hpp"

using namespace syndog;

namespace {

trace::SiteId parse_site(const util::Config& cfg) {
  const std::string name = cfg.get_string("site", "unc");
  if (util::iequals(name, "lbl")) return trace::SiteId::kLbl;
  if (util::iequals(name, "harvard")) return trace::SiteId::kHarvard;
  if (util::iequals(name, "unc")) return trace::SiteId::kUnc;
  if (util::iequals(name, "auckland")) return trace::SiteId::kAuckland;
  throw std::invalid_argument("unknown site '" + name +
                              "' (lbl|harvard|unc|auckland)");
}

core::SynDogParams parse_params(const util::Config& cfg) {
  core::SynDogParams params = core::SynDogParams::paper_defaults();
  params.a = cfg.get_double("a", params.a);
  params.h = cfg.get_double("h", 2.0 * params.a);
  params.threshold = cfg.get_double("N", params.threshold);
  params.ewma_alpha = cfg.get_double("alpha", params.ewma_alpha);
  params.observation_period =
      util::SimTime::seconds(cfg.get_int("t0", 20));
  return params;
}

int cmd_gen_trace(const util::Config& cfg) {
  cfg.require_known_keys(
      {"site", "seed", "out", "flood_rate", "flood_start_min", "format"});
  const trace::SiteSpec spec = trace::site_spec(parse_site(cfg));
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));
  const std::string out_path =
      cfg.get_string("out", util::strprintf("%s.pcap", spec.name.c_str()));

  std::vector<trace::TimedPacket> packets =
      trace::render_trace(trace::generate_site_trace(spec, seed),
                          trace::RenderConfig{});
  const double flood_rate = cfg.get_double("flood_rate", 0.0);
  if (flood_rate > 0.0) {
    attack::FloodSpec flood;
    flood.rate = flood_rate;
    flood.start =
        util::SimTime::minutes(cfg.get_int("flood_start_min", 5));
    flood.duration = util::SimTime::minutes(10);
    util::Rng rng(seed ^ 0xf1);
    packets = trace::merge_packets(
        std::move(packets),
        trace::render_attack(attack::generate_flood_times(flood, rng),
                             trace::AttackRenderConfig{}));
  }

  std::ofstream file(out_path, std::ios::binary | std::ios::trunc);
  if (!file) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  const std::string format = cfg.get_string("format", "pcap");
  std::uint64_t written = 0;
  if (util::iequals(format, "pcapng")) {
    pcap::PcapngWriter writer(file);
    for (const trace::TimedPacket& tp : packets) {
      writer.write(tp.at, net::encode_frame(tp.packet));
    }
    written = writer.records_written();
  } else if (util::iequals(format, "pcap")) {
    pcap::Writer writer(file);
    for (const trace::TimedPacket& tp : packets) {
      writer.write(tp.at, net::encode_frame(tp.packet));
    }
    written = writer.records_written();
  } else {
    std::fprintf(stderr, "unknown format '%s' (pcap|pcapng)\n",
                 format.c_str());
    return 1;
  }
  std::printf("%s (%s): %llu frames, %s of %s traffic%s\n",
              out_path.c_str(), format.c_str(),
              static_cast<unsigned long long>(written),
              spec.duration.to_string().c_str(), spec.name.c_str(),
              flood_rate > 0.0
                  ? util::strprintf(" + %.0f SYN/s flood", flood_rate)
                        .c_str()
                  : "");
  return 0;
}

int cmd_analyze(const std::string& path, const util::Config& cfg) {
  cfg.require_known_keys({"stub", "a", "h", "N", "alpha", "t0"});
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  const auto stub = net::Ipv4Prefix::parse(
      cfg.get_string("stub", "10.1.0.0/16"));
  if (!stub) {
    std::fprintf(stderr, "bad stub prefix\n");
    return 1;
  }

  ingest::CaptureSource source(file);
  const core::SynDogParams params = parse_params(cfg);
  core::SynDog dog(params);
  core::Sniffer outbound(core::SnifferRole::kOutbound);
  core::Sniffer inbound(core::SnifferRole::kInbound);
  core::SourceLocator locator(*stub);

  util::TextTable table({"period", "SYN", "SYN/ACK", "Xn", "yn", "alarm"});
  util::SimTime period_end = params.observation_period;
  int alarms = 0;
  const auto close_period = [&] {
    const core::PeriodReport r = dog.observe_period(
        static_cast<std::int64_t>(outbound.harvest()),
        static_cast<std::int64_t>(inbound.harvest()));
    alarms += r.alarm ? 1 : 0;
    table.add_row({std::to_string(r.period_index),
                   std::to_string(r.syn_count),
                   std::to_string(r.syn_ack_count),
                   util::format_double(r.x, 3),
                   util::format_double(r.y, 3), r.alarm ? "ALARM" : ""});
  };

  pcap::RecordView rec;
  while (source.next(rec)) {
    while (rec.timestamp >= period_end) {
      close_period();
      period_end += params.observation_period;
    }
    const auto pkt = net::decode_frame(rec.data);
    if (!pkt) continue;
    const bool out_dir =
        stub->contains(pkt->ip.src) || !stub->contains(pkt->ip.dst);
    if (out_dir) {
      outbound.on_frame(rec.data);
      locator.on_packet(rec.timestamp, *pkt);
    } else {
      inbound.on_frame(rec.data);
    }
  }
  close_period();

  std::printf("%s", table.to_string().c_str());
  std::printf("%d alarm period(s); K estimate %.1f; Eq. (8) floor %.2f "
              "SYN/s\n",
              alarms, dog.k(), dog.min_detectable_rate());
  if (alarms > 0) {
    std::printf("suspects (stations emitting spoofed-source SYNs):\n");
    for (const core::Suspect& s : locator.suspects()) {
      std::printf("  %s  spoofed=%llu total=%llu first=%s last=%s\n",
                  s.mac.to_string().c_str(),
                  static_cast<unsigned long long>(s.spoofed_syns),
                  static_cast<unsigned long long>(s.total_syns),
                  s.first_seen.to_string().c_str(),
                  s.last_seen.to_string().c_str());
    }
  }
  return alarms > 0 ? 2 : 0;  // distinct exit code when a flood was found
}

int cmd_sensitivity(const util::Config& cfg) {
  cfg.require_known_keys({"site", "seed", "a", "h", "N", "alpha", "t0"});
  const trace::SiteSpec spec = trace::site_spec(parse_site(cfg));
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));
  const trace::PeriodSeries ps = trace::extract_periods(
      trace::generate_site_trace(spec, seed), trace::kObservationPeriod);
  stats::OnlineStats k;
  double delta = 0.0;
  double acks = 0.0;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    k.add(static_cast<double>(ps.in_syn_ack[i]));
    delta += static_cast<double>(ps.out_syn[i] - ps.in_syn_ack[i]);
    acks += static_cast<double>(ps.in_syn_ack[i]);
  }
  const core::SynDogParams params = parse_params(cfg);
  const double c = acks > 0 ? delta / acks : 0.0;
  const double floor_c0 = core::SynDog::min_detectable_rate(
      params.a, 0.0, k.mean(), params.observation_period);
  std::printf(
      "%s: %zu periods, K-bar = %.1f +- %.1f per %lld s, c = %.4f\n"
      "Eq. (8) detection floor: %.2f SYN/s (conservative, c=0); %.2f "
      "using measured c\n"
      "hiding capacity vs V=14000 SYN/s: %lld stubs of this size\n",
      spec.name.c_str(), ps.size(), k.mean(), k.stddev(),
      static_cast<long long>(params.observation_period.to_seconds()), c,
      floor_c0,
      core::SynDog::min_detectable_rate(params.a, c, k.mean(),
                                        params.observation_period),
      static_cast<long long>(
          attack::max_hiding_stubs(attack::kFirewalledServerRate,
                                   floor_c0)));

  // False-alarm budget via the scaled-Poisson ARL (docs: arl.hpp). The
  // site's diurnal swing means one mean-rate ARL misleads: quiet hours
  // have small lambda, a heavier-tailed scaled Poisson, and a shorter
  // run length. Bin the realized per-period SYN/ACK counts into
  // quartiles, model each bin as Poisson(c * lambda_bin) scaled by an
  // adaptive K-bar ~ lambda_bin, and combine false-alarm *rates* (the
  // harmonic mean of the per-bin ARLs weighted by occupancy).
  if (c > 0.0) {
    std::vector<double> counts;
    counts.reserve(ps.size());
    for (std::size_t i = 0; i < ps.size(); ++i) {
      if (ps.in_syn_ack[i] > 0) {
        counts.push_back(static_cast<double>(ps.in_syn_ack[i]));
      }
    }
    detect::BinnedArlSpec bins_spec;
    bins_spec.c = c;
    bins_spec.offset = params.a;
    bins_spec.threshold = params.threshold;
    const detect::BinnedArlResult budget =
        detect::binned_poisson_arl(std::move(counts), k.mean(), bins_spec);
    if (!budget.bins.empty()) {
      const double t0_s = params.observation_period.to_seconds();
      util::TextTable arl_table(
          {"lambda bin", "mean SYN/ACK per t0", "ARL0 (periods)",
           "ARL0 (days)"});
      for (std::size_t b = 0; b < budget.bins.size(); ++b) {
        const detect::LambdaBinArl& bin = budget.bins[b];
        arl_table.add_row(
            {"q" + std::to_string(b + 1),
             util::format_double(bin.lambda, 1),
             util::format_double(bin.arl0, 0),
             util::format_double(bin.arl0 * t0_s / 86400.0, 1)});
      }
      std::printf("\nscaled-Poisson CUSUM false-alarm budget (a=%.2f, "
                  "N=%.2f):\n%s",
                  params.a, params.threshold, arl_table.to_string().c_str());
      std::printf(
          "mean-rate ARL0: %.0f periods (%.1f days); rate-averaged over "
          "bins: %.0f periods (%.1f days)\n"
          "the quiet-hour bins dominate the realized false-alarm rate -- "
          "size N for q1, not for the mean\n",
          budget.mean_rate_arl0, budget.mean_rate_arl0 * t0_s / 86400.0,
          budget.combined_arl0, budget.combined_arl0 * t0_s / 86400.0);
    }
  }
  return 0;
}

int cmd_sweep(const util::Config& cfg) {
  cfg.require_known_keys(
      {"site", "trials", "rates", "a", "h", "N", "alpha", "t0"});
  const trace::SiteSpec spec = trace::site_spec(parse_site(cfg));
  const std::int64_t trials = cfg.get_int("trials", 10);
  if (trials < 1) throw std::invalid_argument("trials must be >= 1");
  const core::SynDogParams params = parse_params(cfg);
  std::vector<double> rates;
  for (const std::string& r :
       util::split(cfg.get_string("rates", "30,40,60,90"), ',')) {
    double rate = 0.0;
    if (!util::parse_whole(r, rate) || !std::isfinite(rate) || rate <= 0.0) {
      throw std::invalid_argument("rates: '" + r +
                                  "' is not a positive flood rate");
    }
    rates.push_back(rate);
  }

  util::TextTable table({"fi (SYN/s)", "detect prob", "mean delay [t0]",
                         "false alarms"});
  for (const double fi : rates) {
    int detected = 0;
    int false_alarms = 0;
    double delay_sum = 0.0;
    for (std::int64_t t = 0; t < trials; ++t) {
      trace::PeriodSeries ps = trace::extract_periods(
          trace::generate_site_trace(spec, 7000 + t),
          params.observation_period);
      util::Rng rng(8000 + t);
      attack::FloodSpec flood;
      flood.rate = fi;
      flood.start = util::SimTime::from_seconds(rng.uniform(
          180.0, std::max(200.0, spec.duration.to_seconds() - 660.0)));
      const auto times = attack::generate_flood_times(flood, rng);
      ps.add_outbound_syns(
          trace::bucket_times(times, ps.period, ps.size()));
      const auto reports =
          core::run_over_series(params, ps.out_syn, ps.in_syn_ack);
      const std::int64_t onset = flood.start / ps.period;
      const std::int64_t fend = std::min<std::int64_t>(
          (flood.start + flood.duration) / ps.period,
          static_cast<std::int64_t>(ps.size()) - 1);
      for (std::int64_t n = 0; n < onset; ++n) {
        false_alarms += reports[static_cast<std::size_t>(n)].alarm;
      }
      for (std::int64_t n = onset; n <= fend; ++n) {
        if (reports[static_cast<std::size_t>(n)].alarm) {
          ++detected;
          delay_sum += static_cast<double>(n - onset);
          break;
        }
      }
    }
    table.add_row({util::format_double(fi, 2),
                   util::format_double(
                       static_cast<double>(detected) / trials, 2),
                   detected ? util::format_double(delay_sum / detected, 2)
                            : "-",
                   std::to_string(false_alarms)});
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}


/// Derives a site profile from an arbitrary capture: per-period SYN and
/// SYN/ACK statistics, the normalized-difference mean c, and detector
/// parameters recommended by the same rules AdaptiveSynDog uses.
int cmd_calibrate(const std::string& path, const util::Config& cfg) {
  cfg.require_known_keys({"stub", "t0"});
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  const auto stub =
      net::Ipv4Prefix::parse(cfg.get_string("stub", "10.1.0.0/16"));
  if (!stub) {
    std::fprintf(stderr, "bad stub prefix\n");
    return 1;
  }
  const util::SimTime t0 = util::SimTime::seconds(cfg.get_int("t0", 20));

  // Bucket outgoing SYNs and incoming SYN/ACKs per period.
  ingest::CaptureSource source(file);
  std::vector<std::int64_t> syns;
  std::vector<std::int64_t> acks;
  pcap::RecordView rec;
  while (source.next(rec)) {
    const auto idx = static_cast<std::size_t>(rec.timestamp / t0);
    if (idx >= syns.size()) {
      syns.resize(idx + 1, 0);
      acks.resize(idx + 1, 0);
    }
    const auto kind = classify::classify_frame_fast(rec.data);
    if (kind != classify::SegmentKind::kSyn &&
        kind != classify::SegmentKind::kSynAck) {
      continue;
    }
    const auto pkt = net::decode_frame(rec.data);
    if (!pkt) continue;
    const bool out_dir =
        stub->contains(pkt->ip.src) || !stub->contains(pkt->ip.dst);
    if (kind == classify::SegmentKind::kSyn && out_dir) {
      ++syns[idx];
    } else if (kind == classify::SegmentKind::kSynAck && !out_dir) {
      ++acks[idx];
    }
  }

  if (source.records_read() == 0) {
    std::fprintf(stderr, "%s: no packets\n", path.c_str());
    return 1;
  }

  const trace::SiteProfile profile =
      trace::profile_counts(syns, acks, t0);
  std::printf(
      "%s: %zu packets over %zu periods of %lld s\n"
      "  K-bar = %.1f +- %.1f SYN/ACKs per period (cv %.2f)\n"
      "  c = %.4f, sigma(Xn) = %.4f\n"
      "recommended detector parameters (c + 6 sigma rule, N = 3a):\n"
      "  a = %.3f  N = %.3f  -> detection floor %.2f SYN/s\n"
      "universal parameters would give a floor of %.2f SYN/s\n",
      path.c_str(), static_cast<std::size_t>(source.records_read()),
      profile.periods,
      static_cast<long long>(t0.to_seconds()), profile.k_bar,
      profile.k_stddev, profile.k_cv, profile.c, profile.x_sigma,
      profile.recommended_a, profile.recommended_threshold,
      profile.floor_recommended, profile.floor_universal);
  const trace::SiteSpec rebuilt = trace::spec_from_profile(
      profile, t0 * static_cast<std::int64_t>(profile.periods));
  std::printf(
      "synthetic twin: outbound_rate=%.2f conn/s, loss p=%.4f, "
      "onoff_sources=%d\n(use these SiteSpec fields to regenerate "
      "matching workloads)\n",
      rebuilt.outbound_rate, rebuilt.handshake.no_answer_probability,
      rebuilt.onoff_sources);
  return 0;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: syndog_tool <command> [key=value ...]\n"
      "  gen-trace    [site= seed= out= flood_rate= flood_start_min= "
      "format=]\n"
      "  analyze <pcap> [a= h= N= t0= alpha= stub=]\n"
      "  sensitivity  [site= seed= a= h= N= t0= alpha=]\n"
      "  sweep        [site= trials= rates= a= h= N= t0= alpha=]\n"
      "  calibrate <capture> [stub= t0=]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 64;
  }
  try {
    const std::string command = argv[1];
    if (command == "gen-trace") {
      return cmd_gen_trace(util::Config::from_args(argc - 2, argv + 2));
    }
    if (command == "analyze") {
      if (argc < 3 || std::strchr(argv[2], '=') != nullptr) {
        usage();
        return 64;
      }
      return cmd_analyze(argv[2],
                         util::Config::from_args(argc - 3, argv + 3));
    }
    if (command == "sensitivity") {
      return cmd_sensitivity(util::Config::from_args(argc - 2, argv + 2));
    }
    if (command == "sweep") {
      return cmd_sweep(util::Config::from_args(argc - 2, argv + 2));
    }
    if (command == "calibrate") {
      if (argc < 3 || std::strchr(argv[2], '=') != nullptr) {
        usage();
        return 64;
      }
      return cmd_calibrate(argv[2],
                           util::Config::from_args(argc - 3, argv + 3));
    }
    usage();
    return 64;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "syndog_tool: %s\n", ex.what());
    return 1;
  }
}
