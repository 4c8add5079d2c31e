#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "syndog/core/agent.hpp"
#include "syndog/core/locator.hpp"
#include "syndog/core/sniffer.hpp"
#include "syndog/core/syndog.hpp"
#include "syndog/net/packet.hpp"

namespace syndog::core {
namespace {

using util::SimTime;

// --- SynDog detector -----------------------------------------------------------

TEST(SynDogTest, NormalizationAndCusumByHand) {
  SynDogParams params;
  params.a = 0.35;
  params.threshold = 1.05;
  params.ewma_alpha = 0.9;
  SynDog dog(params);

  // Period 0: K unprimed -> normalize by the current SYN/ACK count.
  PeriodReport r0 = dog.observe_period(1050, 1000);
  EXPECT_DOUBLE_EQ(r0.delta, 50.0);
  EXPECT_DOUBLE_EQ(r0.x, 0.05);
  EXPECT_DOUBLE_EQ(r0.k_estimate, 1000.0);
  EXPECT_DOUBLE_EQ(r0.y, 0.0);  // 0.05 - 0.35 clamps to 0
  EXPECT_FALSE(r0.alarm);

  // Period 1: normalized by K(0) = 1000, then K updates per Eq. (1).
  PeriodReport r1 = dog.observe_period(2000, 1100);
  EXPECT_DOUBLE_EQ(r1.x, 900.0 / 1000.0);
  EXPECT_DOUBLE_EQ(r1.k_estimate, 0.9 * 1000.0 + 0.1 * 1100.0);
  EXPECT_DOUBLE_EQ(r1.y, 0.9 - 0.35);
  EXPECT_FALSE(r1.alarm);

  // Period 2: attack continues; y crosses N.
  PeriodReport r2 = dog.observe_period(2010, 1000);
  EXPECT_NEAR(r2.y, 0.55 + 1010.0 / 1010.0 - 0.35, 1e-12);
  EXPECT_TRUE(r2.alarm);
}

TEST(SynDogTest, SpoofedFloodDoesNotPoisonK) {
  // The SYN/ACK stream is driven by legitimate traffic only, so K must
  // stay at the pre-attack level during a flood.
  SynDog dog(SynDogParams::paper_defaults());
  for (int n = 0; n < 50; ++n) {
    (void)dog.observe_period(1050, 1000);
  }
  const double k_before = dog.k();
  for (int n = 0; n < 10; ++n) {
    (void)dog.observe_period(5000, 1000);  // flood: SYNs up, SYN/ACKs flat
  }
  EXPECT_NEAR(dog.k(), k_before, 1.0);
}

TEST(SynDogTest, KFloorPreventsDivisionBlowup) {
  SynDog dog(SynDogParams::paper_defaults());
  const PeriodReport r = dog.observe_period(10, 0);  // idle link
  EXPECT_TRUE(std::isfinite(r.x));
  EXPECT_DOUBLE_EQ(r.x, 10.0);  // normalized by the floor of 1
}

TEST(SynDogTest, AlarmClearsAfterFloodEnds) {
  SynDog dog(SynDogParams::paper_defaults());
  for (int n = 0; n < 20; ++n) (void)dog.observe_period(1050, 1000);
  for (int n = 0; n < 10; ++n) (void)dog.observe_period(3000, 1000);
  EXPECT_TRUE(dog.alarmed());
  // Normal traffic resumes; y decays by (a - c) per period back to 0.
  int periods = 0;
  while (dog.alarmed()) {
    (void)dog.observe_period(1050, 1000);
    ASSERT_LT(++periods, 100);
  }
  EXPECT_GT(periods, 3);  // decay is gradual, not instant
}

TEST(SynDogTest, MinDetectableRateEquation8) {
  // f_min = (a - c) * K / t0.
  EXPECT_NEAR(SynDog::min_detectable_rate(0.35, 0.0, 2114.0,
                                          SimTime::seconds(20)),
              37.0, 0.05);
  EXPECT_NEAR(SynDog::min_detectable_rate(0.35, 0.0, 100.0,
                                          SimTime::seconds(20)),
              1.75, 0.01);
  // Instance version uses the live K estimate.
  SynDog dog(SynDogParams::paper_defaults());
  for (int n = 0; n < 200; ++n) (void)dog.observe_period(2200, 2114);
  EXPECT_NEAR(dog.min_detectable_rate(), 37.0, 0.5);
}

TEST(SynDogTest, ExpectedDetectionPeriodsEquation7) {
  SynDog dog(SynDogParams::paper_defaults());
  for (int n = 0; n < 200; ++n) (void)dog.observe_period(2200, 2114);
  // Design point: fi such that drift = h = 2a gives N/(h-a) = 3 periods.
  const double fi_design = 0.7 * 2114.0 / 20.0;
  EXPECT_NEAR(dog.expected_detection_periods(fi_design), 3.0, 0.1);
  // Below the floor the bound is infinite.
  EXPECT_TRUE(std::isinf(dog.expected_detection_periods(10.0)));
}

TEST(SynDogTest, SiteTunedParametersLowerTheFloor) {
  const SynDogParams tuned = SynDogParams::site_tuned_unc();
  EXPECT_NEAR(SynDog::min_detectable_rate(tuned.a, 0.0, 2114.0,
                                          SimTime::seconds(20)),
              21.1, 0.3);  // paper: "decreases from 37 to 15" (with c > 0)
  EXPECT_NEAR(SynDog::min_detectable_rate(tuned.a, 0.05, 2114.0,
                                          SimTime::seconds(20)),
              15.9, 0.3);
}

TEST(SynDogTest, ResetRestoresColdState) {
  SynDog dog(SynDogParams::paper_defaults());
  (void)dog.observe_period(5000, 100);
  dog.reset();
  EXPECT_DOUBLE_EQ(dog.y(), 0.0);
  EXPECT_DOUBLE_EQ(dog.k(), 0.0);
  EXPECT_EQ(dog.periods_observed(), 0);
}

TEST(SynDogTest, ValidationAndErrors) {
  SynDogParams bad = SynDogParams::paper_defaults();
  bad.a = 0.0;
  EXPECT_THROW(SynDog{bad}, std::invalid_argument);
  bad = SynDogParams::paper_defaults();
  bad.h = 0.3;  // h <= a
  EXPECT_THROW(SynDog{bad}, std::invalid_argument);
  bad = SynDogParams::paper_defaults();
  bad.ewma_alpha = 1.0;
  EXPECT_THROW(SynDog{bad}, std::invalid_argument);

  SynDog dog(SynDogParams::paper_defaults());
  EXPECT_THROW((void)dog.observe_period(-1, 0), std::invalid_argument);
}

TEST(SynDogTest, RunOverSeriesMatchesIncremental) {
  const std::vector<std::int64_t> syns = {1000, 1100, 3000, 3000, 1000};
  const std::vector<std::int64_t> acks = {950, 1050, 950, 950, 950};
  const auto reports =
      run_over_series(SynDogParams::paper_defaults(), syns, acks);
  SynDog dog(SynDogParams::paper_defaults());
  for (std::size_t n = 0; n < syns.size(); ++n) {
    const PeriodReport r = dog.observe_period(syns[n], acks[n]);
    EXPECT_DOUBLE_EQ(r.y, reports[n].y);
    EXPECT_EQ(r.alarm, reports[n].alarm);
  }
  EXPECT_THROW((void)run_over_series(SynDogParams::paper_defaults(),
                                     {1, 2}, {1}),
               std::invalid_argument);
}

TEST(SynDogTest, TracedCusumUpdatesMirrorReports) {
  // Flood-shaped series: quiet, then SYNs far outrunning SYN/ACKs so the
  // alarm raises, then quiet again so it clears. The bounded-CUSUM cap
  // keeps yn from climbing so high during the flood that it cannot decay
  // back below N within the tail. The "syndog.*" instruments must agree
  // with the returned reports.
  std::vector<std::int64_t> syns(30, 1000);
  std::vector<std::int64_t> acks(30, 950);
  for (std::size_t n = 10; n < 20; ++n) syns[n] = 3000;

  SynDogParams params = SynDogParams::paper_defaults();
  params.statistic_cap = 2.0;
  obs::Registry registry;
  const auto reports = run_over_series(params, syns, acks, &registry);

  std::uint64_t alarm_periods = 0;
  std::uint64_t raises = 0;
  bool was_alarmed = false;
  for (const PeriodReport& r : reports) {
    if (r.alarm) ++alarm_periods;
    if (r.alarm && !was_alarmed) ++raises;
    was_alarmed = r.alarm;
  }
  EXPECT_EQ(raises, 1u);
  EXPECT_FALSE(reports.back().alarm);  // raised, then cleared

  const obs::MetricsSnapshot snap = registry.snapshot();
  std::map<std::string, std::uint64_t> counters;
  for (const obs::CounterSample& c : snap.counters) counters[c.name] = c.value;
  EXPECT_EQ(counters["syndog.periods"], reports.size());
  EXPECT_EQ(counters["syndog.alarm_periods"], alarm_periods);
  EXPECT_EQ(counters["syndog.alarms_raised"], raises);
  std::map<std::string, double> gauges;
  for (const obs::GaugeSample& g : snap.gauges) gauges[g.name] = g.value;
  EXPECT_DOUBLE_EQ(gauges["syndog.k"], reports.back().k_estimate);
  EXPECT_DOUBLE_EQ(gauges["syndog.y"], reports.back().y);
}

// --- Sniffer ---------------------------------------------------------------------

net::Packet packet_with_flags(net::TcpFlags flags) {
  net::TcpPacketSpec spec;
  spec.src_ip = net::Ipv4Address(10, 1, 0, 1);
  spec.dst_ip = net::Ipv4Address(192, 0, 2, 1);
  spec.flags = flags;
  return net::make_tcp_packet(spec);
}

TEST(SnifferTest, OutboundCountsOnlyPureSyns) {
  Sniffer sniffer(SnifferRole::kOutbound);
  sniffer.on_packet(packet_with_flags(net::TcpFlags::syn_only()));
  sniffer.on_packet(packet_with_flags(net::TcpFlags::syn_ack()));
  sniffer.on_packet(packet_with_flags(net::TcpFlags::ack_only()));
  sniffer.on_packet(packet_with_flags(net::TcpFlags::rst_only()));
  EXPECT_EQ(sniffer.period_count(), 1u);
  EXPECT_EQ(sniffer.packets_seen(), 4u);
}

TEST(SnifferTest, InboundCountsOnlySynAcks) {
  Sniffer sniffer(SnifferRole::kInbound);
  sniffer.on_packet(packet_with_flags(net::TcpFlags::syn_only()));
  sniffer.on_packet(packet_with_flags(net::TcpFlags::syn_ack()));
  EXPECT_EQ(sniffer.period_count(), 1u);
}

TEST(SnifferTest, HarvestResetsPeriodButKeepsLifetime) {
  Sniffer sniffer(SnifferRole::kOutbound);
  for (int i = 0; i < 5; ++i) {
    sniffer.on_packet(packet_with_flags(net::TcpFlags::syn_only()));
  }
  EXPECT_EQ(sniffer.harvest(), 5u);
  EXPECT_EQ(sniffer.period_count(), 0u);
  EXPECT_EQ(sniffer.lifetime_count(), 5u);
  EXPECT_EQ(sniffer.harvest(), 0u);
}

TEST(SnifferTest, FramePathAgreesWithPacketPath) {
  Sniffer by_packet(SnifferRole::kOutbound);
  Sniffer by_frame(SnifferRole::kOutbound);
  for (const net::TcpFlags flags :
       {net::TcpFlags::syn_only(), net::TcpFlags::syn_ack(),
        net::TcpFlags::ack_only(), net::TcpFlags::fin_ack()}) {
    const net::Packet pkt = packet_with_flags(flags);
    by_packet.on_packet(pkt);
    by_frame.on_frame(net::encode_frame(pkt));
  }
  EXPECT_EQ(by_packet.period_count(), by_frame.period_count());
}

// --- SourceLocator ---------------------------------------------------------------

TEST(LocatorTest, RanksSpoofingStations) {
  SourceLocator locator(*net::Ipv4Prefix::parse("10.1.0.0/16"));
  const auto spoofed_syn = [&](std::uint32_t host) {
    net::TcpPacketSpec spec;
    spec.src_mac = net::MacAddress::for_host(host);
    spec.src_ip = net::Ipv4Address(240, 0, 0, host);  // outside the stub
    spec.dst_ip = net::Ipv4Address(198, 51, 100, 10);
    return net::make_syn(spec);
  };
  const auto honest_syn = [&](std::uint32_t host) {
    net::TcpPacketSpec spec;
    spec.src_mac = net::MacAddress::for_host(host);
    spec.src_ip = net::Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(host));
    spec.dst_ip = net::Ipv4Address(192, 0, 2, 1);
    return net::make_syn(spec);
  };

  for (int i = 0; i < 100; ++i) {
    locator.on_packet(SimTime::seconds(i), spoofed_syn(7));
  }
  for (int i = 0; i < 20; ++i) {
    locator.on_packet(SimTime::seconds(i), spoofed_syn(9));
    locator.on_packet(SimTime::seconds(i), honest_syn(3));
  }

  const auto suspects = locator.suspects();
  ASSERT_EQ(suspects.size(), 2u);  // host 3 never spoofed
  EXPECT_EQ(suspects[0].mac, net::MacAddress::for_host(7));
  EXPECT_EQ(suspects[0].spoofed_syns, 100u);
  EXPECT_EQ(suspects[1].mac, net::MacAddress::for_host(9));
  EXPECT_EQ(locator.spoofed_total(), 120u);

  const auto stations = locator.stations();
  EXPECT_EQ(stations.size(), 3u);
  EXPECT_EQ(stations[0].mac, net::MacAddress::for_host(7));
}

TEST(LocatorTest, IgnoresNonSynTraffic) {
  SourceLocator locator(*net::Ipv4Prefix::parse("10.1.0.0/16"));
  net::TcpPacketSpec spec;
  spec.src_ip = net::Ipv4Address(240, 0, 0, 1);
  spec.dst_ip = net::Ipv4Address(198, 51, 100, 10);
  spec.flags = net::TcpFlags::ack_only();
  locator.on_packet(SimTime::zero(), net::make_tcp_packet(spec));
  EXPECT_TRUE(locator.suspects().empty());
  EXPECT_EQ(locator.spoofed_total(), 0u);
}

TEST(LocatorTest, ResetClearsEvidence) {
  SourceLocator locator(*net::Ipv4Prefix::parse("10.1.0.0/16"));
  net::TcpPacketSpec spec;
  spec.src_mac = net::MacAddress::for_host(7);
  spec.src_ip = net::Ipv4Address(240, 0, 0, 1);
  spec.dst_ip = net::Ipv4Address(198, 51, 100, 10);
  locator.on_packet(SimTime::zero(), net::make_syn(spec));
  EXPECT_EQ(locator.suspects().size(), 1u);
  locator.reset();
  EXPECT_TRUE(locator.suspects().empty());
  EXPECT_TRUE(locator.stations().empty());
}

}  // namespace
}  // namespace syndog::core
