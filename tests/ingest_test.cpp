// Streaming capture-ingest tests: ring wraparound, replay accounting,
// damaged-capture handling, replay/manual-loop equivalence, and the
// sharded datapath against the single-threaded oracle (the ring and
// sharded suites also run under tsan in CI).
#include <gtest/gtest.h>

#include "support/alloc_guard.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "syndog/core/sniffer.hpp"
#include "syndog/core/syndog.hpp"
#include "syndog/ingest/agent_demux.hpp"
#include "syndog/ingest/capture_source.hpp"
#include "syndog/ingest/flow_hash.hpp"
#include "syndog/ingest/frame_ring.hpp"
#include "syndog/ingest/replay.hpp"
#include "syndog/ingest/sharded.hpp"
#include "syndog/net/digest.hpp"
#include "syndog/net/packet.hpp"
#include "syndog/obs/metrics.hpp"
#include "syndog/pcap/pcap.hpp"
#include "syndog/pcap/pcapng.hpp"
#include "syndog/util/rng.hpp"

namespace syndog::ingest {
namespace {

using util::SimTime;

net::Packet sample_packet(std::uint32_t host, bool syn_ack) {
  net::TcpPacketSpec spec;
  spec.src_mac = net::MacAddress::for_host(host);
  spec.dst_mac = net::MacAddress::for_host(0);
  if (syn_ack) {
    spec.src_ip = net::Ipv4Address(192, 0, 2, 1);
    spec.dst_ip = net::Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(host));
    spec.src_port = 80;
    spec.dst_port = static_cast<std::uint16_t>(30000 + host);
    return net::make_syn_ack(spec);
  }
  spec.src_ip = net::Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(host));
  spec.dst_ip = net::Ipv4Address(192, 0, 2, 1);
  spec.src_port = static_cast<std::uint16_t>(30000 + host);
  spec.dst_port = 80;
  return net::make_syn(spec);
}

/// A wire-realistic capture: outbound SYNs and inbound SYN/ACKs with
/// increasing timestamps, `frames` records over `span`.
std::string make_capture(std::size_t frames, SimTime span,
                         std::uint64_t seed) {
  util::Rng rng(seed);
  std::ostringstream out(std::ios::binary);
  pcap::Writer writer(out);
  for (std::size_t i = 0; i < frames; ++i) {
    const auto at = SimTime::nanoseconds(
        static_cast<std::int64_t>(i) * span.ns() /
        static_cast<std::int64_t>(frames));
    const bool syn_ack = rng.uniform() < 0.5;
    const auto host = static_cast<std::uint32_t>(rng.uniform_int(1, 40));
    writer.write(at, net::encode_frame(sample_packet(host, syn_ack)));
  }
  writer.flush();
  return std::move(out).str();
}

// ---------------------------------------------------------------------
// SlotRing, on its production slot type (suite name is matched by the CI
// tsan job)

using DigestRing = SlotRing<net::FlowDigest>;

TEST(FrameRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(DigestRing(1).capacity(), 2u);
  EXPECT_EQ(DigestRing(5).capacity(), 8u);
  EXPECT_EQ(DigestRing(64).capacity(), 64u);
  EXPECT_THROW(DigestRing(0), std::invalid_argument);
}

TEST(FrameRingTest, WraparoundPreservesOrderAndContent) {
  DigestRing ring(4);
  std::uint32_t produced = 0;
  std::uint32_t consumed = 0;
  util::Rng rng(11);
  // Push/pop in randomized bursts so head/tail lap the array many times.
  while (consumed < 1000) {
    const auto burst = static_cast<std::uint32_t>(rng.uniform_int(1, 6));
    for (std::uint32_t i = 0; i < burst; ++i) {
      net::FlowDigest* slot = ring.try_claim();
      if (slot == nullptr) break;
      slot->wire_bytes = produced;
      slot->at_ns = produced;
      ++produced;
      ring.publish();
    }
    const auto drain = static_cast<std::uint32_t>(rng.uniform_int(1, 6));
    for (std::uint32_t i = 0; i < drain && !ring.empty(); ++i) {
      const std::span<const net::FlowDigest> run = ring.readable();
      ASSERT_FALSE(run.empty());
      ASSERT_EQ(run.front().wire_bytes, consumed);
      ++consumed;
      ring.release(1);
    }
  }
  EXPECT_LE(ring.size(), ring.capacity());
}

TEST(FrameRingTest, SteadyStateProduceConsumeDoesNotAllocate) {
  // The ring's slot arena is sized once at construction; claiming,
  // publishing, reading, and releasing frames afterwards must never
  // touch the heap (the runtime twin of the hotpath.allocation lint
  // rule on frame_ring.hpp).
  DigestRing ring(64);
  std::uint32_t produced = 0;
  util::Rng rng(23);

  auto churn = [&](std::uint32_t rounds) {
    for (std::uint32_t r = 0; r < rounds; ++r) {
      const auto burst = static_cast<std::uint32_t>(rng.uniform_int(1, 48));
      for (std::uint32_t i = 0; i < burst; ++i) {
        net::FlowDigest* slot = ring.try_claim();
        if (slot == nullptr) break;
        slot->wire_bytes = produced;
        slot->at_ns = produced;
        ++produced;
        ring.publish();
      }
      while (!ring.empty()) {
        const std::span<const net::FlowDigest> run = ring.readable();
        ring.release(run.size());
      }
    }
  };

  churn(16);  // warm-up: every slot written at least once
  testsupport::AllocGuard guard;
  churn(512);
  EXPECT_EQ(guard.stop(), 0u)
      << "steady-state ring traffic must not touch the heap";
  EXPECT_GT(produced, 1000u);
}

TEST(FrameRingTest, FullRingRefusesClaim) {
  DigestRing ring(2);
  ASSERT_NE(ring.try_claim(), nullptr);
  ring.publish();
  ASSERT_NE(ring.try_claim(), nullptr);
  ring.publish();
  EXPECT_EQ(ring.try_claim(), nullptr);
  ring.release(1);
  EXPECT_NE(ring.try_claim(), nullptr);
}

TEST(FrameRingTest, OverReleaseThrows) {
  DigestRing ring(4);
  EXPECT_THROW(ring.release(1), std::logic_error);
}

TEST(FrameRingTest, CapacityErrorMessageExplainsConstraint) {
  try {
    DigestRing ring(0);
    FAIL() << "zero capacity must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "SlotRing: capacity must be positive (a zero-capacity "
                 "ring could never publish a slot)");
  }
}

TEST(FrameRingTest, ReleaseOverflowMessageAndPartialOverflow) {
  DigestRing ring(4);
  ASSERT_NE(ring.try_claim(), nullptr);
  ring.publish();
  ASSERT_NE(ring.try_claim(), nullptr);
  ring.publish();
  // Releasing more than the published count must throw without moving
  // the tail cursor: the two published slots stay readable afterwards.
  try {
    ring.release(3);
    FAIL() << "over-release must throw";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(),
                 "SlotRing: releasing more slots than are readable "
                 "(release(n) must not exceed the published count)");
  }
  EXPECT_EQ(ring.size(), 2u);
  ring.release(2);
  EXPECT_TRUE(ring.empty());
  // The boundary is exact: an empty ring rejects release(1) but a
  // same-size release succeeds.
  EXPECT_THROW(ring.release(1), std::logic_error);
}

// ---------------------------------------------------------------------
// Symmetric flow hash

TEST(FlowHashTest, SymmetricUnderDirectionReversal) {
  util::Rng rng(31);
  for (int i = 0; i < 2000; ++i) {
    const auto src = static_cast<std::uint32_t>(
        rng.uniform_int(0, std::numeric_limits<std::int32_t>::max()));
    const auto dst = static_cast<std::uint32_t>(
        rng.uniform_int(0, std::numeric_limits<std::int32_t>::max()));
    const auto sport = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    const auto dport = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    const auto proto = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    EXPECT_EQ(flow_hash(src, sport, dst, dport, proto),
              flow_hash(dst, dport, src, sport, proto));
  }
}

TEST(FlowHashTest, SynAndSynAckOfOneFlowNeverSplitShards) {
  // A flow's SYN and the SYN-ACK coming back swap src/dst; for every
  // shard count the two must land on the same ring, or a consumer
  // thread would see half a flow.
  util::Rng rng(32);
  for (int i = 0; i < 500; ++i) {
    net::TcpPacketSpec spec;
    spec.src_mac = net::MacAddress::for_host(1);
    spec.dst_mac = net::MacAddress::for_host(2);
    spec.src_ip = net::Ipv4Address(
        static_cast<std::uint32_t>(rng.uniform_int(1, 1 << 30)));
    spec.dst_ip = net::Ipv4Address(
        static_cast<std::uint32_t>(rng.uniform_int(1, 1 << 30)));
    spec.src_port = static_cast<std::uint16_t>(rng.uniform_int(1, 65535));
    spec.dst_port = static_cast<std::uint16_t>(rng.uniform_int(1, 65535));
    const net::ByteBuffer syn = net::encode_frame(net::make_syn(spec));
    std::swap(spec.src_ip, spec.dst_ip);
    std::swap(spec.src_port, spec.dst_port);
    const net::ByteBuffer syn_ack =
        net::encode_frame(net::make_syn_ack(spec));

    net::FlowDigest d_syn;
    net::FlowDigest d_syn_ack;
    ASSERT_TRUE(net::extract_flow_digest(syn, d_syn));
    ASSERT_TRUE(net::extract_flow_digest(syn_ack, d_syn_ack));
    const std::uint64_t h_syn = flow_hash(d_syn);
    const std::uint64_t h_syn_ack = flow_hash(d_syn_ack);
    EXPECT_EQ(h_syn, h_syn_ack);
    for (std::size_t shards = 1; shards <= 8; ++shards) {
      EXPECT_EQ(shard_of(h_syn, shards), shard_of(h_syn_ack, shards));
      EXPECT_LT(shard_of(h_syn, shards), shards);
    }
  }
}

TEST(FlowHashTest, DistinctFlowsSpreadAcrossShards) {
  // Not a distribution guarantee, but the mixer must not collapse the
  // regular address patterns synthetic traces use onto one shard.
  std::array<int, 4> load{};
  for (std::uint32_t host = 1; host <= 64; ++host) {
    const std::uint64_t h = flow_hash(
        0x0a010000U | host, static_cast<std::uint16_t>(30000 + host),
        0xc0000201U, 80, 6);
    ++load[shard_of(h, load.size())];
  }
  for (const int l : load) EXPECT_GT(l, 0) << "a shard got no flows";
}

// ---------------------------------------------------------------------
// CaptureSource

TEST(CaptureSourceTest, SniffsClassicPcap) {
  const std::string capture = make_capture(3, SimTime::seconds(1), 1);
  std::istringstream in(capture, std::ios::binary);
  CaptureSource source(in);
  EXPECT_EQ(source.format(), CaptureFormat::kPcap);
  pcap::RecordView rec;
  std::size_t n = 0;
  while (source.next(rec)) ++n;
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(source.end_state(), pcap::ReadEnd::kEof);
}

TEST(CaptureSourceTest, SniffsPcapng) {
  std::stringstream buf;
  pcap::PcapngWriter writer(buf);
  writer.write(SimTime::seconds(1),
               net::encode_frame(sample_packet(1, false)));
  CaptureSource source(buf);
  EXPECT_EQ(source.format(), CaptureFormat::kPcapng);
  pcap::RecordView rec;
  EXPECT_TRUE(source.next(rec));
  EXPECT_FALSE(source.next(rec));
  EXPECT_EQ(source.end_state(), pcap::ReadEnd::kEof);
}

TEST(CaptureSourceTest, RejectsGarbage) {
  std::istringstream in("not a capture at all", std::ios::binary);
  EXPECT_THROW(CaptureSource source(in), std::runtime_error);
}

net::ByteSpan span_of(const std::string& bytes) {
  return {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()};
}

TEST(CaptureSourceTest, DispatchesOnMagic) {
  // One record in each format, through the stream and the span
  // constructors; junk throws from both.
  const net::ByteBuffer frame = net::encode_frame(sample_packet(3, false));
  std::ostringstream classic(std::ios::binary);
  pcap::Writer(classic).write(SimTime::seconds(2), frame);
  std::ostringstream modern(std::ios::binary);
  pcap::PcapngWriter(modern).write(SimTime::seconds(2), frame);
  for (const auto& [capture, format] :
       {std::pair{classic.str(), CaptureFormat::kPcap},
        std::pair{modern.str(), CaptureFormat::kPcapng}}) {
    std::istringstream in(capture, std::ios::binary);
    CaptureSource from_stream(in);
    CaptureSource from_span(span_of(capture));
    for (CaptureSource* source : {&from_stream, &from_span}) {
      EXPECT_EQ(source->format(), format);
      pcap::RecordView rec;
      ASSERT_TRUE(source->next(rec));
      EXPECT_TRUE(std::equal(rec.data.begin(), rec.data.end(),
                             frame.begin(), frame.end()));
      EXPECT_EQ(rec.timestamp, SimTime::seconds(2));
      EXPECT_EQ(rec.orig_len, frame.size());
      EXPECT_FALSE(source->next(rec));
      EXPECT_EQ(source->end_state(), pcap::ReadEnd::kEof);
      EXPECT_EQ(source->records_read(), 1u);
    }
  }
  const std::string junk = "????????";
  std::istringstream junk_in(junk, std::ios::binary);
  EXPECT_THROW(CaptureSource source(junk_in), std::runtime_error);
  EXPECT_THROW(CaptureSource source(span_of(junk)), std::runtime_error);
}

// ---------------------------------------------------------------------
// ReplayEngine accounting: records, decode failures, truncation and the
// ingest.* counters

/// Counts delivered frames and checks they arrive in timestamp order.
class CountingSink final : public ReplaySink {
 public:
  void on_frame(SimTime at, const Frame& frame) override {
    if (total_ != 0 && at < last_at_) ++out_of_order_;
    total_ += 1;
    bytes_ += frame.captured_bytes;
    last_at_ = at;
  }
  std::uint64_t total_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t out_of_order_ = 0;
  SimTime last_at_;
};

TEST(PipelineTest, DeliversEveryFrameInOrder) {
  const std::string capture = make_capture(500, SimTime::seconds(10), 2);
  std::istringstream in(capture, std::ios::binary);
  ReplayEngine engine(in, {});
  CountingSink sink;
  engine.add_sink(sink);
  engine.run();
  EXPECT_EQ(sink.total_, 500u);
  EXPECT_EQ(sink.out_of_order_, 0u);
  EXPECT_EQ(engine.stats().frames, 500u);
  EXPECT_EQ(engine.stats().records, 500u);
  EXPECT_EQ(engine.stats().bytes, sink.bytes_);
  // make_capture stamps frame i at i * 10 s / 500.
  EXPECT_EQ(sink.last_at_.ns(), 499 * SimTime::seconds(10).ns() / 500);
  EXPECT_EQ(engine.end_state(), pcap::ReadEnd::kEof);
  EXPECT_FALSE(engine.stats().truncated);
}

TEST(PipelineTest, TruncatedCaptureIsCountedNotSilent) {
  std::string capture = make_capture(20, SimTime::seconds(2), 4);
  capture.resize(capture.size() - 7);  // tear the last record
  std::istringstream in(capture, std::ios::binary);
  ReplayEngine engine(in, {});
  CountingSink sink;
  engine.add_sink(sink);
  obs::Registry registry;
  engine.attach_observer(registry);
  engine.run();
  EXPECT_EQ(sink.total_, 19u);
  EXPECT_TRUE(engine.stats().truncated);
  EXPECT_EQ(engine.end_state(), pcap::ReadEnd::kTruncated);
  EXPECT_EQ(registry.counter("ingest.truncated_captures").value(), 1u);
  EXPECT_EQ(registry.counter("ingest.frames").value(), 19u);
  EXPECT_EQ(registry.counter("ingest.records").value(), 19u);
  EXPECT_EQ(registry.counter("ingest.bytes").value(), sink.bytes_);
}

TEST(PipelineTest, GarbageTailStopsWithTruncation) {
  // A valid capture followed by non-pcap bytes: the tail must terminate
  // the stream as damage, not crash or spin.
  std::string capture = make_capture(5, SimTime::seconds(1), 5);
  capture += "GARBAGE GARBAGE";  // 15 bytes: a torn record header
  std::istringstream in(capture, std::ios::binary);
  ReplayEngine engine(in, {});
  CountingSink sink;
  engine.add_sink(sink);
  engine.run();
  EXPECT_EQ(sink.total_, 5u);
  EXPECT_TRUE(engine.stats().truncated);
}

TEST(PipelineTest, SkipsUndecodableRecords) {
  std::ostringstream out(std::ios::binary);
  pcap::Writer writer(out);
  writer.write(SimTime::seconds(1),
               net::encode_frame(sample_packet(1, false)));
  const net::ByteBuffer junk(30, 0xEE);  // not an Ethernet/IPv4 frame
  writer.write(SimTime::seconds(2), junk);
  writer.write(SimTime::seconds(3),
               net::encode_frame(sample_packet(2, true)));
  const std::string capture = std::move(out).str();

  std::istringstream in(capture, std::ios::binary);
  ReplayEngine engine(in, {});
  CountingSink sink;
  engine.add_sink(sink);
  obs::Registry registry;
  engine.attach_observer(registry);
  engine.run();
  EXPECT_EQ(engine.stats().records, 3u);
  EXPECT_EQ(engine.stats().frames, 2u);
  EXPECT_EQ(engine.stats().decode_failures, 1u);
  EXPECT_EQ(registry.counter("ingest.decode_failures").value(), 1u);
  EXPECT_EQ(sink.total_, 2u);
}

// ---------------------------------------------------------------------
// ReplayEngine + AgentDemux vs the manual whole-file loop

struct ManualResult {
  std::vector<std::int64_t> syns;
  std::vector<std::int64_t> syn_acks;
  std::vector<bool> alarms;
};

/// The examples/pcap_sniffer accounting, verbatim: whole file in memory,
/// periods closed by timestamp comparison.
ManualResult manual_loop(const std::string& capture,
                         const core::SynDogParams& params) {
  ManualResult result;
  std::istringstream in(capture, std::ios::binary);
  pcap::Reader reader(in);
  const net::Ipv4Prefix stub = *net::Ipv4Prefix::parse("10.1.0.0/16");
  core::Sniffer outbound(core::SnifferRole::kOutbound);
  core::Sniffer inbound(core::SnifferRole::kInbound);
  core::SynDog dog(params);
  const SimTime t0 = params.observation_period;
  SimTime period_end = t0;
  const auto close_period = [&] {
    const core::PeriodReport r = dog.observe_period(
        static_cast<std::int64_t>(outbound.harvest()),
        static_cast<std::int64_t>(inbound.harvest()));
    result.syns.push_back(r.syn_count);
    result.syn_acks.push_back(r.syn_ack_count);
    result.alarms.push_back(r.alarm);
  };
  while (const auto rec = reader.next()) {
    while (rec->timestamp >= period_end) {
      close_period();
      period_end += t0;
    }
    const auto pkt = net::decode_frame(rec->data);
    if (!pkt) continue;
    const bool outbound_dir =
        stub.contains(pkt->ip.src) || !stub.contains(pkt->ip.dst);
    if (outbound_dir) {
      outbound.on_frame(rec->data);
    } else {
      inbound.on_frame(rec->data);
    }
  }
  close_period();
  return result;
}

TEST(ReplayEquivalenceTest, DemuxMatchesManualLoopPerPeriod) {
  // 2000 frames over 130 s -> 6 full periods plus a partial seventh.
  const std::string capture =
      make_capture(2000, SimTime::seconds(130), 77);
  const core::SynDogParams params = core::SynDogParams::paper_defaults();
  const ManualResult manual = manual_loop(capture, params);

  std::istringstream in(capture, std::ios::binary);
  ReplayEngine engine(in, {});
  AgentDemux demux(engine.scheduler(),
                   {{*net::Ipv4Prefix::parse("10.1.0.0/16"), "stub"}},
                   params);
  engine.add_sink(demux);
  engine.run();
  demux.close_final_period();

  const auto& history = demux.agent(0).history();
  ASSERT_EQ(history.size(), manual.syns.size());
  ASSERT_EQ(history.size(), 7u);
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(history[i].syn_count, manual.syns[i]) << "period " << i;
    EXPECT_EQ(history[i].syn_ack_count, manual.syn_acks[i])
        << "period " << i;
    EXPECT_EQ(history[i].alarm, manual.alarms[i]) << "period " << i;
  }
}

TEST(ReplayEngineTest, AutoOriginRebasesAbsoluteTimestamps) {
  // Same frames, stamped as if captured in 2024: the engine must rebase
  // to the first frame instead of spinning years of period timers.
  const std::int64_t epoch_ns = 1'700'000'000LL * 1'000'000'000LL;
  std::ostringstream out(std::ios::binary);
  pcap::Writer writer(out);
  for (int i = 0; i < 10; ++i) {
    writer.write(SimTime::nanoseconds(epoch_ns + i * 1'000'000'000LL),
                 net::encode_frame(sample_packet(
                     static_cast<std::uint32_t>(i + 1), false)));
  }
  const std::string capture = std::move(out).str();
  std::istringstream in(capture, std::ios::binary);
  ReplayEngine engine(in, {});
  engine.run();
  EXPECT_EQ(engine.epoch().ns(), epoch_ns);
  EXPECT_EQ(engine.last_frame_at().ns(), 9'000'000'000LL);
  EXPECT_EQ(engine.stats().frames, 10u);
}

TEST(ReplayEngineTest, MultiStubDemuxRoutesBothDirections) {
  // Stub A floods an external victim; stub B only answers handshakes.
  std::ostringstream out(std::ios::binary);
  pcap::Writer writer(out);
  std::int64_t ns = 0;
  for (int i = 0; i < 400; ++i) {
    net::TcpPacketSpec spec;
    spec.src_mac = net::MacAddress::for_host(1);
    spec.dst_mac = net::MacAddress::for_host(0);
    spec.src_ip = net::Ipv4Address(10, 1, 0, 5);   // stub A
    spec.dst_ip = net::Ipv4Address(192, 0, 2, 9);  // external
    spec.src_port = 1234;
    spec.dst_port = 80;
    writer.write(SimTime::nanoseconds(ns += 100'000'000),
                 net::encode_frame(net::make_syn(spec)));
    if (i % 4 == 0) {
      net::TcpPacketSpec reply;
      reply.src_mac = net::MacAddress::for_host(0);
      reply.dst_mac = net::MacAddress::for_host(2);
      reply.src_ip = net::Ipv4Address(192, 0, 2, 9);
      reply.dst_ip = net::Ipv4Address(10, 2, 0, 7);  // stub B
      reply.src_port = 80;
      reply.dst_port = 999;
      writer.write(SimTime::nanoseconds(ns),
                   net::encode_frame(net::make_syn_ack(reply)));
    }
  }
  const std::string capture = std::move(out).str();

  std::istringstream in(capture, std::ios::binary);
  ReplayEngine engine(in, {});
  AgentDemux demux(engine.scheduler(),
                   {{*net::Ipv4Prefix::parse("10.1.0.0/16"), "a"},
                    {*net::Ipv4Prefix::parse("10.2.0.0/16"), "b"}},
                   core::SynDogParams::paper_defaults());
  engine.add_sink(demux);
  engine.run();
  demux.close_final_period();

  // Stub A saw a one-sided SYN flood: its CUSUM must alarm. Stub B saw
  // only inbound SYN/ACKs: quiet.
  EXPECT_FALSE(demux.alarms(0).empty());
  EXPECT_TRUE(demux.alarms(1).empty());
  std::int64_t a_syns = 0;
  for (const auto& r : demux.agent(0).history()) a_syns += r.syn_count;
  EXPECT_EQ(a_syns, 400);
}

TEST(ReplayEngineTest, PacedReplayMatchesUnpacedResults) {
  const std::string capture = make_capture(300, SimTime::seconds(45), 9);
  const auto run_with = [&](ReplayClock clock) {
    std::istringstream in(capture, std::ios::binary);
    ReplayConfig cfg;
    cfg.clock = clock;
    cfg.speed = 1e9;  // paced, but effectively instant for the test
    ReplayEngine engine(in, cfg);
    AgentDemux demux(engine.scheduler(),
                     {{*net::Ipv4Prefix::parse("10.1.0.0/16"), "stub"}},
                     core::SynDogParams::paper_defaults());
    engine.add_sink(demux);
    engine.run();
    demux.close_final_period();
    std::vector<std::int64_t> counts;
    for (const auto& r : demux.agent(0).history()) {
      counts.push_back(r.syn_count);
      counts.push_back(r.syn_ack_count);
    }
    return counts;
  };
  EXPECT_EQ(run_with(ReplayClock::kAsFastAsPossible),
            run_with(ReplayClock::kPaced));
}

// ---------------------------------------------------------------------
// Sharded datapath vs the single-threaded oracle (suite name is matched
// by the CI tsan job)

struct OracleResult {
  std::vector<std::vector<core::PeriodReport>> histories;
  std::uint64_t local = 0;
  std::uint64_t unroutable = 0;
  PipelineStats stats;
  pcap::ReadEnd end = pcap::ReadEnd::kStreaming;
  SimTime last_at;
};

/// The deterministic reference pump: ReplayEngine + AgentDemux.
OracleResult run_oracle(const std::string& capture,
                        const std::vector<StubSpec>& stubs,
                        const core::SynDogParams& params,
                        DemuxOptions options = {}) {
  std::istringstream in(capture, std::ios::binary);
  ReplayEngine engine(in, {});
  AgentDemux demux(engine.scheduler(), stubs, params, options);
  engine.add_sink(demux);
  OracleResult out;
  out.stats = engine.run();
  demux.close_final_period();
  for (std::size_t i = 0; i < demux.stub_count(); ++i) {
    out.histories.push_back(demux.agent(i).history());
  }
  out.local = demux.local_frames();
  out.unroutable = demux.unroutable_frames();
  out.end = engine.end_state();
  out.last_at = engine.last_frame_at();
  return out;
}

/// Asserts a finished sharded run's stats, end state, routing tallies,
/// and every PeriodReport field (doubles compared exactly) match the
/// oracle's.
void expect_matches_oracle(const ShardedReplay& sharded,
                           const OracleResult& oracle) {
  EXPECT_EQ(sharded.stats().records, oracle.stats.records);
  EXPECT_EQ(sharded.stats().frames, oracle.stats.frames);
  EXPECT_EQ(sharded.stats().bytes, oracle.stats.bytes);
  EXPECT_EQ(sharded.stats().decode_failures, oracle.stats.decode_failures);
  EXPECT_EQ(sharded.stats().truncated, oracle.stats.truncated);
  EXPECT_EQ(sharded.end_state(), oracle.end);
  EXPECT_EQ(sharded.local_frames(), oracle.local);
  EXPECT_EQ(sharded.unroutable_frames(), oracle.unroutable);
  EXPECT_EQ(sharded.last_frame_at().ns(), oracle.last_at.ns());

  std::uint64_t delivered = 0;
  for (std::size_t i = 0; i < sharded.shard_count(); ++i) {
    delivered += sharded.shard(i).delivered;
  }
  EXPECT_EQ(delivered, sharded.stats().frames);

  ASSERT_EQ(sharded.stub_count(), oracle.histories.size());
  for (std::size_t s = 0; s < oracle.histories.size(); ++s) {
    SCOPED_TRACE("stub=" + std::to_string(s));
    const std::vector<core::PeriodReport>& got = sharded.history(s);
    const std::vector<core::PeriodReport>& want = oracle.histories[s];
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t p = 0; p < want.size(); ++p) {
      SCOPED_TRACE("period=" + std::to_string(p));
      EXPECT_EQ(got[p].period_index, want[p].period_index);
      EXPECT_EQ(got[p].syn_count, want[p].syn_count);
      EXPECT_EQ(got[p].syn_ack_count, want[p].syn_ack_count);
      EXPECT_EQ(got[p].k_estimate, want[p].k_estimate);
      EXPECT_EQ(got[p].delta, want[p].delta);
      EXPECT_EQ(got[p].x, want[p].x);
      EXPECT_EQ(got[p].y, want[p].y);
      EXPECT_EQ(got[p].alarm, want[p].alarm);
      EXPECT_EQ(got[p].x_clamped, want[p].x_clamped);
    }
  }
}

/// Runs the sharded datapath at 1..max_threads threads and asserts its
/// stats, routing tallies, and every PeriodReport field (doubles
/// compared exactly) match the oracle.
void expect_sharded_matches_oracle(const std::string& capture,
                                   const std::vector<StubSpec>& stubs,
                                   const core::SynDogParams& params,
                                   DemuxOptions options = {},
                                   std::size_t max_threads = 4) {
  const OracleResult oracle = run_oracle(capture, stubs, params, options);
  for (std::size_t threads = 1; threads <= max_threads; ++threads) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::istringstream in(capture, std::ios::binary);
    ShardedConfig cfg;
    cfg.threads = threads;
    cfg.params = params;
    cfg.mode = options.mode;
    cfg.default_stub = options.default_stub;
    ShardedReplay sharded(in, stubs, cfg);
    sharded.run();
    ASSERT_EQ(sharded.shard_count(), threads);
    expect_matches_oracle(sharded, oracle);
  }
}

TEST(IngestShardedTest, MatchesOracleSingleStub) {
  expect_sharded_matches_oracle(
      make_capture(2000, SimTime::seconds(130), 77),
      {{*net::Ipv4Prefix::parse("10.1.0.0/16"), "stub"}},
      core::SynDogParams::paper_defaults());
}

TEST(IngestShardedTest, MatchesOracleMultiStubBothDirections) {
  // Stub A floods an external victim (alarms); stub B only answers
  // handshakes (quiet). Cross-checks outbound and inbound counting and
  // the alarm bit through the merge.
  std::ostringstream out(std::ios::binary);
  pcap::Writer writer(out);
  std::int64_t ns = 0;
  for (int i = 0; i < 400; ++i) {
    net::TcpPacketSpec spec;
    spec.src_mac = net::MacAddress::for_host(1);
    spec.dst_mac = net::MacAddress::for_host(0);
    spec.src_ip = net::Ipv4Address(10, 1, 0,
                                   static_cast<std::uint8_t>(i % 200 + 1));
    spec.dst_ip = net::Ipv4Address(192, 0, 2, 9);
    spec.src_port = static_cast<std::uint16_t>(1024 + i);
    spec.dst_port = 80;
    writer.write(SimTime::nanoseconds(ns += 100'000'000),
                 net::encode_frame(net::make_syn(spec)));
    if (i % 4 == 0) {
      net::TcpPacketSpec reply;
      reply.src_mac = net::MacAddress::for_host(0);
      reply.dst_mac = net::MacAddress::for_host(2);
      reply.src_ip = net::Ipv4Address(192, 0, 2, 9);
      reply.dst_ip = net::Ipv4Address(10, 2, 0,
                                      static_cast<std::uint8_t>(i % 99 + 1));
      reply.src_port = 80;
      reply.dst_port = static_cast<std::uint16_t>(999 + i);
      writer.write(SimTime::nanoseconds(ns),
                   net::encode_frame(net::make_syn_ack(reply)));
    }
  }
  const std::string capture = std::move(out).str();
  const std::vector<StubSpec> stubs = {
      {*net::Ipv4Prefix::parse("10.1.0.0/16"), "a"},
      {*net::Ipv4Prefix::parse("10.2.0.0/16"), "b"}};
  expect_sharded_matches_oracle(capture, stubs,
                                core::SynDogParams::paper_defaults());
  // Last-mile mode swaps which direction feeds which counter.
  DemuxOptions last_mile;
  last_mile.mode = core::AgentMode::kLastMile;
  expect_sharded_matches_oracle(capture, stubs,
                                core::SynDogParams::paper_defaults(),
                                last_mile);
}

TEST(IngestShardedTest, MatchesOracleLocalAndUnroutableFrames) {
  // LAN-local frames (src and dst in one stub), frames matching no stub
  // with default_stub = -1 (unroutable) and with default_stub = 0
  // (credited outbound).
  std::ostringstream out(std::ios::binary);
  pcap::Writer writer(out);
  std::int64_t ns = 0;
  for (int i = 0; i < 300; ++i) {
    net::TcpPacketSpec spec;
    spec.src_mac = net::MacAddress::for_host(1);
    spec.dst_mac = net::MacAddress::for_host(2);
    spec.src_port = static_cast<std::uint16_t>(2000 + i);
    spec.dst_port = 80;
    switch (i % 3) {
      case 0:  // LAN-local: both endpoints inside the stub
        spec.src_ip = net::Ipv4Address(10, 1, 0, 1);
        spec.dst_ip = net::Ipv4Address(10, 1, 7, 2);
        break;
      case 1:  // external-to-external: matches no stub
        spec.src_ip = net::Ipv4Address(192, 0, 2, 1);
        spec.dst_ip = net::Ipv4Address(198, 51, 100, 7);
        break;
      default:  // ordinary outbound
        spec.src_ip = net::Ipv4Address(10, 1, 0,
                                       static_cast<std::uint8_t>(i % 250));
        spec.dst_ip = net::Ipv4Address(192, 0, 2, 9);
        break;
    }
    writer.write(SimTime::nanoseconds(ns += 50'000'000),
                 net::encode_frame(net::make_syn(spec)));
  }
  const std::string capture = std::move(out).str();
  const std::vector<StubSpec> stubs = {
      {*net::Ipv4Prefix::parse("10.1.0.0/16"), "stub"}};
  DemuxOptions drop_unmatched;
  drop_unmatched.default_stub = -1;
  expect_sharded_matches_oracle(capture, stubs,
                                core::SynDogParams::paper_defaults(),
                                drop_unmatched);
  expect_sharded_matches_oracle(capture, stubs,
                                core::SynDogParams::paper_defaults());
}

TEST(IngestShardedTest, MatchesOracleMixedProtocolTraffic) {
  // Fragments, ICMP, non-IPv4 ethertypes, and runt records must take
  // the same accept/reject/no-flags decisions on both datapaths.
  std::ostringstream out(std::ios::binary);
  pcap::Writer writer(out);
  util::Rng rng(55);
  std::int64_t ns = 0;
  for (int i = 0; i < 600; ++i) {
    const auto host = static_cast<std::uint32_t>(rng.uniform_int(1, 40));
    net::ByteBuffer frame = net::encode_frame(
        sample_packet(host, rng.uniform() < 0.5));
    switch (i % 5) {
      case 1:  // non-first fragment: offset 1, no transport header
        frame[14 + 6] = 0x00;
        frame[14 + 7] = 0x01;
        break;
      case 2:  // ICMP: transport bytes reinterpreted, no flags
        frame[14 + 9] = 1;
        break;
      case 3:  // non-IPv4 ethertype: decode failure on both paths
        frame[12] = 0x86;
        frame[13] = 0xdd;
        break;
      case 4:  // runt record: Ethernet header only
        frame.resize(14);
        break;
      default:
        break;
    }
    writer.write(SimTime::nanoseconds(ns += 40'000'000), frame);
  }
  expect_sharded_matches_oracle(
      std::move(out).str(),
      {{*net::Ipv4Prefix::parse("10.1.0.0/16"), "stub"}},
      core::SynDogParams::paper_defaults());
}

TEST(IngestShardedTest, MatchesOracleAbsoluteEpochTimestamps) {
  // 2024-style absolute stamps: both datapaths must rebase to the first
  // decoded frame under TimeOrigin::kAuto.
  const std::int64_t epoch_ns = 1'700'000'000LL * 1'000'000'000LL;
  std::ostringstream out(std::ios::binary);
  pcap::Writer writer(out);
  util::Rng rng(66);
  for (int i = 0; i < 500; ++i) {
    const auto host = static_cast<std::uint32_t>(rng.uniform_int(1, 40));
    writer.write(
        SimTime::nanoseconds(epoch_ns + i * 90'000'000LL),
        net::encode_frame(sample_packet(host, rng.uniform() < 0.4)));
  }
  expect_sharded_matches_oracle(
      std::move(out).str(),
      {{*net::Ipv4Prefix::parse("10.1.0.0/16"), "stub"}},
      core::SynDogParams::paper_defaults());
}

TEST(IngestShardedTest, MatchesOracleTruncatedCapture) {
  const std::string whole = make_capture(800, SimTime::seconds(50), 88);
  // Chop mid-record: both datapaths must stop at the same record and
  // flag the capture truncated.
  expect_sharded_matches_oracle(
      whole.substr(0, whole.size() - 7),
      {{*net::Ipv4Prefix::parse("10.1.0.0/16"), "stub"}},
      core::SynDogParams::paper_defaults());
}

TEST(IngestShardedTest, MatchesOraclePcapng) {
  std::stringstream buf;
  pcap::PcapngWriter writer(buf);
  util::Rng rng(99);
  for (int i = 0; i < 400; ++i) {
    const auto host = static_cast<std::uint32_t>(rng.uniform_int(1, 40));
    writer.write(
        SimTime::nanoseconds(1 + i * 120'000'000LL),
        net::encode_frame(sample_packet(host, rng.uniform() < 0.5)));
  }
  expect_sharded_matches_oracle(
      buf.str(), {{*net::Ipv4Prefix::parse("10.1.0.0/16"), "stub"}},
      core::SynDogParams::paper_defaults());
}

TEST(IngestShardedTest, RethrowsMidCaptureReaderError) {
  // Valid pcapng records, then a second Section Header Block whose
  // byte-order magic is garbage: the reader throws mid-capture, on the
  // producer. Every consumer must still see the end of its ring (no
  // hang, even with rings small enough to fill), and run() must surface
  // the reader's error exactly as the reference engine does.
  std::stringstream buf;
  pcap::PcapngWriter writer(buf);
  util::Rng rng(41);
  for (int i = 0; i < 2000; ++i) {
    const auto host = static_cast<std::uint32_t>(rng.uniform_int(1, 40));
    writer.write(
        SimTime::nanoseconds(1 + i * 10'000'000LL),
        net::encode_frame(sample_packet(host, rng.uniform() < 0.5)));
  }
  const std::array<std::uint8_t, 28> bad_shb = {
      0x0a, 0x0d, 0x0d, 0x0a, 28,   0,    0,    0,     // type, length
      0xde, 0xad, 0xbe, 0xef, 1,    0,    0,    0,     // magic, version
      0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  // section length
      28,   0,    0,    0};                            // trailing length
  const std::string capture =
      buf.str() + std::string(bad_shb.begin(), bad_shb.end());
  const std::vector<StubSpec> stubs = {
      {*net::Ipv4Prefix::parse("10.1.0.0/16"), "stub"}};

  std::string want;
  {
    std::istringstream in(capture, std::ios::binary);
    ReplayEngine engine(in, {});
    AgentDemux demux(engine.scheduler(), stubs,
                     core::SynDogParams::paper_defaults());
    engine.add_sink(demux);
    try {
      engine.run();
      ADD_FAILURE() << "reference engine accepted the bad section header";
    } catch (const std::runtime_error& e) {
      want = e.what();
    }
  }
  ASSERT_FALSE(want.empty());

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::istringstream in(capture, std::ios::binary);
    ShardedConfig cfg;
    cfg.threads = threads;
    cfg.ring_capacity = 16;
    ShardedReplay sharded(in, stubs, cfg);
    try {
      sharded.run();
      ADD_FAILURE() << "sharded replay accepted the bad section header";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), want);
    }
  }
}

TEST(IngestShardedTest, MatchesOracleThroughSynAckCollapse) {
  // Several healthy periods grow K past collapse_min_k, then SYN/ACKs
  // vanish for longer than outage_patience, then traffic recovers: the
  // merge must reproduce the agent's gap absorption, the patience
  // overflow (raw counts fed without resetting the streak), and the
  // recovery reset, byte for byte.
  std::ostringstream out(std::ios::binary);
  pcap::Writer writer(out);
  const std::int64_t t0_ns = SimTime::seconds(20).ns();
  std::uint16_t port = 1000;
  const auto write_period = [&](int period, int syns, int syn_acks) {
    const std::int64_t base = period * t0_ns;
    const int total = syns + syn_acks;
    for (int i = 0; i < total; ++i) {
      const auto host = static_cast<std::uint32_t>(i % 120 + 1);
      net::TcpPacketSpec spec;
      spec.src_mac = net::MacAddress::for_host(host);
      spec.dst_mac = net::MacAddress::for_host(0);
      spec.src_port = ++port;
      spec.dst_port = 80;
      const auto at = SimTime::nanoseconds(
          base + 1 + (i * (t0_ns - 2)) / total);
      if (i < syns) {
        spec.src_ip = net::Ipv4Address(10, 1, 0,
                                       static_cast<std::uint8_t>(host));
        spec.dst_ip = net::Ipv4Address(192, 0, 2, 1);
        writer.write(at, net::encode_frame(net::make_syn(spec)));
      } else {
        std::swap(spec.src_port, spec.dst_port);
        spec.src_ip = net::Ipv4Address(192, 0, 2, 1);
        spec.dst_ip = net::Ipv4Address(10, 1, 0,
                                       static_cast<std::uint8_t>(host));
        writer.write(at, net::encode_frame(net::make_syn_ack(spec)));
      }
    }
  };
  int period = 0;
  for (; period < 6; ++period) write_period(period, 40, 40);  // grow K
  for (; period < 13; ++period) write_period(period, 40, 0);  // collapse
  for (; period < 16; ++period) write_period(period, 40, 40);  // recover
  expect_sharded_matches_oracle(
      std::move(out).str(),
      {{*net::Ipv4Prefix::parse("10.1.0.0/16"), "stub"}},
      core::SynDogParams::paper_defaults());
}

/// Runs `capture` through the ByteSpan (zero-copy) constructor and
/// asserts stats, end state, routing tallies, and every history field
/// match the stream-constructed run — pcap::Reader walks a span in place
/// but a stream in blocks, so framing equivalence is its own contract.
void expect_span_matches_stream(const std::string& capture,
                                std::size_t threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  const std::vector<StubSpec> stubs = {
      {*net::Ipv4Prefix::parse("10.1.0.0/16"), "stub"}};
  ShardedConfig cfg;
  cfg.threads = threads;
  cfg.params = core::SynDogParams::paper_defaults();

  std::istringstream in(capture, std::ios::binary);
  ShardedReplay from_stream(in, stubs, cfg);
  from_stream.run();

  ShardedReplay from_span(
      net::ByteSpan{reinterpret_cast<const std::uint8_t*>(capture.data()),
                    capture.size()},
      stubs, cfg);
  EXPECT_EQ(from_span.format(), from_stream.format());
  from_span.run();

  EXPECT_EQ(from_span.stats().records, from_stream.stats().records);
  EXPECT_EQ(from_span.stats().frames, from_stream.stats().frames);
  EXPECT_EQ(from_span.stats().bytes, from_stream.stats().bytes);
  EXPECT_EQ(from_span.stats().decode_failures,
            from_stream.stats().decode_failures);
  EXPECT_EQ(from_span.stats().truncated, from_stream.stats().truncated);
  EXPECT_EQ(from_span.end_state(), from_stream.end_state());
  EXPECT_EQ(from_span.local_frames(), from_stream.local_frames());
  EXPECT_EQ(from_span.unroutable_frames(),
            from_stream.unroutable_frames());
  EXPECT_EQ(from_span.last_frame_at().ns(),
            from_stream.last_frame_at().ns());
  ASSERT_EQ(from_span.stub_count(), from_stream.stub_count());
  for (std::size_t s = 0; s < from_span.stub_count(); ++s) {
    SCOPED_TRACE("stub=" + std::to_string(s));
    const std::vector<core::PeriodReport>& got = from_span.history(s);
    const std::vector<core::PeriodReport>& want = from_stream.history(s);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t p = 0; p < want.size(); ++p) {
      SCOPED_TRACE("period=" + std::to_string(p));
      EXPECT_EQ(got[p].period_index, want[p].period_index);
      EXPECT_EQ(got[p].syn_count, want[p].syn_count);
      EXPECT_EQ(got[p].syn_ack_count, want[p].syn_ack_count);
      EXPECT_EQ(got[p].k_estimate, want[p].k_estimate);
      EXPECT_EQ(got[p].x, want[p].x);
      EXPECT_EQ(got[p].y, want[p].y);
      EXPECT_EQ(got[p].alarm, want[p].alarm);
    }
  }
}

TEST(IngestShardedTest, SpanSourceMatchesStreamSourcePcap) {
  const std::string capture = make_capture(1200, SimTime::seconds(70), 31);
  expect_span_matches_stream(capture, 1);
  expect_span_matches_stream(capture, 3);
}

TEST(IngestShardedTest, SpanSourceMatchesStreamSourceTruncated) {
  // Chop mid-record: the span walk must stop at the same record and
  // report the same kTruncated end state as the stream reader.
  const std::string whole = make_capture(600, SimTime::seconds(40), 32);
  expect_span_matches_stream(whole.substr(0, whole.size() - 9), 2);
}

TEST(IngestShardedTest, SpanSourceMatchesStreamSourcePcapng) {
  std::stringstream buf;
  pcap::PcapngWriter writer(buf);
  util::Rng rng(33);
  for (int i = 0; i < 300; ++i) {
    const auto host = static_cast<std::uint32_t>(rng.uniform_int(1, 40));
    writer.write(
        SimTime::nanoseconds(1 + i * 150'000'000LL),
        net::encode_frame(sample_packet(host, rng.uniform() < 0.5)));
  }
  const std::string capture = buf.str();
  expect_span_matches_stream(capture, 2);
}

TEST(IngestShardedTest, SpanSourceMatchesStreamSourceAcrossBlocks) {
  // The stream constructor walks records out of 1 MiB block reads that
  // start after the 24-byte file header; the span constructor walks the
  // whole capture in one pass. Over 1.5+ MiB of 70-byte records, a
  // leading undecodable record of `lead` data bytes puts the first block
  // end inside record data (no lead record), on a record boundary (30)
  // or inside a record header (90), so records straddle the refill.
  ASSERT_EQ(net::encode_frame(sample_packet(1, false)).size(), 54u);
  const std::vector<StubSpec> stubs = {
      {*net::Ipv4Prefix::parse("10.1.0.0/16"), "stub"}};
  const core::SynDogParams params = core::SynDogParams::paper_defaults();
  for (const std::size_t lead : {std::size_t{0}, std::size_t{30},
                                 std::size_t{90}}) {
    SCOPED_TRACE("lead=" + std::to_string(lead));
    std::ostringstream out(std::ios::binary);
    pcap::Writer writer(out);
    if (lead != 0) writer.write(SimTime::zero(), net::ByteBuffer(lead, 0xEE));
    util::Rng rng(lead + 7);
    for (int i = 0; i < 24000; ++i) {
      const auto host = static_cast<std::uint32_t>(rng.uniform_int(1, 40));
      writer.write(
          SimTime::nanoseconds(i * 5'000'000LL),
          net::encode_frame(sample_packet(host, rng.uniform() < 0.5)));
    }
    writer.flush();
    const std::string whole = std::move(out).str();
    ASSERT_GT(whole.size(), std::size_t{3} << 19);

    for (const std::string& capture :
         {whole, whole.substr(0, whole.size() - 9)}) {
      SCOPED_TRACE(capture.size() == whole.size() ? "intact" : "torn");
      const OracleResult oracle = run_oracle(capture, stubs, params);
      EXPECT_EQ(oracle.end, capture.size() == whole.size()
                                ? pcap::ReadEnd::kEof
                                : pcap::ReadEnd::kTruncated);
      for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ShardedConfig cfg;
        cfg.threads = threads;
        cfg.params = params;
        std::istringstream in(capture, std::ios::binary);
        ShardedReplay from_stream(in, stubs, cfg);
        from_stream.run();
        expect_matches_oracle(from_stream, oracle);
        ShardedReplay from_span(
            net::ByteSpan{
                reinterpret_cast<const std::uint8_t*>(capture.data()),
                capture.size()},
            stubs, cfg);
        from_span.run();
        expect_matches_oracle(from_span, oracle);
      }
    }
  }
}

TEST(IngestShardedTest, HugeSnaplenMatchesOracle) {
  // A valid capture whose header declares snaplen 0xFFFF0000: the
  // snaplen + 65536 length guard must not wrap in 32 bits, so every
  // datapath reads all three records to a clean end.
  std::ostringstream out(std::ios::binary);
  pcap::Writer writer(out, pcap::LinkType::kEthernet, false, 0xFFFF0000);
  for (std::uint32_t host = 1; host <= 3; ++host) {
    writer.write(SimTime::seconds(host),
                 net::encode_frame(sample_packet(host, false)));
  }
  writer.flush();
  const std::string capture = std::move(out).str();
  const std::vector<StubSpec> stubs = {
      {*net::Ipv4Prefix::parse("10.1.0.0/16"), "stub"}};
  const core::SynDogParams params = core::SynDogParams::paper_defaults();
  const OracleResult oracle = run_oracle(capture, stubs, params);
  EXPECT_EQ(oracle.stats.records, 3u);
  EXPECT_EQ(oracle.end, pcap::ReadEnd::kEof);

  ShardedConfig cfg;
  cfg.threads = 2;
  cfg.params = params;
  ShardedReplay from_span(span_of(capture), stubs, cfg);
  from_span.run();
  expect_matches_oracle(from_span, oracle);
  std::istringstream in(capture, std::ios::binary);
  ShardedReplay from_stream(in, stubs, cfg);
  from_stream.run();
  expect_matches_oracle(from_stream, oracle);
}

TEST(IngestShardedTest, HugeRecordLengthAllocatesOnlyWhatArrives) {
  // snaplen 0xFFFFFFFF lets a record header claim incl_len 0xFFFF0000
  // past the plausibility guard; only 100 bytes follow. Every source
  // must stop kTruncated with no record, and size nothing from the
  // claimed length: no single request above 4 MiB.
  std::ostringstream out(std::ios::binary);
  pcap::Writer(out, pcap::LinkType::kEthernet, false, 0xFFFFFFFF);
  std::string capture = std::move(out).str();
  for (const std::uint32_t field : {0u, 0u, 0xFFFF0000u, 0xFFFF0000u}) {
    for (int i = 0; i < 4; ++i) {
      capture.push_back(static_cast<char>(field >> (8 * i)));
    }
  }
  capture.append(100, '\xAB');
  constexpr std::size_t kLimit = std::size_t{4} << 20;
  const std::vector<StubSpec> stubs = {
      {*net::Ipv4Prefix::parse("10.1.0.0/16"), "stub"}};

  for (const bool span : {false, true}) {
    SCOPED_TRACE(span ? "span" : "stream");
    std::istringstream in(capture, std::ios::binary);
    testsupport::AllocGuard guard;
    std::optional<CaptureSource> source;
    if (span) {
      source.emplace(span_of(capture));
    } else {
      source.emplace(in);
    }
    pcap::RecordView rec;
    const bool got = source->next(rec);
    guard.stop();
    EXPECT_FALSE(got);
    EXPECT_EQ(source->end_state(), pcap::ReadEnd::kTruncated);
    EXPECT_EQ(source->records_read(), 0u);
    EXPECT_LE(guard.largest(), kLimit);
  }
  for (const bool span : {false, true}) {
    SCOPED_TRACE(span ? "sharded span" : "sharded stream");
    std::istringstream in(capture, std::ios::binary);
    ShardedConfig cfg;
    cfg.threads = 1;
    testsupport::AllocGuard guard;
    std::optional<ShardedReplay> sharded;
    if (span) {
      sharded.emplace(span_of(capture), stubs, cfg);
    } else {
      sharded.emplace(in, stubs, cfg);
    }
    sharded->run();
    guard.stop();
    EXPECT_EQ(sharded->end_state(), pcap::ReadEnd::kTruncated);
    EXPECT_EQ(sharded->stats().records, 0u);
    EXPECT_TRUE(sharded->stats().truncated);
    EXPECT_LE(guard.largest(), kLimit);
  }
}

TEST(IngestShardedTest, SpanSourceRejectsGarbage) {
  const std::vector<StubSpec> stubs = {
      {*net::Ipv4Prefix::parse("10.1.0.0/16"), "s"}};
  const std::string tiny = "abc";  // shorter than the 4-byte magic sniff
  EXPECT_THROW(ShardedReplay(span_of(tiny), stubs, {}),
               std::runtime_error);
  const std::string garbage = "definitely not a capture";
  EXPECT_THROW(ShardedReplay(span_of(garbage), stubs, {}),
               std::runtime_error);
}

TEST(IngestShardedTest, RejectsGarbageAndSecondRun) {
  {
    std::istringstream in("definitely not a capture", std::ios::binary);
    EXPECT_THROW(
        ShardedReplay(in, {{*net::Ipv4Prefix::parse("10.1.0.0/16"), "s"}},
                      {}),
        std::runtime_error);
  }
  const std::string capture = make_capture(20, SimTime::seconds(1), 3);
  std::istringstream in(capture, std::ios::binary);
  ShardedReplay sharded(
      in, {{*net::Ipv4Prefix::parse("10.1.0.0/16"), "s"}}, {});
  sharded.run();
  EXPECT_THROW(sharded.run(), std::logic_error);
}

TEST(IngestShardedTest, ConfigValidation) {
  const std::string capture = make_capture(5, SimTime::seconds(1), 4);
  const std::vector<StubSpec> stubs = {
      {*net::Ipv4Prefix::parse("10.1.0.0/16"), "s"}};
  const auto expect_rejects = [&](ShardedConfig cfg) {
    std::istringstream in(capture, std::ios::binary);
    EXPECT_THROW(ShardedReplay(in, stubs, cfg), std::invalid_argument);
  };
  ShardedConfig cfg;
  cfg.threads = 0;
  expect_rejects(cfg);
  cfg = ShardedConfig{};
  cfg.ring_capacity = 0;
  expect_rejects(cfg);
  cfg = ShardedConfig{};
  cfg.flush_threshold = 0;
  expect_rejects(cfg);
  cfg = ShardedConfig{};
  cfg.default_stub = 1;  // only one stub
  expect_rejects(cfg);
  cfg = ShardedConfig{};
  cfg.default_stub = -2;
  expect_rejects(cfg);
  {
    std::istringstream in(capture, std::ios::binary);
    EXPECT_THROW(ShardedReplay(in, {}, ShardedConfig{}),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace syndog::ingest
