// `ingest-replay`: capture replay through the sharded and the reference
// ingest paths.
//
// The capture is a seeded, in-memory classic pcap: 42% outbound SYNs and
// 40% inbound SYN/ACKs (bare 54-byte frames) plus 18% outbound data ACKs
// carrying a full 1460-byte segment, over 600 s of capture time. At full
// size (317 MiB) it is larger than the 300 MiB last-level cache of the
// 4-vCPU Xeon it was sized on, so every pass streams it from memory.
//
// One pass replays the capture through ShardedReplay (zero-copy span
// source, nproc - 1 consumers plus the producer on this thread) and then
// through ReplayEngine + AgentDemux (the single-threaded reference, read
// through an istream over the same bytes). One operation is one frame; a
// pass whose sharded history(0) is not field-identical to the
// reference's fails all of its frames.
//
// The traced run times each layer's public per-frame call from here, in
// spans of kSpanFrames frames: pcap::Reader::next_into (framing),
// net::extract_flow_digest, ingest::flow_hash + shard_of,
// classify::sweep_flags and net::decode_frame_into.
#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "syndog/classify/batch.hpp"
#include "syndog/core/syndog.hpp"
#include "syndog/ingest/agent_demux.hpp"
#include "syndog/ingest/flow_hash.hpp"
#include "syndog/ingest/replay.hpp"
#include "syndog/ingest/sharded.hpp"
#include "syndog/net/address.hpp"
#include "syndog/net/digest.hpp"
#include "syndog/net/packet.hpp"
#include "syndog/pcap/pcap.hpp"
#include "syndog/util/rng.hpp"
#include "syndog/util/time.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace net = syndog::net;
using syndog::util::SimTime;

constexpr std::int64_t kCaptureSpanNs = 600'000'000'000;  // 30 periods
constexpr std::size_t kSpanFrames = 4096;  // frames per traced span
constexpr std::uint32_t kDataBytes = 1460;

/// Appends everything written to it to a string with reserved capacity,
/// so synthesis never holds two copies of the capture.
class StringSink : public std::streambuf {
 public:
  explicit StringSink(std::string& out) : out_(out) {}

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      out_.push_back(traits_type::to_char_type(c));
    }
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    out_.append(s, static_cast<std::size_t>(n));
    return n;
  }

 private:
  std::string& out_;
};

/// Reads a string in place; the istream the reference path needs,
/// without copying the capture.
class SpanSource : public std::streambuf {
 public:
  explicit SpanSource(const std::string& bytes) {
    char* p = const_cast<char*>(bytes.data());  // never written through
    setg(p, p, p + bytes.size());
  }
};

struct FrameRef {
  std::uint32_t offset = 0;  ///< first frame byte within the capture
  std::uint32_t length = 0;
};

struct Capture {
  std::string bytes;
  std::vector<FrameRef> frames;  ///< the benchmark's own record index

  [[nodiscard]] net::ByteSpan span() const {
    return {reinterpret_cast<const std::uint8_t*>(bytes.data()),
            bytes.size()};
  }
  [[nodiscard]] net::ByteSpan frame(const FrameRef& f) const {
    return span().subspan(f.offset, f.length);
  }
};

enum class Kind : std::uint8_t { kSyn, kSynAck, kData };

struct Draw {
  std::uint32_t host = 0;
  std::uint32_t remote = 0;
  Kind kind = Kind::kSyn;
};

Draw draw(syndog::util::Rng& rng) {
  Draw d;
  d.host = static_cast<std::uint32_t>(rng.uniform_int(1, 200));
  d.remote = static_cast<std::uint32_t>(rng.uniform_int(1, 200));
  const double u = rng.uniform();
  d.kind = u < 0.42 ? Kind::kSyn : u < 0.82 ? Kind::kSynAck : Kind::kData;
  return d;
}

const net::Ipv4Prefix& stub_prefix() {
  static const net::Ipv4Prefix p = *net::Ipv4Prefix::parse("10.1.0.0/16");
  return p;
}

Capture synthesize(std::uint64_t seed, std::uint64_t frames) {
  // Size the buffer exactly with a dry run of the same draws.
  syndog::util::Rng sizing(seed);
  std::size_t bytes = 24;
  for (std::uint64_t i = 0; i < frames; ++i) {
    bytes += 16 + 54 + (draw(sizing).kind == Kind::kData ? kDataBytes : 0);
  }

  Capture cap;
  cap.bytes.reserve(bytes);
  cap.frames.reserve(frames);
  StringSink sink(cap.bytes);
  std::ostream out(&sink);
  syndog::pcap::Writer writer(out);
  const net::MacAddress router_mac = net::MacAddress::for_host(0);
  const net::Ipv4Prefix remote = *net::Ipv4Prefix::parse("192.0.2.0/24");
  syndog::util::Rng rng(seed);
  for (std::uint64_t i = 0; i < frames; ++i) {
    const Draw d = draw(rng);
    net::TcpPacketSpec spec;
    const net::Ipv4Address stub_ip = stub_prefix().host(d.host);
    const net::Ipv4Address remote_ip = remote.host(d.remote);
    const auto stub_port = static_cast<std::uint16_t>(1024 + d.host);
    if (d.kind == Kind::kSynAck) {
      spec.src_ip = remote_ip;
      spec.dst_ip = stub_ip;
      spec.src_port = 80;
      spec.dst_port = stub_port;
      spec.flags = net::TcpFlags::syn_ack();
    } else {
      spec.src_ip = stub_ip;
      spec.dst_ip = remote_ip;
      spec.src_port = stub_port;
      spec.dst_port = 80;
      spec.flags = d.kind == Kind::kSyn ? net::TcpFlags::syn_only()
                                        : net::TcpFlags::ack_only();
      if (d.kind == Kind::kData) spec.payload_bytes = kDataBytes;
    }
    spec.src_mac = net::MacAddress::for_host(d.host);
    spec.dst_mac = router_mac;
    const net::ByteBuffer frame = net::encode_frame(net::make_tcp_packet(spec));
    const auto at = SimTime::nanoseconds(static_cast<std::int64_t>(i) *
                                         (kCaptureSpanNs /
                                          static_cast<std::int64_t>(frames)));
    writer.write(at, frame);
    cap.frames.push_back(
        {static_cast<std::uint32_t>(cap.bytes.size() - frame.size()),
         static_cast<std::uint32_t>(frame.size())});
  }
  writer.flush();
  if (cap.bytes.size() != bytes) {
    throw std::logic_error("capture synthesis: size estimate is off");
  }
  return cap;
}

std::vector<syndog::ingest::StubSpec> stubs() {
  return {{stub_prefix(), "stub"}};
}

struct ShardedRun {
  Timing timing;
  std::uint64_t frames = 0;
  std::vector<syndog::core::PeriodReport> history;
  std::vector<std::uint64_t> delivered;  ///< per shard
};

ShardedRun run_sharded(const Capture& cap, std::size_t consumers) {
  syndog::ingest::ShardedConfig cfg;
  cfg.threads = consumers;
  cfg.params = syndog::core::SynDogParams::paper_defaults();
  syndog::ingest::ShardedReplay replay(cap.span(), stubs(), cfg);
  ShardedRun r;
  r.timing = time_it([&] { replay.run(); });
  r.frames = replay.stats().frames;
  r.history = replay.history(0);
  for (std::size_t i = 0; i < replay.shard_count(); ++i) {
    r.delivered.push_back(replay.shard(i).delivered);
  }
  return r;
}

struct ReferenceRun {
  Timing timing;
  std::uint64_t frames = 0;
  std::vector<syndog::core::PeriodReport> history;
};

ReferenceRun run_reference(const Capture& cap) {
  SpanSource source(cap.bytes);
  std::istream in(&source);
  syndog::ingest::ReplayEngine engine(in, {});
  syndog::ingest::AgentDemux demux(
      engine.scheduler(), stubs(),
      syndog::core::SynDogParams::paper_defaults());
  engine.add_sink(demux);
  ReferenceRun r;
  r.timing = time_it([&] {
    r.frames = engine.run().frames;
    demux.close_final_period();
  });
  r.history = demux.agent(0).history();
  return r;
}

/// Per-layer busy time of one stage pass; all null when untraced.
struct StageLayers {
  Layer* frame = nullptr;
  Layer* digest = nullptr;
  Layer* hash = nullptr;
  Layer* sweep = nullptr;
  Layer* decode = nullptr;
};

/// Runs every layer's per-frame call over the whole capture, one layer
/// at a time, in spans of kSpanFrames frames. Returns the wall time;
/// throws if a layer rejects a frame the synthesizer wrote.
double stage_pass(const Capture& cap, std::size_t shards,
                  const StageLayers& layers, std::uint64_t& checksum) {
  const Clock::time_point start = Clock::now();
  const std::size_t n = cap.frames.size();
  const auto spans = [&](Layer* layer, auto&& body) {
    for (std::size_t lo = 0; lo < n; lo += kSpanFrames) {
      const std::size_t hi = std::min(n, lo + kSpanFrames);
      span(layer, [&] { body(lo, hi); });
    }
    if (layer != nullptr) layer->work += n;
  };

  SpanSource source(cap.bytes);
  std::istream in(&source);
  syndog::pcap::Reader reader(in);
  syndog::pcap::Record record;
  std::uint64_t framed = 0;
  spans(layers.frame, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      framed += reader.next_into(record) ? record.data.size() : 0;
    }
  });

  std::vector<net::FlowDigest> digests(n);
  std::uint64_t rejected = 0;
  spans(layers.digest, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      rejected += net::extract_flow_digest(cap.frame(cap.frames[i]),
                                           digests[i]) ? 0 : 1;
    }
  });

  std::vector<std::uint8_t> shard_of(n);
  spans(layers.hash, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      shard_of[i] = static_cast<std::uint8_t>(syndog::ingest::shard_of(
          syndog::ingest::flow_hash(digests[i]), shards));
    }
  });

  std::vector<std::uint8_t> flags(n);
  for (std::size_t i = 0; i < n; ++i) flags[i] = digests[i].flags;
  std::uint64_t syns = 0;
  spans(layers.sweep, [&](std::size_t lo, std::size_t hi) {
    const syndog::classify::FlagSweep s = syndog::classify::sweep_flags(
        std::span<const std::uint8_t>(flags).subspan(lo, hi - lo));
    syns += s.syn + s.syn_ack;
  });

  net::Packet packet;
  spans(layers.decode, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      rejected +=
          net::decode_frame_into(cap.frame(cap.frames[i]), packet) ? 0 : 1;
    }
  });

  if (rejected != 0 || reader.records_read() != n) {
    throw std::runtime_error("stage pass: a layer rejected a valid frame");
  }
  checksum += framed + syns;
  for (const std::uint8_t s : shard_of) checksum += s;
  return seconds_since(start);
}

}  // namespace

Result run_ingest(const Options& opts) {
  const std::uint64_t frames = opts.size == Size::kTiny ? 20'000 : 1'000'000;
  const std::size_t consumers =
      static_cast<std::size_t>(std::max(1, opts.nproc - 1));

  Result result;
  Measurement m;
  Capture cap;
  for (std::uint64_t i = 0; i < 3; ++i) {
    const Clock::time_point start = Clock::now();
    { const Capture old = std::move(cap); }  // one capture at a time
    cap = synthesize(derive_seed(opts.seed, i), frames);
    m.setups.push_back(seconds_since(start));
  }

  Layer frame;
  Layer digest;
  Layer hash;
  Layer sweep;
  Layer decode;
  const StageLayers traced{&frame, &digest, &hash, &sweep, &decode};
  std::vector<Sample> rates_1c;
  std::vector<double> skews;
  std::uint64_t checksum = 0;
  double traced_s = 0.0;
  double plain_s = 0.0;
  while (m.more(opts)) {
    m.begin_batch();
    const ShardedRun sharded = run_sharded(cap, consumers);
    const ReferenceRun reference = run_reference(cap);

    std::vector<syndog::core::PeriodReport> history = sharded.history;
    if (opts.corrupt && m.batches == 0 && !history.empty()) {
      ++history.front().syn_count;
    }
    result.attempted += reference.frames;
    if (history != reference.history || sharded.frames != reference.frames ||
        reference.frames != cap.frames.size()) {
      result.failed += reference.frames;
    }
    m.work.push_back({static_cast<double>(sharded.frames), sharded.timing});
    m.ref_work.push_back(
        {static_cast<double>(reference.frames), reference.timing});
    m.measured_s += sharded.timing.wall_s + reference.timing.wall_s;

    if (opts.trace) {
      const double plain = stage_pass(cap, consumers, {}, checksum);
      const double t = stage_pass(cap, consumers, traced, checksum);
      const ShardedRun one = run_sharded(cap, 1);
      if (one.history != reference.history) {
        result.checks_passed = false;
        result.notes.push_back("1-consumer sharded run diverges");
      }
      rates_1c.push_back({static_cast<double>(one.frames), one.timing});
      const double max_shard = static_cast<double>(
          *std::max_element(sharded.delivered.begin(),
                            sharded.delivered.end()));
      double sum = 0.0;
      for (const std::uint64_t d : sharded.delivered) {
        sum += static_cast<double>(d);
      }
      skews.push_back(max_shard * static_cast<double>(
                                      sharded.delivered.size()) / sum);
      plain_s += plain;
      traced_s += t;
      m.measured_s += plain + t + one.timing.wall_s;
    }
    m.end_batch();
  }

  result.info["threads"] = std::to_string(consumers + 1);
  result.info["consumers"] = std::to_string(consumers);
  result.info["reference_threads"] = "1";
  result.info["frames"] = std::to_string(frames);
  result.info["capture_mib"] =
      std::to_string(static_cast<double>(cap.bytes.size()) / (1 << 20));
  result.info["sweep_backend"] =
      std::string(syndog::classify::sweep_flags_backend());
  m.report(result);
  if (opts.trace) {
    result.info["stage_checksum"] = std::to_string(checksum);
    const auto ns_per_pkt = [](const Layer& l) {
      return l.busy_s * 1e9 / static_cast<double>(l.work);
    };
    const double digest_ns = ns_per_pkt(digest);
    const double hash_ns = ns_per_pkt(hash);
    result.metric("pcap.frame_ns_per_pkt", ns_per_pkt(frame), "ns");
    result.metric("net.digest_ns_per_pkt", digest_ns, "ns");
    result.metric("ingest.hash_ns_per_pkt", hash_ns, "ns");
    // The span source walks records itself (no pcap::Reader), and the
    // digest spans already pay that walk: they read each frame straight
    // out of the capture bytes.
    result.metric("ingest.producer_ceiling_pkts_per_s",
                  1e9 / (digest_ns + hash_ns), "pkt/s");
    result.metric("classify.sweep_ns_per_pkt", ns_per_pkt(sweep), "ns");
    result.metric("net.decode_ns_per_pkt", ns_per_pkt(decode), "ns");
    result.metric("ingest.shard_skew", median(skews), "ratio");
    const double pkts_per_s = screened_rate(m.work);
    const double pkts_per_s_1c = screened_rate(rates_1c);
    result.metric("ingest.pkts_per_s", pkts_per_s, "pkt/s");
    result.metric("ingest.ref_pkts_per_s", screened_rate(m.ref_work),
                  "pkt/s");
    result.metric("ingest.pkts_per_s_1c", pkts_per_s_1c, "pkt/s");
    result.metric("ingest.scaling", pkts_per_s / pkts_per_s_1c, "ratio");
    result.metric("bench.trace_overhead", traced_s / plain_s, "ratio");
  }
  return result;
}

}  // namespace perfbench
