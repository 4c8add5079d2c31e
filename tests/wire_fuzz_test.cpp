// Property tests for wire parsing under hostile framing.
//
// The paper's detector is only as good as its counting layer (§2): a parser
// that crashes or reads out of bounds on adversarial input corrupts the
// CUSUM's Δn. These tests drive every parser with seeded garbage, truncated
// prefixes of valid frames, deliberately misaligned buffers, and bit-flipped
// capture files. The invariant everywhere: return nullopt / set truncated /
// throw std::runtime_error — never crash. Run under ASan+UBSan
// (`ctest --preset asan-ubsan`) these become memory-safety proofs.

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "syndog/ingest/capture_source.hpp"
#include "syndog/net/packet.hpp"
#include "syndog/net/wire.hpp"
#include "syndog/pcap/pcap.hpp"
#include "syndog/pcap/pcapng.hpp"
#include "syndog/util/rng.hpp"

namespace syndog {
namespace {

constexpr std::uint64_t kSeed = 0x5d0e57ab1e5eedULL;
constexpr int kTrials = 500;

net::ByteBuffer random_bytes(util::Rng& rng, std::size_t size) {
  net::ByteBuffer buf(size);
  for (auto& b : buf) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return buf;
}

net::ByteBuffer sample_frame(util::Rng& rng) {
  net::TcpPacketSpec spec;
  const auto host = static_cast<std::uint32_t>(rng.uniform_int(1, 250));
  spec.src_mac = net::MacAddress::for_host(host);
  spec.dst_mac = net::MacAddress::for_host(0xffffff);
  spec.src_ip = net::Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(host));
  spec.dst_ip = net::Ipv4Address(192, 0, 2, 1);
  spec.src_port = static_cast<std::uint16_t>(rng.uniform_int(1024, 65535));
  spec.dst_port = 80;
  return net::encode_frame(net::make_syn(spec));
}

/// Exercises every header parser on one buffer; the assertions are the
/// internal-consistency invariants, the real check is ASan/UBSan silence.
void parse_all(net::ByteSpan bytes) {
  if (auto eth = net::parse_ethernet(bytes)) {
    ASSERT_GE(bytes.size(), net::EthernetHeader::kSize);
  }
  if (auto ip = net::parse_ipv4(bytes)) {
    ASSERT_GE(bytes.size(), ip->header_bytes());
    ASSERT_EQ(ip->version, 4u);
  }
  if (auto tcp = net::parse_tcp(bytes)) {
    ASSERT_GE(bytes.size(), tcp->header_bytes());
  }
  if (auto udp = net::parse_udp(bytes)) {
    ASSERT_GE(udp->length, net::UdpHeader::kSize);
  }
  (void)net::parse_icmp(bytes);
  (void)net::decode_frame(bytes);
  (void)net::verify_ipv4_checksum(bytes);
}

TEST(WireFuzzTest, GarbageBuffersNeverCrashHeaderParsers) {
  util::Rng rng(kSeed);
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto size = static_cast<std::size_t>(rng.uniform_int(0, 128));
    const net::ByteBuffer buf = random_bytes(rng, size);
    parse_all(net::ByteSpan{buf.data(), buf.size()});
  }
}

TEST(WireFuzzTest, TruncatedValidFramesNeverCrash) {
  util::Rng rng(util::splitmix64(kSeed));
  for (int trial = 0; trial < kTrials; ++trial) {
    const net::ByteBuffer frame = sample_frame(rng);
    const auto cut =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(frame.size())));
    parse_all(net::ByteSpan{frame.data(), cut});
  }
}

TEST(WireFuzzTest, MisalignedBuffersAreSafe) {
  util::Rng rng(kSeed + 1);
  for (int trial = 0; trial < kTrials; ++trial) {
    const net::ByteBuffer frame = sample_frame(rng);
    // Copy the frame to every odd offset inside an oversized arena so the
    // parsers see 2- and 4-byte fields at misaligned addresses; the
    // memcpy-based safe readers must be exact regardless.
    net::ByteBuffer arena(frame.size() + 8, 0);
    const auto offset = static_cast<std::size_t>(rng.uniform_int(1, 7));
    std::memcpy(arena.data() + offset, frame.data(), frame.size());
    const net::ByteSpan view{arena.data() + offset, frame.size()};
    parse_all(view);
    const auto aligned = net::decode_frame(net::ByteSpan{frame.data(), frame.size()});
    const auto shifted = net::decode_frame(view);
    ASSERT_TRUE(aligned.has_value());
    ASSERT_TRUE(shifted.has_value());
    EXPECT_EQ(aligned->ip.src.value(), shifted->ip.src.value());
    EXPECT_EQ(aligned->tcp->seq, shifted->tcp->seq);
  }
}

TEST(WireFuzzTest, BitFlippedFrameFieldsStayInBounds) {
  util::Rng rng(kSeed + 2);
  for (int trial = 0; trial < kTrials; ++trial) {
    net::ByteBuffer frame = sample_frame(rng);
    // Flip 1-8 random bits; length/offset fields now lie about the buffer.
    const auto flips = rng.uniform_int(1, 8);
    for (std::int64_t i = 0; i < flips; ++i) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(frame.size()) - 1));
      frame[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    }
    parse_all(net::ByteSpan{frame.data(), frame.size()});
  }
}

template <typename ReaderT>
void drain_reader(std::istream& in) {
  try {
    ReaderT reader(in);
    while (reader.next()) {
    }
  } catch (const std::runtime_error&) {
    // Malformed input is allowed to throw; it must not crash.
  }
}

/// How a pcap::Reader drain ended: thrown on the header, or the records
/// read and the terminal state.
struct PcapDrain {
  bool threw = false;
  std::uint64_t records = 0;
  pcap::ReadEnd end = pcap::ReadEnd::kStreaming;
};

template <typename Source>
PcapDrain drain_pcap(Source&& source) {
  PcapDrain out;
  try {
    pcap::Reader reader(std::forward<Source>(source));
    pcap::RecordView view;
    while (reader.next_view(view)) {
    }
    out.records = reader.records_read();
    out.end = reader.end_state();
  } catch (const std::runtime_error&) {
    out.threw = true;
  }
  return out;
}

TEST(WireFuzzTest, PcapReaderSurvivesGarbageStreams) {
  // Every garbage buffer is drained as a stream and as an in-memory span;
  // the two modes share one record walk, so they must end alike.
  util::Rng rng(kSeed + 3);
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto size = static_cast<std::size_t>(rng.uniform_int(0, 512));
    net::ByteBuffer buf = random_bytes(rng, size);
    // Half the trials carry a real magic and version so the walk runs
    // over garbage records instead of stopping at the file header.
    if (trial % 2 == 0 && buf.size() >= 24) {
      const std::uint8_t header[6] = {0xd4, 0xc3, 0xb2, 0xa1, 2, 0};
      std::memcpy(buf.data(), header, sizeof header);
    }
    std::stringstream stream(
        std::string(reinterpret_cast<const char*>(buf.data()), buf.size()));
    const PcapDrain from_stream = drain_pcap(stream);
    const PcapDrain from_span =
        drain_pcap(net::ByteSpan{buf.data(), buf.size()});
    EXPECT_EQ(from_span.threw, from_stream.threw) << "trial " << trial;
    EXPECT_EQ(from_span.records, from_stream.records) << "trial " << trial;
    EXPECT_EQ(from_span.end, from_stream.end) << "trial " << trial;
  }
}

TEST(WireFuzzTest, PcapngReaderSurvivesGarbageStreams) {
  util::Rng rng(kSeed + 4);
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto size = static_cast<std::size_t>(rng.uniform_int(0, 512));
    net::ByteBuffer buf = random_bytes(rng, size);
    // Half the trials start with a plausible SHB type so the reader gets
    // past the magic check and into block parsing.
    if (trial % 2 == 0 && buf.size() >= 4) {
      buf[0] = 0x0a;
      buf[1] = 0x0d;
      buf[2] = 0x0d;
      buf[3] = 0x0a;
    }
    std::stringstream stream(
        std::string(reinterpret_cast<const char*>(buf.data()), buf.size()));
    drain_reader<pcap::PcapngReader>(stream);
  }
}

std::string valid_capture(util::Rng& rng, bool pcapng) {
  std::stringstream out;
  if (pcapng) {
    pcap::PcapngWriter writer(out);
    for (int i = 0; i < 4; ++i) {
      writer.write(util::SimTime::from_seconds(0.1 * (i + 1)),
                   sample_frame(rng));
    }
  } else {
    pcap::Writer writer(out);
    for (int i = 0; i < 4; ++i) {
      writer.write(util::SimTime::from_seconds(0.1 * (i + 1)),
                   sample_frame(rng));
    }
  }
  return out.str();
}

TEST(WireFuzzTest, CorruptedCaptureFilesNeverCrashSniffer) {
  util::Rng rng(kSeed + 5);
  for (int trial = 0; trial < kTrials; ++trial) {
    std::string file = valid_capture(rng, trial % 2 == 0);
    // Corrupt: truncate to a random prefix, then flip a few random bytes.
    const auto cut = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(file.size())));
    file.resize(cut);
    for (std::int64_t i = 0; i < rng.uniform_int(0, 4) && !file.empty(); ++i) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(file.size()) - 1));
      file[at] = static_cast<char>(rng.uniform_int(0, 255));
    }
    std::stringstream stream(file);
    try {
      ingest::CaptureSource source(stream);
      pcap::RecordView rec;
      while (source.next(rec)) {
      }
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(WireFuzzTest, SafeLoadsMatchReferenceAtEveryOffset) {
  util::Rng rng(kSeed + 6);
  net::ByteBuffer buf = random_bytes(rng, 64);
  for (std::size_t at = 0; at + 8 <= buf.size(); ++at) {
    const std::uint8_t* p = buf.data() + at;
    EXPECT_EQ(net::load_be16(p),
              static_cast<std::uint16_t>((std::uint16_t{p[0]} << 8) | p[1]));
    EXPECT_EQ(net::load_be32(p), (std::uint32_t{p[0]} << 24) |
                                     (std::uint32_t{p[1]} << 16) |
                                     (std::uint32_t{p[2]} << 8) | p[3]);
    EXPECT_EQ(net::load_le16(p),
              static_cast<std::uint16_t>(std::uint16_t{p[0]} |
                                         (std::uint16_t{p[1]} << 8)));
    EXPECT_EQ(net::load_le32(p),
              std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
                  (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24));
    std::uint64_t le64 = 0;
    for (int i = 7; i >= 0; --i) le64 = (le64 << 8) | p[i];
    EXPECT_EQ(net::load_le64(p), le64);
  }
  EXPECT_EQ(net::byteswap16(0x1234u), 0x3412u);
  EXPECT_EQ(net::byteswap32(0x12345678u), 0x78563412u);
  EXPECT_EQ(net::byteswap64(0x0102030405060708ULL), 0x0807060504030201ULL);
}

}  // namespace
}  // namespace syndog
