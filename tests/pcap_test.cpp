#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "syndog/net/packet.hpp"
#include "syndog/pcap/pcap.hpp"
#include "syndog/util/rng.hpp"

namespace syndog::pcap {
namespace {

net::ByteBuffer sample_frame(std::uint32_t host) {
  net::TcpPacketSpec spec;
  spec.src_mac = net::MacAddress::for_host(host);
  spec.dst_mac = net::MacAddress::for_host(0xffffff);
  spec.src_ip = net::Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(host));
  spec.dst_ip = net::Ipv4Address(192, 0, 2, 1);
  spec.src_port = static_cast<std::uint16_t>(30000 + host);
  spec.dst_port = 80;
  return net::encode_frame(net::make_syn(spec));
}

TEST(PcapTest, WriteReadRoundTripMicroseconds) {
  std::stringstream buf;
  Writer writer(buf);
  const net::ByteBuffer f1 = sample_frame(1);
  const net::ByteBuffer f2 = sample_frame(2);
  writer.write(util::SimTime::from_seconds(1.5), f1);
  writer.write(util::SimTime::from_seconds(2.000001), f2);
  EXPECT_EQ(writer.records_written(), 2u);

  Reader reader(buf);
  EXPECT_FALSE(reader.header().nanosecond);
  EXPECT_FALSE(reader.header().swapped);
  EXPECT_EQ(reader.header().link_type, LinkType::kEthernet);

  const auto r1 = reader.next();
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->timestamp, util::SimTime::from_seconds(1.5));
  EXPECT_EQ(r1->data, f1);
  EXPECT_EQ(r1->orig_len, f1.size());

  const auto r2 = reader.next();
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->timestamp.ns(), 2'000'001'000);  // 1 us resolution

  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.truncated());
}

TEST(PcapTest, NanosecondResolutionPreserved) {
  std::stringstream buf;
  Writer writer(buf, LinkType::kEthernet, /*nanosecond=*/true);
  writer.write(util::SimTime::nanoseconds(123456789), sample_frame(1));
  Reader reader(buf);
  EXPECT_TRUE(reader.header().nanosecond);
  const auto rec = reader.next();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->timestamp.ns(), 123456789);
}

TEST(PcapTest, SnaplenTruncatesButKeepsOrigLen) {
  std::stringstream buf;
  Writer writer(buf, LinkType::kEthernet, false, /*snaplen=*/40);
  const net::ByteBuffer frame = sample_frame(1);
  ASSERT_GT(frame.size(), 40u);
  writer.write(util::SimTime::zero(), frame);
  Reader reader(buf);
  const auto rec = reader.next();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->data.size(), 40u);
  EXPECT_EQ(rec->orig_len, frame.size());
}

TEST(PcapTest, ReadsByteSwappedFiles) {
  // Hand-build a big-endian pcap file (as captured on a BE machine).
  std::string raw;
  const auto put_be32 = [&](std::uint32_t v) {
    raw.push_back(static_cast<char>(v >> 24));
    raw.push_back(static_cast<char>(v >> 16));
    raw.push_back(static_cast<char>(v >> 8));
    raw.push_back(static_cast<char>(v));
  };
  const auto put_be16 = [&](std::uint16_t v) {
    raw.push_back(static_cast<char>(v >> 8));
    raw.push_back(static_cast<char>(v));
  };
  put_be32(FileHeader::kMagicMicros);
  put_be16(2);
  put_be16(4);
  put_be32(0);
  put_be32(0);
  put_be32(65535);
  put_be32(1);  // Ethernet
  put_be32(10);  // ts sec
  put_be32(500000);  // ts usec
  put_be32(4);  // incl
  put_be32(4);  // orig
  raw += "\x01\x02\x03\x04";

  std::stringstream buf(raw);
  Reader reader(buf);
  EXPECT_TRUE(reader.header().swapped);
  EXPECT_EQ(reader.header().snaplen, 65535u);
  const auto rec = reader.next();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->timestamp, util::SimTime::from_seconds(10.5));
  ASSERT_EQ(rec->data.size(), 4u);
  EXPECT_EQ(rec->data[0], 0x01);
}

TEST(PcapTest, RejectsBadMagicAndEmptyFile) {
  std::stringstream empty;
  EXPECT_THROW(Reader{empty}, std::runtime_error);
  std::stringstream junk("not a pcap file at all");
  EXPECT_THROW(Reader{junk}, std::runtime_error);
}

TEST(PcapTest, DetectsTruncatedRecord) {
  std::stringstream buf;
  Writer writer(buf);
  writer.write(util::SimTime::zero(), sample_frame(1));
  std::string raw = buf.str();
  raw.resize(raw.size() - 5);  // chop the tail of the frame
  std::stringstream damaged(raw);
  Reader reader(damaged);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.truncated());
}

TEST(PcapTest, NegativeTimestampRejected) {
  std::stringstream buf;
  Writer writer(buf);
  EXPECT_THROW(
      writer.write(util::SimTime::nanoseconds(-1), sample_frame(1)),
      std::runtime_error);
}

TEST(PcapTest, FileHelpersRoundTrip) {
  const std::string path = testing::TempDir() + "syndog_pcap_test.pcap";
  std::vector<Record> records;
  for (std::uint32_t i = 1; i <= 5; ++i) {
    Record rec;
    rec.timestamp = util::SimTime::milliseconds(i * 10);
    rec.data = sample_frame(i);
    rec.orig_len = static_cast<std::uint32_t>(rec.data.size());
    records.push_back(std::move(rec));
  }
  write_file(path, records);
  const std::vector<Record> back = read_file(path);
  ASSERT_EQ(back.size(), records.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].timestamp, records[i].timestamp);
    EXPECT_EQ(back[i].data, records[i].data);
  }
  // The frames inside the file decode back into the original packets.
  const auto decoded = net::decode_frame(back[0].data);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->is_syn());
  std::remove(path.c_str());
}

TEST(PcapTest, ReadAllDrainsEverything) {
  std::stringstream buf;
  Writer writer(buf);
  for (int i = 0; i < 10; ++i) {
    writer.write(util::SimTime::seconds(i), sample_frame(1));
  }
  Reader reader(buf);
  EXPECT_EQ(reader.read_all().size(), 10u);
  EXPECT_EQ(reader.records_read(), 10u);
}

TEST(PcapTest, EndStateDistinguishesEofFromTruncation) {
  std::stringstream buf;
  Writer writer(buf);
  writer.write(util::SimTime::seconds(1), sample_frame(1));
  Reader reader(buf);
  EXPECT_EQ(reader.end_state(), ReadEnd::kStreaming);
  EXPECT_TRUE(reader.next().has_value());
  EXPECT_EQ(reader.end_state(), ReadEnd::kStreaming);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.end_state(), ReadEnd::kEof);
  EXPECT_FALSE(reader.truncated());
  // Terminal: further calls stay at EOF without touching the stream.
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.end_state(), ReadEnd::kEof);
}

TEST(PcapTest, PartialRecordHeaderIsTruncationNotEof) {
  // Cut *inside* the 16-byte record header — including inside its first
  // field, which a field-by-field reader cannot tell from clean EOF.
  std::stringstream buf;
  Writer writer(buf);
  writer.write(util::SimTime::seconds(1), sample_frame(1));
  writer.write(util::SimTime::seconds(2), sample_frame(2));
  const std::string full = buf.str();
  const std::size_t second_record = full.size() - (16 + sample_frame(2).size());
  for (const std::size_t partial : {1u, 3u, 8u, 15u}) {
    std::stringstream damaged(full.substr(0, second_record + partial));
    Reader reader(damaged);
    EXPECT_TRUE(reader.next().has_value());
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_EQ(reader.end_state(), ReadEnd::kTruncated)
        << "partial header of " << partial << " bytes";
  }
}

TEST(PcapTest, HugeSnaplenDoesNotWrapTheLengthGuard) {
  // snaplen + 65536 overflows 32 bits here; the guard must not wrap to a
  // tiny bound that rejects every real record.
  std::stringstream buf;
  Writer writer(buf, LinkType::kEthernet, false, 0xFFFF0000);
  for (std::uint32_t host = 1; host <= 3; ++host) {
    writer.write(util::SimTime::seconds(host), sample_frame(host));
  }
  Reader reader(buf);
  EXPECT_EQ(reader.header().snaplen, 0xFFFF0000u);
  EXPECT_EQ(reader.read_all().size(), 3u);
  EXPECT_EQ(reader.end_state(), ReadEnd::kEof);
}

net::ByteSpan span_of(const std::string& bytes) {
  return {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()};
}

TEST(PcapTest, SpanReaderViewsRecordsInPlace) {
  std::stringstream buf;
  Writer writer(buf, LinkType::kEthernet, true);
  writer.write(util::SimTime::nanoseconds(1'000'000'007), sample_frame(1));
  writer.write(util::SimTime::nanoseconds(2'000'000'009), sample_frame(2));
  const std::string capture = buf.str();
  Reader reader(span_of(capture));
  EXPECT_TRUE(reader.header().nanosecond);
  for (std::uint32_t host = 1; host <= 2; ++host) {
    RecordView view;
    ASSERT_TRUE(reader.next_view(view));
    const net::ByteBuffer want = sample_frame(host);
    EXPECT_EQ(net::ByteBuffer(view.data.begin(), view.data.end()), want);
    EXPECT_EQ(view.orig_len, want.size());
    EXPECT_EQ(view.timestamp.ns(), host * 1'000'000'000LL + 5 + 2 * host);
    // Zero-copy: the view points into the capture bytes themselves.
    EXPECT_GE(view.data.data(),
              reinterpret_cast<const std::uint8_t*>(capture.data()));
    EXPECT_LE(view.data.data() + view.data.size(),
              reinterpret_cast<const std::uint8_t*>(capture.data()) +
                  capture.size());
  }
  RecordView view;
  EXPECT_FALSE(reader.next_view(view));
  EXPECT_EQ(reader.end_state(), ReadEnd::kEof);
  EXPECT_EQ(reader.records_read(), 2u);
}

TEST(PcapTest, SpanReaderMatchesStreamReaderOnDamage) {
  std::stringstream buf;
  Writer writer(buf);
  for (std::uint32_t host = 1; host <= 4; ++host) {
    writer.write(util::SimTime::seconds(host), sample_frame(host));
  }
  const std::string full = buf.str();
  for (std::size_t len = 0; len <= full.size(); ++len) {
    SCOPED_TRACE("len=" + std::to_string(len));
    const std::string cut = full.substr(0, len);
    std::stringstream in(cut);
    if (len < 24) {
      // Same header parse, same error, in both modes.
      const auto error_of = [](auto&& source) -> std::string {
        try {
          Reader reader(source);
        } catch (const std::runtime_error& e) {
          return e.what();
        }
        return "no error";
      };
      const std::string want = error_of(in);
      EXPECT_NE(want, "no error");
      EXPECT_EQ(error_of(span_of(cut)), want);
      continue;
    }
    Reader from_stream(in);
    Reader from_span(span_of(cut));
    const std::vector<Record> want = from_stream.read_all();
    const std::vector<Record> got = from_span.read_all();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].data, want[i].data);
      EXPECT_EQ(got[i].timestamp, want[i].timestamp);
    }
    EXPECT_EQ(from_span.end_state(), from_stream.end_state());
  }
}

TEST(PcapTest, RecordLargerThanOneBlockStreams) {
  // Stream reads come in ~1 MiB blocks; a 3 MiB record (legal under a
  // large snaplen) makes the block grow as its bytes arrive.
  const net::ByteBuffer big(3 << 20, 0x5a);
  std::stringstream buf;
  Writer writer(buf, LinkType::kEthernet, false, 0xFFFFFFFF);
  writer.write(util::SimTime::seconds(1), sample_frame(1));
  writer.write(util::SimTime::seconds(2), big);
  writer.write(util::SimTime::seconds(3), sample_frame(3));
  Reader reader(buf);
  const std::vector<Record> records = reader.read_all();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].data, sample_frame(1));
  EXPECT_EQ(records[1].data, big);
  EXPECT_EQ(records[2].data, sample_frame(3));
  EXPECT_EQ(reader.end_state(), ReadEnd::kEof);
}

TEST(PcapTest, NextIntoReusesCallerBuffer) {
  std::stringstream buf;
  Writer writer(buf);
  writer.write(util::SimTime::seconds(1), sample_frame(1));
  writer.write(util::SimTime::seconds(2), sample_frame(2));
  Reader reader(buf);
  Record rec;
  ASSERT_TRUE(reader.next_into(rec));
  EXPECT_EQ(rec.data, sample_frame(1));
  const auto* before = rec.data.data();
  ASSERT_TRUE(reader.next_into(rec));
  EXPECT_EQ(rec.data, sample_frame(2));
  EXPECT_EQ(rec.data.data(), before);  // same-size record: no reallocation
  EXPECT_FALSE(reader.next_into(rec));
}

/// Accepts nothing: every write fails immediately (disk-full stand-in).
class RefusingBuf final : public std::streambuf {
 protected:
  int_type overflow(int_type) override { return traits_type::eof(); }
  std::streamsize xsputn(const char*, std::streamsize) override { return 0; }
};

/// Swallows writes but fails on sync (buffered disk-full stand-in).
class UnsyncableBuf final : public std::streambuf {
 protected:
  int_type overflow(int_type ch) override { return ch; }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
  int sync() override { return -1; }
};

TEST(PcapTest, WriterFailsLoudlyWhenStreamRefusesBytes) {
  RefusingBuf refusing;
  std::ostream out(&refusing);
  EXPECT_THROW(Writer writer(out), std::runtime_error);
}

TEST(PcapTest, WriteAfterStreamErrorThrowsInsteadOfSilentLoss) {
  std::stringstream buf;
  Writer writer(buf);
  writer.write(util::SimTime::seconds(1), sample_frame(1));
  buf.setstate(std::ios::badbit);
  EXPECT_THROW(writer.write(util::SimTime::seconds(2), sample_frame(2)),
               std::runtime_error);
}

TEST(PcapTest, FlushSurfacesSyncFailure) {
  UnsyncableBuf unsyncable;
  std::ostream out(&unsyncable);
  Writer writer(out);
  writer.write(util::SimTime::seconds(1), sample_frame(1));
  EXPECT_THROW(writer.flush(), std::runtime_error);
}

}  // namespace
}  // namespace syndog::pcap
