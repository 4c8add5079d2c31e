#include "syndog/pcap/pcap.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "syndog/net/wire.hpp"

namespace syndog::pcap {

namespace {

using net::byteswap32;
using net::load_le16;
using net::load_le32;

constexpr std::size_t kBlockBytes = std::size_t{1} << 20;  ///< stream reads

// pcap files are written in the *host* byte order of the capturing machine;
// we always emit little-endian (the dominant convention) and byte-swap on
// read when the magic indicates the other order.

void put_le16(std::ostream& out, std::uint16_t v) {
  const char bytes[2] = {static_cast<char>(v), static_cast<char>(v >> 8)};
  out.write(bytes, 2);
}

void put_le32(std::ostream& out, std::uint32_t v) {
  const char bytes[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
                         static_cast<char>(v >> 16),
                         static_cast<char>(v >> 24)};
  out.write(bytes, 4);
}

}  // namespace

Writer::Writer(std::ostream& out, LinkType link_type, bool nanosecond,
               std::uint32_t snaplen)
    : out_(out) {
  header_.link_type = link_type;
  header_.nanosecond = nanosecond;
  header_.snaplen = snaplen;
  put_le32(out_, nanosecond ? FileHeader::kMagicNanos
                            : FileHeader::kMagicMicros);
  put_le16(out_, header_.version_major);
  put_le16(out_, header_.version_minor);
  put_le32(out_, static_cast<std::uint32_t>(header_.thiszone));
  put_le32(out_, header_.sigfigs);
  put_le32(out_, header_.snaplen);
  put_le32(out_, static_cast<std::uint32_t>(header_.link_type));
  if (!out_) throw std::runtime_error("pcap::Writer: header write failed");
}

void Writer::write(util::SimTime timestamp, net::ByteSpan frame) {
  if (timestamp < util::SimTime::zero()) {
    throw std::runtime_error("pcap::Writer: negative timestamp");
  }
  if (!out_) {
    throw std::runtime_error("pcap::Writer: stream already in error state");
  }
  const std::int64_t ns = timestamp.ns();
  const auto sec = static_cast<std::uint32_t>(ns / 1'000'000'000);
  const std::int64_t frac_ns = ns % 1'000'000'000;
  const auto frac = static_cast<std::uint32_t>(
      header_.nanosecond ? frac_ns : frac_ns / 1'000);

  const auto incl =
      static_cast<std::uint32_t>(std::min<std::size_t>(frame.size(),
                                                       header_.snaplen));
  put_le32(out_, sec);
  put_le32(out_, frac);
  put_le32(out_, incl);
  put_le32(out_, static_cast<std::uint32_t>(frame.size()));
  out_.write(reinterpret_cast<const char*>(frame.data()), incl);
  if (!out_) throw std::runtime_error("pcap::Writer: record write failed");
  ++records_;
}

void Writer::flush() {
  out_.flush();
  if (!out_) throw std::runtime_error("pcap::Writer: flush failed");
}

Reader::Reader(std::istream& in) : in_(&in) {
  std::uint8_t bytes[24];
  in.read(reinterpret_cast<char*>(bytes), sizeof bytes);
  parse_header(
      net::ByteSpan{bytes, static_cast<std::size_t>(in.gcount())});
  block_size_ = kBlockBytes;
  block_ = std::make_unique_for_overwrite<std::uint8_t[]>(block_size_);
  base_ = block_.get();
}

Reader::Reader(net::ByteSpan capture)
    : base_(capture.data()), size_(capture.size()), pos_(24) {
  parse_header(capture.first(std::min<std::size_t>(capture.size(), 24)));
}

void Reader::parse_header(net::ByteSpan bytes) {
  if (bytes.size() < 4) {
    throw std::runtime_error("pcap::Reader: empty file");
  }
  switch (load_le32(bytes.data())) {
    case FileHeader::kMagicMicros:
      break;
    case FileHeader::kMagicNanos:
      header_.nanosecond = true;
      break;
    case byteswap32(FileHeader::kMagicMicros):
      header_.swapped = true;
      break;
    case byteswap32(FileHeader::kMagicNanos):
      header_.swapped = true;
      header_.nanosecond = true;
      break;
    default:
      throw std::runtime_error("pcap::Reader: bad magic number");
  }
  if (bytes.size() < 24) {
    throw std::runtime_error("pcap::Reader: truncated file header");
  }
  const std::uint8_t* p = bytes.data();
  header_.version_major = fix16(load_le16(p + 4));
  header_.version_minor = fix16(load_le16(p + 6));
  header_.thiszone = static_cast<std::int32_t>(fix32(load_le32(p + 8)));
  header_.sigfigs = fix32(load_le32(p + 12));
  header_.snaplen = fix32(load_le32(p + 16));
  header_.link_type = static_cast<LinkType>(fix32(load_le32(p + 20)));
  if (header_.version_major != 2) {
    throw std::runtime_error("pcap::Reader: unsupported pcap version " +
                             std::to_string(header_.version_major));
  }
  max_incl_ = std::uint64_t{header_.snaplen} + 65536;
}

bool Reader::refill() {
  if (in_ == nullptr) return false;
  const std::size_t keep = size_ - pos_;
  if (keep == block_size_) {
    // One partial record fills the block: double it. The block never
    // exceeds twice the bytes that actually arrived, whatever incl_len
    // claims.
    auto bigger = std::make_unique_for_overwrite<std::uint8_t[]>(2 * keep);
    std::memcpy(bigger.get(), block_.get(), keep);
    block_ = std::move(bigger);
    block_size_ = 2 * keep;
    base_ = block_.get();
  } else if (keep != 0) {
    std::memmove(block_.get(), block_.get() + pos_, keep);
  }
  in_->read(reinterpret_cast<char*>(block_.get() + keep),
            static_cast<std::streamsize>(block_size_ - keep));
  const auto got = static_cast<std::size_t>(in_->gcount());
  size_ = keep + got;
  pos_ = 0;
  prefetched_ = 0;
  return got != 0;
}

bool Reader::next_view_slow(RecordView& out) {
  if (end_ != ReadEnd::kStreaming) return false;
  for (;;) {
    prefetch_ahead();
    const std::size_t avail = size_ - pos_;
    if (avail >= kRecordHeaderBytes) {
      const std::uint32_t incl = field(pos_ + 8);
      if (incl > max_incl_) {
        // Garbage framing, not a plausible snap.
        end_ = ReadEnd::kTruncated;
        return false;
      }
      if (avail - kRecordHeaderBytes >= incl) {
        take(incl, out);
        return true;
      }
    }
    // A whole record is not in view: read more, or end. Nothing left is
    // a clean end; a partial header or short data is a cut record.
    if (!refill()) {
      end_ = avail == 0 ? ReadEnd::kEof : ReadEnd::kTruncated;
      return false;
    }
  }
}

bool Reader::next_into(Record& out) {
  RecordView view;
  if (!next_view(view)) return false;
  out.timestamp = view.timestamp;
  out.orig_len = view.orig_len;
  out.data.assign(view.data.begin(), view.data.end());
  return true;
}

std::optional<Record> Reader::next() {
  Record rec;
  if (!next_into(rec)) return std::nullopt;
  return rec;
}

std::vector<Record> Reader::read_all() {
  std::vector<Record> out;
  while (auto rec = next()) {
    out.push_back(std::move(*rec));
  }
  return out;
}

void write_file(const std::string& path, const std::vector<Record>& records,
                LinkType link_type, bool nanosecond) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("pcap: cannot open for write: " + path);
  Writer writer(out, link_type, nanosecond);
  for (const Record& rec : records) {
    writer.write(rec.timestamp, rec.data);
  }
  // The ofstream destructor swallows flush errors; surface them here so a
  // full disk cannot silently leave a short capture behind.
  writer.flush();
}

std::vector<Record> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("pcap: cannot open for read: " + path);
  Reader reader(in);
  return reader.read_all();
}

}  // namespace syndog::pcap
