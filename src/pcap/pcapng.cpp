#include "syndog/pcap/pcapng.hpp"

#include <cstring>
#include <stdexcept>

#include "syndog/net/wire.hpp"

namespace syndog::pcap {

namespace {

using net::byteswap16;
using net::byteswap32;

constexpr std::uint32_t kSectionHeaderBlock = 0x0a0d0d0a;
constexpr std::uint32_t kInterfaceBlock = 0x00000001;
constexpr std::uint32_t kEnhancedPacketBlock = 0x00000006;
constexpr std::uint32_t kByteOrderMagic = 0x1a2b3c4d;
constexpr std::uint32_t kByteOrderMagicSwapped = 0x4d3c2b1a;
constexpr std::uint16_t kOptionEnd = 0;
constexpr std::uint16_t kOptionTsResol = 9;

void put_le16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v));
  out.push_back(static_cast<char>(v >> 8));
}
void put_le32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}
void put_le64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}
void pad4(std::string& out) {
  while (out.size() % 4 != 0) out.push_back('\0');
}

/// Wraps a body in the (type, length, body, length) frame and emits it.
void emit_block(std::ostream& out, std::uint32_t type, std::string body) {
  pad4(body);
  const auto total = static_cast<std::uint32_t>(body.size() + 12);
  std::string block;
  put_le32(block, type);
  put_le32(block, total);
  block += body;
  put_le32(block, total);
  out.write(block.data(), static_cast<std::streamsize>(block.size()));
  if (!out) throw std::runtime_error("pcapng: write failed");
}

std::uint16_t read_u16_at(const std::vector<std::uint8_t>& b, std::size_t i) {
  return net::load_le16(b.data() + i);
}
std::uint32_t read_u32_at(const std::vector<std::uint8_t>& b, std::size_t i) {
  return net::load_le32(b.data() + i);
}

}  // namespace

PcapngWriter::PcapngWriter(std::ostream& out, LinkType link_type,
                           std::uint32_t snaplen)
    : out_(out), snaplen_(snaplen) {
  // Section Header Block.
  std::string shb;
  put_le32(shb, kByteOrderMagic);
  put_le16(shb, 1);  // major
  put_le16(shb, 0);  // minor
  put_le64(shb, UINT64_MAX);  // section length unknown
  emit_block(out_, kSectionHeaderBlock, std::move(shb));

  // Interface Description Block with if_tsresol = 9 (nanoseconds).
  std::string idb;
  put_le16(idb, static_cast<std::uint16_t>(link_type));
  put_le16(idb, 0);  // reserved
  put_le32(idb, snaplen_);
  put_le16(idb, kOptionTsResol);
  put_le16(idb, 1);
  idb.push_back(9);
  pad4(idb);
  put_le16(idb, kOptionEnd);
  put_le16(idb, 0);
  emit_block(out_, kInterfaceBlock, std::move(idb));
}

void PcapngWriter::write(util::SimTime timestamp, net::ByteSpan frame) {
  if (timestamp < util::SimTime::zero()) {
    throw std::runtime_error("pcapng: negative timestamp");
  }
  const auto ticks = static_cast<std::uint64_t>(timestamp.ns());
  const auto incl = static_cast<std::uint32_t>(
      std::min<std::size_t>(frame.size(), snaplen_));

  std::string epb;
  put_le32(epb, 0);  // interface id
  put_le32(epb, static_cast<std::uint32_t>(ticks >> 32));
  put_le32(epb, static_cast<std::uint32_t>(ticks));
  put_le32(epb, incl);
  put_le32(epb, static_cast<std::uint32_t>(frame.size()));
  epb.append(reinterpret_cast<const char*>(frame.data()), incl);
  emit_block(out_, kEnhancedPacketBlock, std::move(epb));
  ++records_;
}

void PcapngWriter::flush() {
  out_.flush();
  if (!out_) throw std::runtime_error("pcapng: flush failed");
}

PcapngReader::PcapngReader(std::istream& in) : in_(in) {}

std::uint32_t PcapngReader::fix32(std::uint32_t v) const {
  return swapped_ ? byteswap32(v) : v;
}
std::uint16_t PcapngReader::fix16(std::uint16_t v) const {
  return swapped_ ? byteswap16(v) : v;
}

void PcapngReader::parse_section_header(
    const std::vector<std::uint8_t>& body) {
  if (body.size() < 12) throw std::runtime_error("pcapng: short SHB");
  // Endianness was already fixed by the caller via the byte-order magic.
  interfaces_.clear();
  in_section_ = true;
}

void PcapngReader::parse_interface_block(
    const std::vector<std::uint8_t>& body) {
  if (body.size() < 8) throw std::runtime_error("pcapng: short IDB");
  Interface iface;
  iface.link_type = static_cast<LinkType>(fix16(read_u16_at(body, 0)));
  // Walk options for if_tsresol.
  std::size_t at = 8;
  while (at + 4 <= body.size()) {
    const std::uint16_t code = fix16(read_u16_at(body, at));
    const std::uint16_t len = fix16(read_u16_at(body, at + 2));
    at += 4;
    if (code == kOptionEnd) break;
    if (code == kOptionTsResol && len >= 1 && at < body.size()) {
      const std::uint8_t resol = body[at];
      if ((resol & 0x80) != 0) {
        iface.ticks_per_second = std::uint64_t{1} << (resol & 0x7f);
      } else {
        iface.ticks_per_second = 1;
        for (int i = 0; i < (resol & 0x7f); ++i) {
          iface.ticks_per_second *= 10;
        }
      }
    }
    at += (len + 3u) & ~3u;
  }
  interfaces_.push_back(iface);
}

bool PcapngReader::parse_packet_block(const std::vector<std::uint8_t>& body,
                                      Record& out) const {
  if (body.size() < 20) return false;
  const std::uint32_t iface_id = fix32(read_u32_at(body, 0));
  const std::uint64_t ticks =
      (std::uint64_t{fix32(read_u32_at(body, 4))} << 32) |
      fix32(read_u32_at(body, 8));
  const std::uint32_t incl = fix32(read_u32_at(body, 12));
  const std::uint32_t orig = fix32(read_u32_at(body, 16));
  if (body.size() < 20 + incl) return false;
  if (iface_id >= interfaces_.size()) return false;

  const Interface& iface = interfaces_[iface_id];
  out.orig_len = orig;
  out.data.assign(body.begin() + 20, body.begin() + 20 + incl);
  // Convert interface ticks to nanoseconds.
  const std::uint64_t tps = iface.ticks_per_second;
  const std::uint64_t seconds = ticks / tps;
  const std::uint64_t frac = ticks % tps;
  out.timestamp = util::SimTime::nanoseconds(
      static_cast<std::int64_t>(seconds * 1'000'000'000ULL +
                                frac * 1'000'000'000ULL / tps));
  return true;
}

bool PcapngReader::read_block(Record& out, bool& have_record) {
  std::uint8_t header[8];
  in_.read(reinterpret_cast<char*>(header), 8);
  if (in_.gcount() == 0) {
    end_ = ReadEnd::kEof;
    return false;
  }
  if (in_.gcount() != 8) {
    end_ = ReadEnd::kTruncated;
    return false;
  }
  std::vector<std::uint8_t> raw(header, header + 8);
  std::uint32_t type = read_u32_at(raw, 0);
  std::uint32_t total = read_u32_at(raw, 4);

  if (type == kSectionHeaderBlock) {
    // Peek the byte-order magic to establish endianness for this section
    // (the total length itself is endian-dependent).
    std::uint8_t magic_bytes[4];
    in_.read(reinterpret_cast<char*>(magic_bytes), 4);
    if (in_.gcount() != 4) {
      end_ = ReadEnd::kTruncated;
      return false;
    }
    const std::uint32_t magic = net::load_le32(magic_bytes);
    if (magic == kByteOrderMagic) {
      swapped_ = false;
    } else if (magic == kByteOrderMagicSwapped) {
      swapped_ = true;
    } else {
      throw std::runtime_error("pcapng: bad byte-order magic");
    }
    total = fix32(total);
    // Bound the SHB body like any other block: a corrupt length field must
    // not translate into a multi-gigabyte allocation.
    if (total < 28 || total % 4 != 0 || total > (1u << 26)) {
      throw std::runtime_error("pcapng: bad SHB length");
    }
    block_scratch_.resize(total - 12);
    std::memcpy(block_scratch_.data(), magic_bytes, 4);
    in_.read(reinterpret_cast<char*>(block_scratch_.data() + 4),
             static_cast<std::streamsize>(block_scratch_.size() - 4));
    if (static_cast<std::size_t>(in_.gcount()) != block_scratch_.size() - 4) {
      end_ = ReadEnd::kTruncated;
      return false;
    }
    // Trailing length (ignored beyond consumption).
    char trailer[4];
    in_.read(trailer, 4);
    if (in_.gcount() != 4) {
      end_ = ReadEnd::kTruncated;
      return false;
    }
    parse_section_header(block_scratch_);
    return true;
  }

  if (!in_section_) {
    throw std::runtime_error("pcapng: data before section header");
  }
  // The SHB type is a palindrome; every other block's type needs the
  // section's byte order applied.
  type = fix32(type);
  total = fix32(total);
  if (total < 12 || total % 4 != 0 || total > (1u << 26)) {
    end_ = ReadEnd::kTruncated;
    return false;
  }
  block_scratch_.resize(total - 12);
  in_.read(reinterpret_cast<char*>(block_scratch_.data()),
           static_cast<std::streamsize>(block_scratch_.size()));
  if (static_cast<std::size_t>(in_.gcount()) != block_scratch_.size()) {
    end_ = ReadEnd::kTruncated;
    return false;
  }
  char trailer[4];
  in_.read(trailer, 4);
  if (in_.gcount() != 4) {
    end_ = ReadEnd::kTruncated;
    return false;
  }

  switch (type) {
    case kInterfaceBlock:
      parse_interface_block(block_scratch_);
      break;
    case kEnhancedPacketBlock: {
      if (parse_packet_block(block_scratch_, out)) {
        const std::uint32_t iface_id = fix32(read_u32_at(block_scratch_, 0));
        last_link_ = interfaces_[iface_id].link_type;
        have_record = true;
      }
      break;
    }
    default:
      // Unknown block types are skipped, per the specification.
      break;
  }
  return true;
}

bool PcapngReader::next_into(Record& out) {
  if (end_ != ReadEnd::kStreaming) return false;
  bool have_record = false;
  while (!have_record) {
    if (!read_block(out, have_record)) return false;
  }
  ++records_;
  return true;
}

std::optional<Record> PcapngReader::next() {
  Record rec;
  if (!next_into(rec)) return std::nullopt;
  return rec;
}

std::vector<Record> PcapngReader::read_all() {
  std::vector<Record> out;
  while (auto rec = next()) {
    out.push_back(std::move(*rec));
  }
  return out;
}

}  // namespace syndog::pcap
