#include "syndog/ingest/capture_source.hpp"

#include <stdexcept>
#include <string>

namespace syndog::ingest {

namespace {

/// pcapng Section Header Block type — the first four bytes of any pcapng
/// stream (a palindrome, so endianness does not matter when sniffing).
constexpr std::uint32_t kSectionHeaderBlock = 0x0a0d0d0a;

}  // namespace

CaptureFormat sniff_format(net::ByteSpan capture) {
  if (capture.size() < 4) {
    throw std::runtime_error("capture: file too short to sniff format");
  }
  std::uint32_t le_magic = 0;
  for (int i = 3; i >= 0; --i) {
    le_magic = (le_magic << 8) | capture[static_cast<std::size_t>(i)];
  }
  return le_magic == kSectionHeaderBlock ? CaptureFormat::kPcapng
                                         : CaptureFormat::kPcap;
}

CaptureFormat sniff_format(std::istream& in) {
  char magic_bytes[4];
  in.read(magic_bytes, 4);
  const auto got = static_cast<std::size_t>(in.gcount());
  for (std::size_t i = got; i > 0; --i) in.putback(magic_bytes[i - 1]);
  return sniff_format(net::ByteSpan{
      reinterpret_cast<const std::uint8_t*>(magic_bytes), got});
}

CaptureSource::CaptureSource(std::istream& in) : format_(sniff_format(in)) {
  if (format_ == CaptureFormat::kPcapng) {
    pcapng_.emplace(in);
  } else {
    // Classic pcap; the reader throws on an unrecognized magic.
    pcap_.emplace(in);
  }
}

CaptureSource::CaptureSource(net::ByteSpan capture)
    : format_(sniff_format(capture)) {
  if (format_ == CaptureFormat::kPcapng) {
    // pcapng reads record at a time from a stream; bridge the span
    // through an owned one (one copy: the zero-copy path is classic pcap,
    // the format line-rate captures actually use).
    owned_in_.emplace(
        std::string(reinterpret_cast<const char*>(capture.data()),
                    capture.size()),
        std::ios::binary);
    pcapng_.emplace(*owned_in_);
  } else {
    pcap_.emplace(capture);
  }
}

bool CaptureSource::next_pcapng(pcap::RecordView& out) {
  if (!pcapng_->next_into(pcapng_record_)) return false;
  out.timestamp = pcapng_record_.timestamp;
  out.orig_len = pcapng_record_.orig_len;
  out.data = net::ByteSpan{pcapng_record_.data.data(),
                           pcapng_record_.data.size()};
  return true;
}

pcap::ReadEnd CaptureSource::end_state() const {
  return pcap_ ? pcap_->end_state() : pcapng_->end_state();
}

std::uint64_t CaptureSource::records_read() const {
  return pcap_ ? pcap_->records_read() : pcapng_->records_read();
}

}  // namespace syndog::ingest
