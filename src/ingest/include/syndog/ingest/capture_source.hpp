// Format-agnostic incremental capture source: the one front end both
// ingest datapaths (ReplayEngine and ShardedReplay) frame through.
//
// Sniffs the first four bytes of a stream or an in-memory capture to
// choose between the classic pcap reader and the pcapng reader, then
// yields records one at a time as views. Classic pcap is viewed in place
// by pcap::Reader's record walk (over the span itself, or its block
// buffer); pcapng records are parsed into one reused Record. The
// terminal state (clean EOF vs truncation) is surfaced unchanged so the
// replay can account for damaged captures.
#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <sstream>

#include "syndog/net/wire.hpp"
#include "syndog/pcap/pcap.hpp"
#include "syndog/pcap/pcapng.hpp"

namespace syndog::ingest {

enum class CaptureFormat : std::uint8_t { kPcap, kPcapng };

/// The capture's format, from its first four bytes: a pcapng Section
/// Header Block, or else classic pcap (whose reader rejects a bad magic).
/// Throws std::runtime_error when fewer than four bytes exist. The stream
/// overload puts the bytes back, so the chosen reader starts at byte 0.
[[nodiscard]] CaptureFormat sniff_format(std::istream& in);
[[nodiscard]] CaptureFormat sniff_format(net::ByteSpan capture);

/// What one pass over a capture saw, on either ingest datapath.
struct PipelineStats {
  std::uint64_t records = 0;          ///< capture records pulled
  std::uint64_t frames = 0;           ///< records that decoded to frames
  std::uint64_t bytes = 0;            ///< captured bytes of those frames
  std::uint64_t decode_failures = 0;  ///< non-Ethernet/IPv4 or mangled
  bool truncated = false;             ///< source ended mid-record
};

class CaptureSource {
 public:
  /// Sniffs the stream and constructs the matching reader. Throws
  /// std::runtime_error when the stream starts with neither a pcap magic
  /// nor a pcapng section header.
  explicit CaptureSource(std::istream& in);
  /// Same, over an in-memory capture that must outlive the source. Classic
  /// pcap is walked in place; pcapng reads an owned copy of the bytes.
  explicit CaptureSource(net::ByteSpan capture);

  // Pinned in place: a span-mode pcapng reader refers to owned_in_.
  CaptureSource(const CaptureSource&) = delete;
  CaptureSource& operator=(const CaptureSource&) = delete;

  [[nodiscard]] CaptureFormat format() const { return format_; }

  /// Next record as a view, valid until the following call. Returns
  /// false at end of stream; consult end_state() for why.
  [[nodiscard]] bool next(pcap::RecordView& out) {
    return pcap_ ? pcap_->next_view(out) : next_pcapng(out);
  }

  [[nodiscard]] pcap::ReadEnd end_state() const;
  [[nodiscard]] std::uint64_t records_read() const;

 private:
  [[nodiscard]] bool next_pcapng(pcap::RecordView& out);

  CaptureFormat format_;
  std::optional<std::istringstream> owned_in_;  ///< span-mode pcapng bytes
  // Exactly one of these is engaged, chosen by the sniffed magic.
  std::optional<pcap::Reader> pcap_;
  std::optional<pcap::PcapngReader> pcapng_;
  pcap::Record pcapng_record_;  ///< what a pcapng view points into
};

}  // namespace syndog::ingest
