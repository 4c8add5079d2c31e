// Format-agnostic incremental capture source.
//
// Sniffs the first four bytes of a stream to choose between the classic
// pcap reader and the pcapng reader, then yields records one at a time
// through the readers' buffer-reusing next_into() path — unlike
// pcap::read_any_capture, which slurps the whole file into a vector. The
// terminal state (clean EOF vs truncation) is surfaced unchanged so the
// replay can account for damaged captures.
#pragma once

#include <cstdint>
#include <istream>
#include <optional>

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

  [[nodiscard]] CaptureFormat format() const { return format_; }

  /// Next record, overwriting `out` (reusing its buffer capacity).
  /// Returns false at end of stream; consult end_state() for why.
  [[nodiscard]] bool next(pcap::Record& out);

  [[nodiscard]] pcap::ReadEnd end_state() const;
  [[nodiscard]] std::uint64_t records_read() const;

 private:
  CaptureFormat format_;
  // Exactly one of these is engaged, chosen by the sniffed magic.
  std::optional<pcap::Reader> pcap_;
  std::optional<pcap::PcapngReader> pcapng_;
};

}  // namespace syndog::ingest
