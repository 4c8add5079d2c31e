// Classic libpcap capture-file I/O, implemented from scratch.
//
// Synthetic traces round-trip through real `.pcap` files so the example
// tools behave like ordinary libpcap utilities (and outputs can be opened
// in tcpdump/wireshark). Supports the standard magic 0xa1b2c3d4
// (microsecond) and 0xa1b23c4d (nanosecond) in either byte order.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "syndog/net/wire.hpp"
#include "syndog/util/time.hpp"

namespace syndog::pcap {

/// Link types we write/accept; Ethernet is what leaf-router captures use.
enum class LinkType : std::uint32_t {
  kEthernet = 1,
  kRawIp = 101,
};

struct FileHeader {
  static constexpr std::uint32_t kMagicMicros = 0xa1b2c3d4;
  static constexpr std::uint32_t kMagicNanos = 0xa1b23c4d;

  std::uint16_t version_major = 2;
  std::uint16_t version_minor = 4;
  std::int32_t thiszone = 0;
  std::uint32_t sigfigs = 0;
  std::uint32_t snaplen = 65535;
  LinkType link_type = LinkType::kEthernet;
  bool nanosecond = false;   ///< timestamp resolution of the file
  bool swapped = false;      ///< file byte order differs from host (read side)
};

struct Record {
  util::SimTime timestamp;
  std::uint32_t orig_len = 0;  ///< length on the wire (>= data.size())
  net::ByteBuffer data;        ///< captured bytes (possibly snapped)
};

/// One record seen in place: `data` points into the reader's bytes (the
/// walked span, or its block buffer) and is valid until the reader's next
/// call.
struct RecordView {
  util::SimTime timestamp;
  std::uint32_t orig_len = 0;  ///< length on the wire (>= data.size())
  net::ByteSpan data;          ///< captured bytes (possibly snapped)
};

/// Why a reader stopped yielding records. `kTruncated` is a *distinct*
/// terminal state: the stream ended (or turned to garbage) mid-record, so
/// the capture is damaged and counts derived from it are a lower bound.
/// Callers that previously treated "no more records" as clean EOF can now
/// tell the two ends apart; the ingest pipeline surfaces kTruncated as an
/// obs counter.
enum class ReadEnd : std::uint8_t {
  kStreaming = 0,  ///< not terminal: more records may follow
  kEof = 1,        ///< clean end of stream after a whole record
  kTruncated = 2,  ///< stream ended mid-record / corrupt record framing
};

/// Streams records into a pcap file. The stream must outlive the writer.
/// Every write checks the ostream state and throws std::runtime_error on
/// failure (disk full, closed pipe) instead of silently producing a short
/// file; call flush() before relying on the bytes being on disk.
class Writer {
 public:
  /// Writes the file header immediately.
  Writer(std::ostream& out, LinkType link_type = LinkType::kEthernet,
         bool nanosecond = false, std::uint32_t snaplen = 65535);

  /// Appends one record; data beyond snaplen is truncated (orig_len keeps
  /// the full size, like a real capture with -s).
  void write(util::SimTime timestamp, net::ByteSpan frame);

  /// Flushes the underlying stream and throws if any buffered byte failed
  /// to reach it (ofstream destructors swallow that error otherwise).
  void flush();

  [[nodiscard]] std::uint64_t records_written() const { return records_; }

 private:
  std::ostream& out_;
  FileHeader header_;
  std::uint64_t records_ = 0;
};

/// Reads records from a pcap file, tolerating either byte order and either
/// timestamp resolution. A malformed header throws std::runtime_error; a
/// stream that ends mid-record terminates with end_state() == kTruncated
/// (never silently mistaken for clean EOF, even when the cut lands inside
/// the first header field).
///
/// This is the one classic-pcap record walk. Over a ByteSpan it frames
/// records in place, with no copy; over an istream it walks records out
/// of ~1 MiB block reads. Memory is bounded by the bytes actually read:
/// no buffer is ever sized from the header's snaplen or a record's
/// incl_len, and a record claiming more than snaplen + 65536 bytes is
/// corrupt framing (kTruncated).
class Reader {
 public:
  /// Consumes the 24-byte file header from the stream.
  explicit Reader(std::istream& in);
  /// Walks an in-memory capture (file header included) in place; the
  /// bytes must outlive the reader.
  explicit Reader(net::ByteSpan capture);

  [[nodiscard]] const FileHeader& header() const { return header_; }
  /// Zero-copy form: `out` views the next record, valid until the next
  /// call. Returns false at end of stream (consult end_state() for why).
  [[nodiscard]] bool next_view(RecordView& out) {
    // Inline fast path, so a per-record loop compiles down to the walk
    // itself: a whole record of plausible length is already in view.
    // Everything else (refill, damage, end) is next_view_slow's.
    if (end_ == ReadEnd::kStreaming && size_ - pos_ >= kRecordHeaderBytes) {
      prefetch_ahead();
      const std::uint32_t incl = field(pos_ + 8);
      if (incl <= max_incl_ && size_ - pos_ - kRecordHeaderBytes >= incl) {
        take(incl, out);
        return true;
      }
    }
    return next_view_slow(out);
  }
  /// Next record, or nullopt at end of file.
  [[nodiscard]] std::optional<Record> next();
  /// Copying form of next_view: overwrites `out`, reusing its buffer
  /// capacity so steady-state streaming performs no allocation.
  [[nodiscard]] bool next_into(Record& out);
  /// Remaining records in one vector.
  [[nodiscard]] std::vector<Record> read_all();
  [[nodiscard]] std::uint64_t records_read() const { return records_; }
  /// kStreaming until a read returns empty, then kEof or kTruncated.
  [[nodiscard]] ReadEnd end_state() const { return end_; }
  /// True if the file ended mid-record (damaged capture).
  [[nodiscard]] bool truncated() const {
    return end_ == ReadEnd::kTruncated;
  }

 private:
  static constexpr std::size_t kRecordHeaderBytes = 16;
  static constexpr std::size_t kPrefetchAheadBytes = 4096;

  void parse_header(net::ByteSpan bytes);
  /// The record walk: the kEof/kTruncated rules and the length guard.
  [[nodiscard]] bool next_view_slow(RecordView& out);
  /// Stream mode: keeps the unconsumed tail, grows the block only when
  /// that tail already fills it, and reads more. False when no byte
  /// arrived (always, over a span).
  [[nodiscard]] bool refill();

  /// The walk chases a serial dependency (this record's length -> the
  /// next record's address), which cold memory turns into one
  /// DRAM-latency stall per record. Streaming prefetch a few KiB ahead
  /// keeps it bandwidth-bound.
  void prefetch_ahead() {
    const std::size_t ahead = std::min(pos_ + kPrefetchAheadBytes, size_);
    for (; prefetched_ < ahead; prefetched_ += 64) {
      __builtin_prefetch(base_ + prefetched_, 0, 3);
    }
  }
  /// The 32-bit header field at byte `at` of the walked bytes.
  [[nodiscard]] std::uint32_t field(std::size_t at) const {
    return fix32(net::load_le32(base_ + at));
  }
  /// Views the whole record at pos_ (`incl` data bytes) and steps past it.
  void take(std::uint32_t incl, RecordView& out) {
    const std::uint32_t frac = field(pos_ + 4);
    const std::int64_t frac_ns =
        header_.nanosecond ? frac : std::int64_t{frac} * 1'000;
    out.timestamp = util::SimTime::nanoseconds(
        std::int64_t{field(pos_)} * 1'000'000'000 + frac_ns);
    out.orig_len = field(pos_ + 12);
    out.data = net::ByteSpan{base_ + pos_ + kRecordHeaderBytes, incl};
    pos_ += kRecordHeaderBytes + incl;
    ++records_;
  }
  [[nodiscard]] std::uint32_t fix32(std::uint32_t v) const {
    return header_.swapped ? net::byteswap32(v) : v;
  }
  [[nodiscard]] std::uint16_t fix16(std::uint16_t v) const {
    return header_.swapped ? net::byteswap16(v) : v;
  }

  std::istream* in_ = nullptr;  ///< null when walking a span
  std::unique_ptr<std::uint8_t[]> block_;  ///< stream mode's block buffer
  std::size_t block_size_ = 0;
  const std::uint8_t* base_ = nullptr;  ///< walked bytes: the span or block_
  std::size_t size_ = 0;                ///< bytes valid at base_
  std::size_t pos_ = 0;                 ///< next record header
  std::size_t prefetched_ = 0;          ///< prefetch cursor within base_
  FileHeader header_;
  std::uint64_t max_incl_ = 0;  ///< snaplen + 65536, in 64 bits
  std::uint64_t records_ = 0;
  ReadEnd end_ = ReadEnd::kStreaming;
};

/// Convenience wrappers over file paths.
void write_file(const std::string& path, const std::vector<Record>& records,
                LinkType link_type = LinkType::kEthernet,
                bool nanosecond = false);
[[nodiscard]] std::vector<Record> read_file(const std::string& path);

}  // namespace syndog::pcap
