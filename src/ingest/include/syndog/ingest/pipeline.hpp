// Streaming capture-ingest pipeline.
//
// Pulls records incrementally from a CaptureSource, decodes them into the
// pooled slots of a FrameRing, and hands fixed-size batches to registered
// FrameSinks with explicit backpressure. The whole pipeline runs in
// O(ring capacity) memory regardless of capture size, and performs no
// allocation in steady state: record bytes land in one reused scratch
// buffer, decoded packets overwrite recycled ring slots, and batches are
// spans over the ring.
//
// It runs on the calling thread, alternating: produce until the ring
// fills or the source ends, then drain. Multi-core ingest is
// ShardedReplay (sharded.hpp).
//
// No std::function anywhere in this header: sinks are virtual interfaces
// bound once at wiring time, so the per-batch hot path is a devirtualized
// call with no per-event allocation (same rule as the sim hot path).
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "syndog/ingest/capture_source.hpp"
#include "syndog/ingest/frame_ring.hpp"
#include "syndog/obs/metrics.hpp"
#include "syndog/pcap/pcap.hpp"

namespace syndog::ingest {

/// What to do when a sink consumes less than the batch it was offered.
enum class BackpressurePolicy : std::uint8_t {
  /// Re-offer the unconsumed suffix until the sink takes it all. A sink
  /// that returns 0 for a non-empty batch is stalled — there is no other
  /// thread that could unblock it — so the pipeline throws.
  kBlock,
  /// Drop the unconsumed suffix of each offered batch and count the
  /// drops (per sink, surfaced via dropped() and the obs registry).
  kDropNewest,
};

/// Batch consumer. on_batch returns how many frames of the (non-empty)
/// batch it accepted; acceptance is prefix-only.
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  virtual std::size_t on_batch(std::span<const Frame> batch) = 0;
};

struct PipelineConfig {
  std::size_t ring_capacity = 1024;  ///< rounded up to a power of two
  std::size_t batch_size = 64;       ///< max frames per on_batch call
  void validate() const;
};

struct PipelineStats {
  std::uint64_t records = 0;          ///< capture records pulled
  std::uint64_t frames = 0;           ///< records that decoded to frames
  std::uint64_t bytes = 0;            ///< captured bytes of those frames
  std::uint64_t decode_failures = 0;  ///< non-Ethernet/IPv4 or mangled
  bool truncated = false;             ///< source ended mid-record
};

class CapturePipeline {
 public:
  /// Sniffs the stream's format immediately (throws on garbage); reads
  /// no records until run(). The stream must outlive the pipeline.
  explicit CapturePipeline(std::istream& in, PipelineConfig cfg = {});

  [[nodiscard]] CaptureFormat format() const { return source_.format(); }

  /// Registers a sink (must outlive run()). `name` labels the per-sink
  /// delivered/dropped counters. Returns the sink's index.
  std::size_t add_sink(std::string_view name, FrameSink& sink,
                       BackpressurePolicy policy = BackpressurePolicy::kBlock);

  /// Counters land in `registry` when run() finishes:
  /// ingest.{records,frames,bytes,decode_failures,truncated_captures}
  /// and ingest.sink.<name>.{delivered,dropped}.
  void attach_observer(obs::Registry& registry) { registry_ = &registry; }

  /// Streams the whole capture through the ring. Call once.
  void run();

  [[nodiscard]] const PipelineStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t sink_count() const { return sinks_.size(); }
  [[nodiscard]] std::uint64_t delivered(std::size_t sink_index) const;
  [[nodiscard]] std::uint64_t dropped(std::size_t sink_index) const;
  [[nodiscard]] pcap::ReadEnd end_state() const {
    return source_.end_state();
  }

 private:
  struct SinkEntry {
    std::string name;
    FrameSink* sink;
    BackpressurePolicy policy;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
  };

  /// Decodes the next frame of the capture into `slot`; false when the
  /// source is exhausted. Skips (and counts) undecodable records.
  bool produce_into(Frame& slot);
  void dispatch_chunk(std::span<const Frame> chunk);
  /// Dispatches every readable frame in chunks of <= batch_size.
  void drain_all();
  void publish_observations();

  CaptureSource source_;
  PipelineConfig cfg_;
  FrameRing ring_;
  pcap::Record scratch_;  ///< reused record buffer (producer side)
  PipelineStats stats_;
  std::vector<SinkEntry> sinks_;
  obs::Registry* registry_ = nullptr;
  bool ran_ = false;
};

}  // namespace syndog::ingest
