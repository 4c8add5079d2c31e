// Sharded multi-core capture ingest (RSS-style rings + batched classify).
//
// The reference path (CaptureSource -> ReplayEngine -> AgentDemux) is
// byte-deterministic but single-threaded: one thread decodes, routes, and
// counts every frame. ShardedReplay splits that work the way a NIC's RSS
// indirection does: the producer thread frames the capture, extracts a
// net::FlowDigest per record, and hashes the 5-tuple with the *symmetric*
// flow hash (flow_hash.hpp) so a flow's SYN and its returning SYN-ACK
// land in the same SlotRing; one consumer thread per ring owns that
// shard's per-stub period tables outright — no cross-thread counter
// state, no locks, only the SPSC ring cursors. Consumers batch flag
// bytes per (stub, direction) and count them with classify::sweep_flags
// (SIMD where available) instead of classifying frame by frame.
//
// run() hosts the producer (worker 0, the caller) and one consumer per
// shard on a util::WorkerPool. Determinism contract: after the pool run
// returns, per-shard period tables merge in stable shard order and
// replay through one core::SynDog per stub, reproducing
// core::SynDogAgent's healthy-path rollover (including the first-mile
// SYN/ACK-collapse absorption) exactly. Because period
// counts are integers and integer addition is associative, history(i) is
// byte-identical — every PeriodReport field, doubles included — to what
// the single-threaded ReplayEngine + AgentDemux oracle produces for the
// same capture, for any thread count. Tests assert this with
// operator== on the full report structs.
//
// Scope: replay analytics only. No pacing, no fault injection, no
// per-period callbacks — the reference engine remains the tool for
// those; benches compare against it and ctest pins the equivalence.
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "syndog/core/agent.hpp"
#include "syndog/ingest/agent_demux.hpp"
#include "syndog/ingest/capture_source.hpp"
#include "syndog/ingest/replay.hpp"
#include "syndog/obs/metrics.hpp"
#include "syndog/pcap/pcap.hpp"
#include "syndog/util/time.hpp"

namespace syndog::ingest {

struct ShardedConfig {
  /// Consumer threads == shards. 1 still runs the threaded datapath (one
  /// producer + one consumer); the equivalence tests sweep 1..4.
  std::size_t threads = 4;
  std::size_t ring_capacity = std::size_t{1} << 15;  ///< digests per shard
  /// Flag bytes buffered per (stub, direction) before a SIMD sweep folds
  /// them into the open period's partial counts.
  std::size_t flush_threshold = 4096;
  TimeOrigin origin = TimeOrigin::kAuto;
  core::SynDogParams params;
  core::AgentHealthPolicy health;
  core::AgentMode mode = core::AgentMode::kFirstMile;
  /// Stub index credited with frames matching no prefix; -1 counts them
  /// unroutable instead (same rule as DemuxOptions::default_stub).
  int default_stub = 0;
  void validate(std::size_t stub_count) const;
};

/// Per-shard delivery counters, surfaced as ingest.shard.<i>.delivered.
/// The producer blocks on a full ring, so nothing is ever dropped.
struct ShardCounters {
  std::uint64_t delivered = 0;
};

class ShardedReplay {
 public:
  /// Sniffs the stream's format immediately (throws on garbage); reads no
  /// records until run(). The stream must outlive the replay.
  ShardedReplay(std::istream& in, std::vector<StubSpec> stubs,
                ShardedConfig cfg = {});
  /// Zero-copy variant for an in-memory capture (an mmap'ed file, a
  /// synthesized byte string): classic pcap frames directly out of
  /// `capture` with no block copies — the line-rate path — while pcapng
  /// falls back to an owned stream over the same bytes. The span must
  /// stay valid until run() returns.
  ShardedReplay(net::ByteSpan capture, std::vector<StubSpec> stubs,
                ShardedConfig cfg = {});
  ~ShardedReplay();

  ShardedReplay(const ShardedReplay&) = delete;
  ShardedReplay& operator=(const ShardedReplay&) = delete;

  [[nodiscard]] CaptureFormat format() const { return format_; }

  /// Counters land in `registry` when run() finishes:
  /// ingest.sharded.{records,frames,bytes,decode_failures,
  /// truncated_captures,local_frames,unroutable_frames} and
  /// ingest.shard.<i>.delivered. Distinct from the reference engine's
  /// ingest.* names so both datapaths can share a registry.
  void attach_observer(obs::Registry& registry) { registry_ = &registry; }

  /// Streams the whole capture through the shards and merges. Call once.
  void run();

  [[nodiscard]] const PipelineStats& stats() const { return stats_; }
  [[nodiscard]] pcap::ReadEnd end_state() const { return end_; }

  [[nodiscard]] std::size_t stub_count() const { return stubs_.size(); }
  [[nodiscard]] const StubSpec& stub(std::size_t i) const;
  /// Per-period reports for stub `i`, byte-identical to the reference
  /// AgentDemux agent's history() for the same capture and parameters.
  [[nodiscard]] const std::vector<core::PeriodReport>& history(
      std::size_t i) const;

  [[nodiscard]] std::uint64_t local_frames() const { return local_; }
  [[nodiscard]] std::uint64_t unroutable_frames() const {
    return unroutable_;
  }
  [[nodiscard]] util::SimTime last_frame_at() const {
    return rebase_.last();
  }

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] ShardCounters shard(std::size_t i) const;

 private:
  struct Shard;

  void init(ShardedConfig cfg);
  void produce();
  void produce_pcap_stream();
  std::size_t walk_pcap(const std::uint8_t* base, std::size_t size,
                        std::size_t pos, bool at_end);
  void produce_pcapng();
  /// Decode + rebase one record and publish its digest to its shard.
  void feed_record(std::int64_t ts_ns, std::uint32_t orig_len,
                   net::ByteSpan data);
  void consume_shard(Shard& shard);
  void merge();
  void publish_observations();

  std::istream* in_ = nullptr;              ///< null in span mode
  net::ByteSpan span_{};                    ///< empty in stream mode
  std::optional<std::istringstream> owned_in_;  ///< span-mode pcapng bridge
  CaptureFormat format_;
  pcap::FileHeader pcap_header_;            ///< classic pcap only
  std::optional<pcap::PcapngReader> pcapng_;  ///< pcapng only
  std::vector<StubSpec> stubs_;
  ShardedConfig cfg_;
  std::int64_t t0_ns_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::vector<core::PeriodReport>> histories_;
  PipelineStats stats_;
  pcap::ReadEnd end_ = pcap::ReadEnd::kStreaming;
  EpochRebase rebase_{TimeOrigin::kAuto};
  std::uint64_t local_ = 0;
  std::uint64_t unroutable_ = 0;
  obs::Registry* registry_ = nullptr;
  bool ran_ = false;
};

}  // namespace syndog::ingest
