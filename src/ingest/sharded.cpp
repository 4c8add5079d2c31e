// syndog-lint: hotpath-file -- per-digest work must not allocate; see
// `syndog_lint --explain hotpath.allocation`.
#include "syndog/ingest/sharded.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "syndog/classify/batch.hpp"
#include "syndog/core/syndog.hpp"
#include "syndog/ingest/flow_hash.hpp"
#include "syndog/ingest/frame_ring.hpp"
#include "syndog/net/digest.hpp"
#include "syndog/util/worker_pool.hpp"

namespace syndog::ingest {

namespace {

constexpr std::uint32_t bswap32(std::uint32_t v) {
  return (v >> 24) | ((v >> 8) & 0x0000ff00U) | ((v << 8) & 0x00ff0000U) |
         (v << 24);
}

/// Largest incl_len the record walk accepts as a plausible snap (the
/// same guard as pcap::Reader); anything longer is garbage framing.
constexpr std::uint64_t max_incl_len(const pcap::FileHeader& header) {
  return std::uint64_t{header.snaplen} + 65536;
}

/// A stub prefix reduced to the two words contains() compares, so the
/// per-digest routing scan is branch + AND + compare per stub with no
/// function calls.
struct PrefixMatcher {
  std::uint32_t mask = 0;
  std::uint32_t net = 0;
  [[nodiscard]] bool contains(std::uint32_t addr) const {
    return (addr & mask) == net;
  }
};

/// Flag-byte batches and period table for one stub within one shard.
struct StubShardState {
  /// Open-period flag bytes, swept in batches; bounded by the reserve in
  /// Shard's constructor (flush_threshold), so appends never reallocate.
  std::vector<std::uint8_t> out_flags;
  std::vector<std::uint8_t> in_flags;
  classify::FlagSweep out_partial;  ///< swept counts, open period
  classify::FlagSweep in_partial;
  /// periods[p] = mode-selected {syn, synack} this shard saw in period p.
  /// Sparse at the tail: periods past the last nonzero entry are omitted.
  std::vector<std::array<std::int64_t, 2>> periods;
};

}  // namespace

/// One ring plus the consumer-owned counting state behind it. The
/// producer touches only `ring`; everything else belongs to the shard's
/// pool worker until run() returns.
struct ShardedReplay::Shard {
  Shard(std::size_t ring_capacity, std::size_t stub_count,
        std::size_t flush_threshold)
      : ring(ring_capacity) {
    stubs.resize(stub_count);  // syndog-lint: allow(hotpath.allocation) -- construction-time sizing
    for (StubShardState& s : stubs) {
      s.out_flags.reserve(flush_threshold + 1);  // syndog-lint: allow(hotpath.allocation) -- construction-time sizing; appends stay under the threshold
      s.in_flags.reserve(flush_threshold + 1);  // syndog-lint: allow(hotpath.allocation) -- construction-time sizing; appends stay under the threshold
    }
  }

  SlotRing<net::FlowDigest> ring;
  std::atomic<bool> done{false};  ///< producer: no more digests coming

  // -- consumer-owned state ----------------------------------------------
  std::vector<StubShardState> stubs;
  std::int64_t cur_period = 0;
  std::int64_t next_boundary_ns = 0;
  std::uint64_t delivered = 0;
  std::uint64_t local = 0;
  std::uint64_t unroutable = 0;
};

void ShardedConfig::validate(std::size_t stub_count) const {
  if (threads == 0) {
    throw std::invalid_argument("ShardedConfig: threads must be >= 1");
  }
  if (ring_capacity == 0) {
    throw std::invalid_argument(
        "ShardedConfig: ring_capacity must be positive");
  }
  if (flush_threshold == 0) {
    throw std::invalid_argument(
        "ShardedConfig: flush_threshold must be positive");
  }
  params.validate();
  health.validate();
  if (stub_count == 0) {
    throw std::invalid_argument("ShardedReplay: at least one stub");
  }
  if (default_stub < -1 ||
      default_stub >= static_cast<int>(stub_count)) {
    throw std::invalid_argument(
        "ShardedConfig: default_stub out of range (use -1 to drop "
        "unmatched frames)");
  }
}

ShardedReplay::ShardedReplay(std::istream& in, std::vector<StubSpec> stubs,
                             ShardedConfig cfg)
    : in_(&in), format_(sniff_format(in)), stubs_(std::move(stubs)) {
  cfg.validate(stubs_.size());
  if (format_ == CaptureFormat::kPcapng) {
    pcapng_.emplace(in);
  } else {
    // The Reader consumes and validates the 24-byte file header (throwing
    // on an unrecognized magic); the records are walked in blocks.
    pcap_header_ = pcap::Reader(in).header();
  }
  init(cfg);
}

ShardedReplay::ShardedReplay(net::ByteSpan capture,
                             std::vector<StubSpec> stubs, ShardedConfig cfg)
    : span_(capture), format_(sniff_format(capture)),
      stubs_(std::move(stubs)) {
  cfg.validate(stubs_.size());
  if (format_ == CaptureFormat::kPcapng) {
    // pcapng keeps the record-at-a-time reader; bridge the span through
    // an owned stream (one copy — the zero-copy fast path is classic
    // pcap, the format line-rate captures actually use).
    owned_in_.emplace(
        std::string(reinterpret_cast<const char*>(span_.data()),
                    span_.size()),
        std::ios::binary);
    pcapng_.emplace(*owned_in_);
  } else {
    // Parse + validate the 24-byte file header with the real Reader over
    // a bounded bridge stream, so a malformed header throws exactly the
    // same error as the stream constructor.
    std::istringstream header_in(
        std::string(reinterpret_cast<const char*>(span_.data()),
                    std::min<std::size_t>(span_.size(), 24)),
        std::ios::binary);
    pcap_header_ = pcap::Reader(header_in).header();
  }
  init(cfg);
}

void ShardedReplay::init(ShardedConfig cfg) {
  cfg_ = cfg;
  rebase_ = EpochRebase(cfg_.origin);
  t0_ns_ = cfg_.params.observation_period.ns();
  shards_.reserve(cfg_.threads);  // syndog-lint: allow(hotpath.allocation) -- construction-time sizing
  for (std::size_t i = 0; i < cfg_.threads; ++i) {
    shards_.push_back(std::make_unique<Shard>(  // syndog-lint: allow(hotpath.allocation) -- construction-time sizing
        cfg_.ring_capacity, stubs_.size(), cfg_.flush_threshold));
  }
  histories_.resize(stubs_.size());  // syndog-lint: allow(hotpath.allocation) -- construction-time sizing
}

ShardedReplay::~ShardedReplay() = default;

const StubSpec& ShardedReplay::stub(std::size_t i) const {
  return stubs_.at(i);
}

const std::vector<core::PeriodReport>& ShardedReplay::history(
    std::size_t i) const {
  return histories_.at(i);
}

ShardCounters ShardedReplay::shard(std::size_t i) const {
  return ShardCounters{shards_.at(i)->delivered};
}

void ShardedReplay::run() {
  if (ran_) {
    throw std::logic_error("ShardedReplay::run: already ran (call once)");
  }
  ran_ = true;

  // Worker 0 (the caller) produces; worker i consumes shard i - 1.
  util::WorkerPool pool(static_cast<int>(shards_.size()) + 1);
  pool.run([this](int worker) {
    if (worker == 0) {
      // Every shard hears "no more digests" even when produce() throws,
      // so no consumer spins forever.
      struct MarkDone {
        ShardedReplay& replay;
        ~MarkDone() {
          for (const auto& shard : replay.shards_) shard->done.store(true);
        }
      } mark_done{*this};
      produce();
      return;
    }
    Shard& sh = *shards_[static_cast<std::size_t>(worker - 1)];
    try {
      consume_shard(sh);
    } catch (...) {
      // Keep draining so the producer's blocking publish never
      // deadlocks on a dead consumer; counts no longer matter.
      while (!(sh.done.load(std::memory_order_acquire) && sh.ring.empty())) {
        sh.ring.release(sh.ring.readable().size());
        std::this_thread::yield();
      }
      throw;
    }
  });

  stats_.truncated = end_ == pcap::ReadEnd::kTruncated;
  merge();
  publish_observations();
}

void ShardedReplay::produce() {
  if (format_ == CaptureFormat::kPcapng) {
    produce_pcapng();
  } else if (in_ == nullptr) {
    walk_pcap(span_.data(), span_.size(), 24, true);  // past the header
  } else {
    produce_pcap_stream();
  }
}

/// The classic-pcap record walk over bytes [pos, size) of `base`: feeds
/// every whole record and returns the offset of the first byte it did not
/// consume. The end-state rules match pcap::Reader::next_into: with
/// `at_end` (no bytes follow `size`), nothing left at a record boundary is
/// kEof and a partial header or short data is kTruncated; without it, a
/// partial record is left for the caller to complete. An implausible
/// incl_len is kTruncated either way. The span constructor walks the
/// whole capture in one call — the record walk IS the buffer, no block
/// reads, no memmove, no copy per byte.
std::size_t ShardedReplay::walk_pcap(const std::uint8_t* base,
                                     std::size_t size, std::size_t pos,
                                     bool at_end) {
  const bool swap = pcap_header_.swapped;
  const bool nanos = pcap_header_.nanosecond;
  const std::uint64_t max_incl = max_incl_len(pcap_header_);

  const auto load32 = [&](std::size_t off) -> std::uint32_t {
    std::uint32_t v = 0;
    std::memcpy(&v, base + pos + off, 4);
    return swap ? bswap32(v) : v;
  };

  // The record walk chases a serial dependency (this record's length ->
  // next record's address), which a cold span turns into one DRAM-latency
  // stall per record. Streaming prefetch a few KiB ahead keeps the walk
  // bandwidth-bound instead — the same effect block-copying into a warm
  // buffer has, without writing 1 MiB blocks nobody reads twice.
  constexpr std::size_t kPrefetchAheadBytes = 4096;
  std::size_t prefetched = pos;

  for (;;) {
    const std::size_t want = std::min(pos + kPrefetchAheadBytes, size);
    while (prefetched < want) {
      __builtin_prefetch(base + prefetched, 0, 3);
      prefetched += 64;
    }
    if (size - pos < 16) {
      if (at_end) {
        end_ = size == pos ? pcap::ReadEnd::kEof : pcap::ReadEnd::kTruncated;
      }
      return pos;
    }
    const std::uint32_t ts_sec = load32(0);
    const std::uint32_t ts_frac = load32(4);
    const std::uint32_t incl = load32(8);
    const std::uint32_t orig = load32(12);
    if (std::uint64_t{incl} > max_incl) {
      // Garbage framing, not a plausible snap.
      end_ = pcap::ReadEnd::kTruncated;
      return pos;
    }
    if (size - pos - 16 < incl) {
      if (at_end) end_ = pcap::ReadEnd::kTruncated;
      return pos;
    }
    const std::int64_t ts_ns =
        std::int64_t{ts_sec} * 1'000'000'000 +
        (nanos ? std::int64_t{ts_frac} : std::int64_t{ts_frac} * 1000);
    feed_record(ts_ns, orig, net::ByteSpan{base + pos + 16, incl});
    pos += 16U + incl;
  }
}

/// Classic pcap from a stream: the constructor's Reader already consumed
/// the file header; from here the records are walked out of ~1 MiB block
/// reads, so steady state costs one istream::read per block instead of
/// two per record. A record cut by the block end moves to the front of
/// the buffer and completes with the next read.
void ShardedReplay::produce_pcap_stream() {
  std::vector<std::uint8_t> buf;
  buf.resize(std::max<std::size_t>(  // syndog-lint: allow(hotpath.allocation) -- one block buffer per capture, sized up front
      std::size_t{1} << 20,
      static_cast<std::size_t>(max_incl_len(pcap_header_)) + 16));
  std::size_t filled = 0;
  for (;;) {
    in_->read(reinterpret_cast<char*>(buf.data() + filled),
              static_cast<std::streamsize>(buf.size() - filled));
    const auto got = static_cast<std::size_t>(in_->gcount());
    filled += got;
    const std::size_t pos = walk_pcap(buf.data(), filled, 0, got == 0);
    if (end_ != pcap::ReadEnd::kStreaming) return;
    std::memmove(buf.data(), buf.data() + pos, filled - pos);
    filled -= pos;
  }
}

/// pcapng: the record-at-a-time reader — correctness over peak rate off
/// the classic format.
void ShardedReplay::produce_pcapng() {
  pcap::Record rec;
  while (pcapng_->next_into(rec)) {
    feed_record(rec.timestamp.ns(), rec.orig_len,
                net::ByteSpan{rec.data.data(), rec.data.size()});
  }
  end_ = pcapng_->end_state();
}

void ShardedReplay::feed_record(std::int64_t ts_ns, std::uint32_t orig_len,
                                net::ByteSpan data) {
  ++stats_.records;
  net::FlowDigest digest;
  if (!net::extract_flow_digest(data, digest)) {
    ++stats_.decode_failures;
    return;
  }
  stats_.bytes += data.size();
  ++stats_.frames;

  // Same clock rule as ReplayEngine: only decoded frames reach it.
  digest.at_ns = rebase_.next(util::SimTime::nanoseconds(ts_ns)).ns();
  digest.wire_bytes = orig_len;

  Shard& sh = *shards_[shard_of(flow_hash(digest), shards_.size())];
  net::FlowDigest* slot = sh.ring.try_claim();
  while (slot == nullptr) {
    // Ring full: block (never drop) until the consumer frees slots. A
    // crashed consumer keeps draining its ring, so this always ends.
    std::this_thread::yield();
    slot = sh.ring.try_claim();
  }
  *slot = digest;
  sh.ring.publish();
}

namespace {

/// Sweeps and clears one direction buffer into its partial counts.
inline void flush_direction(std::vector<std::uint8_t>& flags,
                            classify::FlagSweep& partial) {
  if (flags.empty()) return;
  partial += classify::sweep_flags(
      std::span<const std::uint8_t>{flags.data(), flags.size()});
  flags.clear();
}

inline void append_flag(std::vector<std::uint8_t>& flags,
                        classify::FlagSweep& partial, std::uint8_t flag,
                        std::size_t flush_threshold) {
  flags.push_back(flag);  // syndog-lint: allow(hotpath.allocation) -- bounded by the construction-time reserve (flush_threshold + 1); flushed below before it can grow
  if (flags.size() >= flush_threshold) flush_direction(flags, partial);
}

/// Closes the shard's open period `p` for every stub: sweep the
/// remaining flag bytes and record the mode-selected totals.
void close_shard_period(std::vector<StubShardState>& stubs, std::int64_t p,
                        core::AgentMode mode) {
  for (StubShardState& s : stubs) {
    flush_direction(s.out_flags, s.out_partial);
    flush_direction(s.in_flags, s.in_partial);
    // First mile: outgoing SYNs vs incoming SYN/ACKs. Last mile: the
    // flood arrives inbound and the victim's SYN/ACKs leave outbound
    // (same tap wiring as SynDogAgent's constructor).
    const std::int64_t syn = static_cast<std::int64_t>(
        mode == core::AgentMode::kFirstMile ? s.out_partial.syn
                                            : s.in_partial.syn);
    const std::int64_t synack = static_cast<std::int64_t>(
        mode == core::AgentMode::kFirstMile ? s.in_partial.syn_ack
                                            : s.out_partial.syn_ack);
    if ((syn | synack) != 0) {
      if (s.periods.size() <= static_cast<std::size_t>(p)) {
        s.periods.resize(static_cast<std::size_t>(p) + 1);  // syndog-lint: allow(hotpath.allocation) -- once per non-empty period per stub, off the per-digest path
      }
      s.periods[static_cast<std::size_t>(p)] = {syn, synack};
    }
    s.out_partial = classify::FlagSweep{};
    s.in_partial = classify::FlagSweep{};
  }
}

}  // namespace

void ShardedReplay::consume_shard(Shard& sh) {
  // Shard-local routing table: first matching prefix wins, exactly as
  // AgentDemux::find_stub.
  std::vector<PrefixMatcher> matchers;
  matchers.reserve(stubs_.size());  // syndog-lint: allow(hotpath.allocation) -- built once at worker start, before any digest flows
  for (const StubSpec& spec : stubs_) {
    matchers.push_back(  // syndog-lint: allow(hotpath.allocation) -- built once at worker start, before any digest flows
        PrefixMatcher{spec.prefix.mask(), spec.prefix.base().value()});
  }
  const int stub_count = static_cast<int>(stubs_.size());
  const int default_stub = cfg_.default_stub;
  const std::size_t flush_threshold = cfg_.flush_threshold;

  sh.cur_period = 0;
  sh.next_boundary_ns = t0_ns_;

  for (;;) {
    const std::span<const net::FlowDigest> run = sh.ring.readable();
    if (run.empty()) {
      if (sh.done.load(std::memory_order_acquire) && sh.ring.empty()) break;
      std::this_thread::yield();
      continue;
    }
    for (const net::FlowDigest& d : run) {
      if (d.at_ns >= sh.next_boundary_ns) {
        // A frame exactly on the boundary counts into the next period
        // (the reference scheduler fires the rollover first).
        close_shard_period(sh.stubs, sh.cur_period, cfg_.mode);
        sh.cur_period = d.at_ns / t0_ns_;
        sh.next_boundary_ns = (sh.cur_period + 1) * t0_ns_;
      }
      int src = -1;
      int dst = -1;
      for (int i = 0; i < stub_count; ++i) {
        const PrefixMatcher& m = matchers[static_cast<std::size_t>(i)];
        if (src < 0 && m.contains(d.src)) src = i;
        if (dst < 0 && m.contains(d.dst)) dst = i;
      }
      if (src >= 0 && src == dst) {
        ++sh.local;
        continue;
      }
      bool routed = false;
      if (src >= 0) {
        StubShardState& s = sh.stubs[static_cast<std::size_t>(src)];
        append_flag(s.out_flags, s.out_partial, d.flags, flush_threshold);
        routed = true;
      }
      if (dst >= 0) {
        StubShardState& s = sh.stubs[static_cast<std::size_t>(dst)];
        append_flag(s.in_flags, s.in_partial, d.flags, flush_threshold);
        routed = true;
      }
      if (!routed) {
        if (default_stub >= 0) {
          StubShardState& s =
              sh.stubs[static_cast<std::size_t>(default_stub)];
          append_flag(s.out_flags, s.out_partial, d.flags, flush_threshold);
        } else {
          ++sh.unroutable;
        }
      }
    }
    sh.delivered += run.size();
    sh.ring.release(run.size());
  }
  close_shard_period(sh.stubs, sh.cur_period, cfg_.mode);
}

/// Deterministic merge: per-stub per-period counts sum across shards in
/// stable shard order, then replay through one core::SynDog per stub,
/// reproducing SynDogAgent's healthy-path rollover — including the
/// first-mile SYN/ACK-collapse absorption — byte for byte. The other
/// health paths (gap rescale, outages, quarantine) cannot trigger here:
/// replay timers are exact and there is no fault injection.
void ShardedReplay::merge() {
  const std::int64_t total_periods = rebase_.last().ns() / t0_ns_ + 1;
  for (std::size_t s = 0; s < stubs_.size(); ++s) {
    core::SynDog dog(cfg_.params);
    std::vector<core::PeriodReport>& hist = histories_[s];
    hist.reserve(static_cast<std::size_t>(total_periods));  // syndog-lint: allow(hotpath.allocation) -- merge runs once, after the workers join
    std::int64_t consecutive_collapsed = 0;
    for (std::int64_t p = 0; p < total_periods; ++p) {
      std::int64_t syn = 0;
      std::int64_t synack = 0;
      for (const std::unique_ptr<Shard>& shard : shards_) {
        const std::vector<std::array<std::int64_t, 2>>& per =
            shard->stubs[s].periods;
        if (static_cast<std::size_t>(p) < per.size()) {
          syn += per[static_cast<std::size_t>(p)][0];
          synack += per[static_cast<std::size_t>(p)][1];
        }
      }
      // SynDogAgent::synack_collapsed, with k read before observing.
      const double k = dog.k();
      const bool collapsed =
          cfg_.mode == core::AgentMode::kFirstMile &&
          k >= cfg_.health.collapse_min_k &&
          syn >= cfg_.health.collapse_min_syn &&
          static_cast<double>(synack) <= cfg_.health.collapse_fraction * k;
      if (collapsed) {
        ++consecutive_collapsed;
        if (consecutive_collapsed <= cfg_.health.outage_patience) {
          dog.note_gap_periods(1);
          continue;
        }
        // Past patience: feed raw counts, keep the streak counting (the
        // agent does not reset it until a non-collapsed period).
      } else {
        consecutive_collapsed = 0;
      }
      hist.push_back(dog.observe_period(syn, synack));  // syndog-lint: allow(hotpath.allocation) -- merge runs once, after the workers join
    }
  }
  for (const std::unique_ptr<Shard>& shard : shards_) {
    local_ += shard->local;
    unroutable_ += shard->unroutable;
  }
}

void ShardedReplay::publish_observations() {
  if (registry_ == nullptr) return;
  registry_->counter("ingest.sharded.records").add(stats_.records);
  registry_->counter("ingest.sharded.frames").add(stats_.frames);
  registry_->counter("ingest.sharded.bytes").add(stats_.bytes);
  registry_->counter("ingest.sharded.decode_failures")
      .add(stats_.decode_failures);
  registry_->counter("ingest.sharded.truncated_captures")
      .add(stats_.truncated ? 1 : 0);
  registry_->counter("ingest.sharded.local_frames").add(local_);
  registry_->counter("ingest.sharded.unroutable_frames").add(unroutable_);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::string prefix = "ingest.shard." + std::to_string(i);
    registry_->counter(prefix + ".delivered").add(shards_[i]->delivered);
  }
}

}  // namespace syndog::ingest
