#include "syndog/ingest/pipeline.hpp"

#include <stdexcept>

#include "syndog/net/packet.hpp"

namespace syndog::ingest {

void PipelineConfig::validate() const {
  if (ring_capacity == 0) {
    throw std::invalid_argument("PipelineConfig: ring_capacity must be > 0");
  }
  if (batch_size == 0) {
    throw std::invalid_argument("PipelineConfig: batch_size must be > 0");
  }
}

CapturePipeline::CapturePipeline(std::istream& in, PipelineConfig cfg)
    : source_((cfg.validate(), in)), cfg_(cfg), ring_(cfg.ring_capacity) {}

std::size_t CapturePipeline::add_sink(std::string_view name, FrameSink& sink,
                                      BackpressurePolicy policy) {
  if (ran_) {
    throw std::logic_error("CapturePipeline: add_sink after run()");
  }
  sinks_.push_back(SinkEntry{std::string(name), &sink, policy});
  return sinks_.size() - 1;
}

std::uint64_t CapturePipeline::delivered(std::size_t sink_index) const {
  return sinks_.at(sink_index).delivered;
}

std::uint64_t CapturePipeline::dropped(std::size_t sink_index) const {
  return sinks_.at(sink_index).dropped;
}

bool CapturePipeline::produce_into(Frame& slot) {
  for (;;) {
    if (!source_.next(scratch_)) return false;
    ++stats_.records;
    if (!net::decode_frame_into(scratch_.data, slot.packet)) {
      ++stats_.decode_failures;
      continue;
    }
    slot.at = scratch_.timestamp;
    slot.wire_bytes = scratch_.orig_len;
    slot.captured_bytes = static_cast<std::uint32_t>(scratch_.data.size());
    stats_.bytes += scratch_.data.size();
    ++stats_.frames;
    return true;
  }
}

void CapturePipeline::dispatch_chunk(std::span<const Frame> chunk) {
  for (SinkEntry& entry : sinks_) {
    std::span<const Frame> rest = chunk;
    if (entry.policy == BackpressurePolicy::kBlock) {
      while (!rest.empty()) {
        const std::size_t took = entry.sink->on_batch(rest);
        if (took == 0) {
          throw std::runtime_error("CapturePipeline: kBlock sink '" +
                                   entry.name +
                                   "' accepted nothing; no other thread can "
                                   "unblock it");
        }
        entry.delivered += std::min(took, rest.size());
        rest = rest.subspan(std::min(took, rest.size()));
      }
    } else {
      const std::size_t took = std::min(entry.sink->on_batch(rest),
                                        rest.size());
      entry.delivered += took;
      entry.dropped += rest.size() - took;
    }
  }
}

void CapturePipeline::drain_all() {
  for (;;) {
    const std::span<const Frame> run = ring_.readable();
    if (run.empty()) break;
    const std::size_t take = std::min(run.size(), cfg_.batch_size);
    dispatch_chunk(run.first(take));
    ring_.release(take);
  }
}

void CapturePipeline::run() {
  if (ran_) {
    throw std::logic_error("CapturePipeline: run() called twice");
  }
  ran_ = true;
  bool more = true;
  while (more) {
    // Fill phase: decode until the ring is full or the capture ends...
    for (;;) {
      Frame* slot = ring_.try_claim();
      if (slot == nullptr) break;
      if (!produce_into(*slot)) {
        more = false;
        break;
      }
      ring_.publish();
    }
    // ...then drain everything. Strict alternation keeps batch shapes a
    // pure function of the capture bytes and the config.
    drain_all();
  }
  stats_.truncated = source_.end_state() == pcap::ReadEnd::kTruncated;
  publish_observations();
}

void CapturePipeline::publish_observations() {
  if (registry_ == nullptr) return;
  registry_->counter("ingest.records").add(stats_.records);
  registry_->counter("ingest.frames").add(stats_.frames);
  registry_->counter("ingest.bytes").add(stats_.bytes);
  registry_->counter("ingest.decode_failures").add(stats_.decode_failures);
  registry_->counter("ingest.truncated_captures")
      .add(stats_.truncated ? 1 : 0);
  for (const SinkEntry& entry : sinks_) {
    registry_->counter("ingest.sink." + entry.name + ".delivered")
        .add(entry.delivered);
    registry_->counter("ingest.sink." + entry.name + ".dropped")
        .add(entry.dropped);
  }
}

}  // namespace syndog::ingest
