#include "syndog/ingest/replay.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>

namespace syndog::ingest {

void ReplayConfig::validate() const {
  if (clock == ReplayClock::kPaced && !(speed > 0.0)) {
    throw std::invalid_argument("ReplayConfig: paced speed must be > 0");
  }
}

ReplayEngine::ReplayEngine(std::istream& in, ReplayConfig cfg)
    : cfg_((cfg.validate(), cfg)),
      source_(in),
      rebase_(cfg.origin) {}

void ReplayEngine::add_sink(ReplaySink& sink) { sinks_.push_back(&sink); }

void ReplayEngine::attach_observer(obs::Registry& registry) {
  registry_ = &registry;
  scheduler_.attach_observer(&registry);
}

void ReplayEngine::pace(util::SimTime at) {
  if (stats_.frames == 1) {  // the first frame anchors capture to wall time
    pace_wall0_ns_ = wall_.now_ns();
    pace_sim0_ = at;
  }
  const double capture_ns = static_cast<double>((at - pace_sim0_).ns());
  const std::int64_t target_wall_ns =
      pace_wall0_ns_ + static_cast<std::int64_t>(capture_ns / cfg_.speed);
  for (;;) {
    const std::int64_t behind_ns = target_wall_ns - wall_.now_ns();
    if (behind_ns <= 0) break;
    // Sleep most of the gap, then re-check; caps per-sleep latency.
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        std::min<std::int64_t>(behind_ns, 50'000'000)));
  }
}

void ReplayEngine::deliver() {
  const util::SimTime at = rebase_.next(frame_.at);
  if (cfg_.clock == ReplayClock::kPaced) pace(at);
  // Fire every timer due at or before this frame (period rollovers land
  // before the frame that crosses the boundary, as in the whole-file
  // analysis loop).
  scheduler_.run_until(at);
  for (ReplaySink* sink : sinks_) sink->on_frame(at, frame_);
}

const PipelineStats& ReplayEngine::run() {
  if (ran_) {
    throw std::logic_error("ReplayEngine: run() called twice");
  }
  ran_ = true;
  pcap::RecordView rec;
  while (source_.next(rec)) {
    ++stats_.records;
    if (!net::decode_frame_into(rec.data, frame_.packet)) {
      ++stats_.decode_failures;
      continue;
    }
    frame_.at = rec.timestamp;
    frame_.wire_bytes = rec.orig_len;
    frame_.captured_bytes = static_cast<std::uint32_t>(rec.data.size());
    stats_.bytes += rec.data.size();
    ++stats_.frames;
    deliver();
  }
  stats_.truncated = source_.end_state() == pcap::ReadEnd::kTruncated;
  publish_observations();
  return stats_;
}

void ReplayEngine::publish_observations() {
  if (registry_ == nullptr) return;
  registry_->counter("ingest.records").add(stats_.records);
  registry_->counter("ingest.frames").add(stats_.frames);
  registry_->counter("ingest.bytes").add(stats_.bytes);
  registry_->counter("ingest.decode_failures").add(stats_.decode_failures);
  registry_->counter("ingest.truncated_captures")
      .add(stats_.truncated ? 1 : 0);
}

}  // namespace syndog::ingest
