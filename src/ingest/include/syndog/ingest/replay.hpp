// Capture replay onto the discrete-event simulator clock.
//
// ReplayEngine pulls records from a CaptureSource, decodes each into one
// reused Frame, and owns a sim::Scheduler: before each frame is handed
// to the replay sinks, the scheduler is advanced to the frame's
// (epoch-rebased) capture timestamp, firing any due timers first.
// Components that live on scheduler time — notably core::SynDogAgent's
// observation-period timer — therefore behave exactly as they do in
// simulation: a period boundary at or before a frame's timestamp closes
// before that frame is seen, which is precisely the semantics of the
// whole-file analysis loop in examples/pcap_sniffer.
//
// Two replay clocks:
//   * kAsFastAsPossible (default): wall time never consulted; the replay
//     is a pure function of the capture bytes.
//   * kPaced: frames are throttled against obs::WallClock so capture time
//     advances at `speed` x real time. Pacing only ever sleeps — it
//     cannot reorder or drop — so results stay byte-identical to the
//     unpaced run.
#pragma once

#include <algorithm>
#include <cstdint>
#include <istream>
#include <vector>

#include "syndog/ingest/capture_source.hpp"
#include "syndog/net/packet.hpp"
#include "syndog/obs/metrics.hpp"
#include "syndog/obs/wallclock.hpp"
#include "syndog/pcap/pcap.hpp"
#include "syndog/sim/scheduler.hpp"
#include "syndog/util/time.hpp"

namespace syndog::ingest {

enum class ReplayClock : std::uint8_t {
  kAsFastAsPossible,
  kPaced,  ///< throttle to `speed` x capture time per wall time
};

/// How capture timestamps map onto the scheduler's epoch-zero clock.
enum class TimeOrigin : std::uint8_t {
  /// kFirstFrame when the first timestamp exceeds 24 h (a real capture
  /// stamped with an absolute epoch), kCaptureZero otherwise (synthetic
  /// captures already start near zero).
  kAuto,
  kCaptureZero,  ///< use timestamps as-is
  kFirstFrame,   ///< subtract the first frame's timestamp
};

/// The capture-time -> replay-time rule, shared by ReplayEngine and
/// ShardedReplay so the two datapaths cannot disagree on it: the first
/// decoded frame picks the epoch per TimeOrigin, and an out-of-order or
/// pre-epoch timestamp is clamped to the previous frame's time, so replay
/// time never runs backwards.
class EpochRebase {
 public:
  explicit EpochRebase(TimeOrigin origin) : origin_(origin) {}

  /// Replay time of the next decoded frame, captured at `captured`.
  util::SimTime next(util::SimTime captured) {
    if (!started_) {
      started_ = true;
      switch (origin_) {
        case TimeOrigin::kCaptureZero:
          break;
        case TimeOrigin::kFirstFrame:
          epoch_ = captured;
          break;
        case TimeOrigin::kAuto:
          if (captured > kAbsoluteEpochFloor) epoch_ = captured;
          break;
      }
    }
    last_ = std::max(last_, captured - epoch_);
    return last_;
  }

  /// Capture timestamp subtracted from every frame (0 until the first
  /// frame is seen under kAuto/kFirstFrame).
  [[nodiscard]] util::SimTime epoch() const { return epoch_; }
  /// Replay time of the latest frame (0 before the first).
  [[nodiscard]] util::SimTime last() const { return last_; }

 private:
  /// kAuto threshold: a first timestamp beyond this is an absolute-epoch
  /// stamp from a real capture, not a synthetic zero-based trace.
  static constexpr util::SimTime kAbsoluteEpochFloor =
      util::SimTime::seconds(86400);

  TimeOrigin origin_;
  bool started_ = false;
  util::SimTime epoch_ = util::SimTime::zero();
  util::SimTime last_ = util::SimTime::zero();
};

struct ReplayConfig {
  ReplayClock clock = ReplayClock::kAsFastAsPossible;
  double speed = 1.0;  ///< kPaced: capture seconds per wall second
  TimeOrigin origin = TimeOrigin::kAuto;
  void validate() const;
};

/// One decoded capture record.
struct Frame {
  util::SimTime at;                  ///< capture timestamp
  net::Packet packet;                ///< decoded link/network/transport
  std::uint32_t wire_bytes = 0;      ///< original length on the wire
  std::uint32_t captured_bytes = 0;  ///< bytes present in the capture
};

/// Receives frames in capture order; the engine's scheduler has already
/// been advanced to `at` (so any timer due earlier has fired). The frame
/// is overwritten by the next record: copy what must outlive the call.
class ReplaySink {
 public:
  virtual ~ReplaySink() = default;
  virtual void on_frame(util::SimTime at, const Frame& frame) = 0;
};

class ReplayEngine final {
 public:
  /// The stream must outlive the engine. Throws on an unrecognizable
  /// capture format (before any record is read).
  explicit ReplayEngine(std::istream& in, ReplayConfig cfg = {});

  [[nodiscard]] sim::Scheduler& scheduler() { return scheduler_; }
  [[nodiscard]] CaptureFormat format() const { return source_.format(); }

  /// Registers a replay sink (must outlive run()).
  void add_sink(ReplaySink& sink);

  /// Wires scheduler instruments into `registry`; when run() finishes it
  /// also adds ingest.{records,frames,bytes,decode_failures,
  /// truncated_captures}.
  void attach_observer(obs::Registry& registry);

  /// Streams the whole capture. Call once.
  const PipelineStats& run();

  [[nodiscard]] const PipelineStats& stats() const { return stats_; }
  [[nodiscard]] pcap::ReadEnd end_state() const {
    return source_.end_state();
  }

  /// Capture timestamp subtracted from every frame (0 until the first
  /// frame is seen under kAuto/kFirstFrame).
  [[nodiscard]] util::SimTime epoch() const { return rebase_.epoch(); }
  [[nodiscard]] util::SimTime last_frame_at() const { return rebase_.last(); }

 private:
  void deliver();
  void pace(util::SimTime at);
  void publish_observations();

  ReplayConfig cfg_;
  sim::Scheduler scheduler_;
  CaptureSource source_;
  std::vector<ReplaySink*> sinks_;
  Frame frame_;  ///< reused decode target
  PipelineStats stats_;
  EpochRebase rebase_;
  obs::Registry* registry_ = nullptr;
  obs::WallClock wall_;  ///< paces kPaced replay
  std::int64_t pace_wall0_ns_ = 0;
  util::SimTime pace_sim0_ = util::SimTime::zero();
  bool ran_ = false;
};

}  // namespace syndog::ingest
