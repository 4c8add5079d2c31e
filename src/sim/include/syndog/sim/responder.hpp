// The generic Internet's answer to a segment leaving a stub.
//
// Everything beyond a leaf router that is not an attached host is generic
// server space. sim::InternetCloud (the single-loop oracle) and
// campaign::CampaignSim (one responder per stub, each with its own child
// Rng) both answer it through respond_generic(), so the reply rule and
// the rng draws behind it are defined once for both engines.
#pragma once

#include <cstdint>

#include "syndog/net/packet.hpp"
#include "syndog/util/rng.hpp"
#include "syndog/util/time.hpp"

namespace syndog::sim {

/// Far-side model of the generic server space.
struct ResponderParams {
  /// Probability a generic remote server fails to answer a SYN.
  double no_answer_probability = 0.05;
  /// Median/dispersion of the lognormal wide-area RTT contributed by the
  /// far side (the uplink adds its own delay). rtt_sigma == 0 selects a
  /// deterministic RTT of exactly rtt_median_s with no rng draw — the
  /// seam the campaign oracle-equivalence tests rely on (lognormal with
  /// zero sigma is undefined, and skipping the draw keeps the rng stream
  /// comparable across engines).
  double rtt_median_s = 0.080;
  double rtt_sigma = 0.35;

  /// Throws std::invalid_argument unless no_answer_probability is in
  /// [0,1), rtt_median_s > 0 and rtt_sigma >= 0.
  void validate() const;
};

enum class ResponderAction : std::uint8_t {
  kIgnore,    ///< not TCP, or a final ACK/data/RST: terminates silently
  kNoAnswer,  ///< SYN the far side leaves unanswered
  kSynAck,    ///< SYN answered with a SYN/ACK
  kFinalAck,  ///< final ACK to a stub server's SYN/ACK (its slot drains)
  kFinAck,    ///< a stub client's FIN answered with FIN|ACK (passive close)
};

struct ResponderReply {
  ResponderAction action = ResponderAction::kIgnore;
  /// The reply (kSynAck, kFinalAck, kFinAck): addresses and ports
  /// swapped, sent from the gateway MAC toward the segment's sender.
  net::Packet packet;
  /// Far-side RTT before the reply heads back toward the stub.
  util::SimTime rtt;
};

/// Answers `segment` the way generic server space does. Draws from `rng`
/// in this order: the no-answer bernoulli (SYN only), the ISN (answered
/// SYN only), then the RTT (every reply; lognormal unless rtt_sigma == 0).
/// A SYN|ACK|FIN segment gets the single final ACK.
[[nodiscard]] ResponderReply respond_generic(const net::Packet& segment,
                                             const ResponderParams& params,
                                             util::Rng& rng);

}  // namespace syndog::sim
