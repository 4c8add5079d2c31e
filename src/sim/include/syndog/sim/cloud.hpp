// Aggregate model of "the rest of the Internet".
//
// Everything beyond the leaf router's uplink is collapsed into one node:
// generic server space that answers SYNs with SYN/ACKs (with a
// configurable no-answer probability standing in for remote overload and
// far-side congestion), explicitly attached real hosts (e.g. a victim
// server under study), and an unreachable pool — the spoofed-source
// address space whose packets vanish, so no RST ever comes back.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "syndog/net/packet.hpp"
#include "syndog/sim/callbacks.hpp"
#include "syndog/sim/responder.hpp"
#include "syndog/sim/scheduler.hpp"
#include "syndog/sim/tcp_host.hpp"
#include "syndog/util/rng.hpp"

namespace syndog::sim {

/// The generic server space's reply model plus the cloud's routing.
struct CloudParams : ResponderParams {
  /// Source addresses in this prefix are unreachable (spoof pool).
  net::Ipv4Prefix unreachable_pool = *net::Ipv4Prefix::parse("240.0.0.0/8");
  /// The stub network behind our downlink. Internet routing only carries
  /// packets *destined into the stub* through that link; replies to
  /// anywhere else (in particular to spoofed flood sources) never reach
  /// the leaf router — which is exactly why the inbound sniffer sees no
  /// SYN/ACKs during a spoofed flood.
  net::Ipv4Prefix stub_prefix = *net::Ipv4Prefix::parse("10.1.0.0/16");
};

struct CloudStats {
  std::uint64_t syns_seen = 0;
  std::uint64_t syn_acks_generated = 0;
  std::uint64_t dropped_unreachable = 0;  ///< packets to the spoof pool
  std::uint64_t unanswered = 0;
  std::uint64_t delivered_to_hosts = 0;
  std::uint64_t absorbed_elsewhere = 0;   ///< routed off our measurement path
};

class InternetCloud {
 public:
  /// `downlink` carries reply packets back toward the leaf router.
  InternetCloud(Scheduler& scheduler, CloudParams params,
                PacketSink downlink, std::uint64_t seed);

  /// Attaches a real simulated host (e.g. the victim) at its address;
  /// packets to it are delivered instead of synthesized.
  void attach_host(net::Ipv4Address ip, TcpHost* host);

  /// Adds a further stub network behind its own downlink (multi-stub
  /// topologies: one cloud, many leaf routers). The constructor's
  /// downlink serves params.stub_prefix; routes are checked in order.
  void add_stub_route(net::Ipv4Prefix prefix, PacketSink downlink);

  /// Handles a packet arriving from the stub network's uplink.
  void receive(const net::Packet& packet);

  /// Routes a packet that originates *inside* the cloud (a synthesized
  /// reply or an attached host's output): to an attached host, down our
  /// link when stub-bound, into the void when unreachable, or absorbed by
  /// the rest of the Internet otherwise.
  void route(const net::Packet& packet);

  [[nodiscard]] const CloudStats& stats() const { return stats_; }

 private:
  Scheduler& scheduler_;
  CloudParams params_;
  util::Rng rng_;
  std::unordered_map<std::uint32_t, TcpHost*> hosts_;
  std::vector<std::pair<net::Ipv4Prefix, PacketSink>> stub_routes_;
  CloudStats stats_;
};

}  // namespace syndog::sim
