#include "syndog/sim/cloud.hpp"

#include <stdexcept>

namespace syndog::sim {

InternetCloud::InternetCloud(Scheduler& scheduler, CloudParams params,
                             PacketSink downlink, std::uint64_t seed)
    : scheduler_(scheduler), params_(params), rng_(seed) {
  if (!downlink) {
    throw std::invalid_argument("InternetCloud: downlink required");
  }
  params_.validate();
  stub_routes_.emplace_back(params_.stub_prefix, std::move(downlink));
}

void InternetCloud::attach_host(net::Ipv4Address ip, TcpHost* host) {
  if (host == nullptr) {
    throw std::invalid_argument("InternetCloud: null host");
  }
  hosts_[ip.value()] = host;
}

void InternetCloud::add_stub_route(net::Ipv4Prefix prefix,
                                   PacketSink downlink) {
  if (!downlink) {
    throw std::invalid_argument("InternetCloud: downlink required");
  }
  stub_routes_.emplace_back(prefix, std::move(downlink));
}

void InternetCloud::receive(const net::Packet& packet) {
  // Real attached host (e.g. the victim server) takes precedence.
  if (const auto it = hosts_.find(packet.ip.dst.value());
      it != hosts_.end()) {
    ++stats_.delivered_to_hosts;
    it->second->receive(packet);
    return;
  }
  // Destinations inside a known stub network are routed there, not
  // answered by the generic server space (cross-stub traffic).
  for (const auto& [prefix, downlink] : stub_routes_) {
    if (prefix.contains(packet.ip.dst)) {
      downlink(packet);
      return;
    }
  }
  if (params_.unreachable_pool.contains(packet.ip.dst)) {
    // Spoofed-source replies die here — no endpoint, no RST.
    ++stats_.dropped_unreachable;
    return;
  }
  ResponderReply reply = respond_generic(packet, params_, rng_);
  switch (reply.action) {
    case ResponderAction::kNoAnswer:
      ++stats_.syns_seen;
      ++stats_.unanswered;
      return;
    case ResponderAction::kSynAck:
      ++stats_.syns_seen;
      ++stats_.syn_acks_generated;
      break;
    case ResponderAction::kIgnore:
      return;
    case ResponderAction::kFinalAck:
    case ResponderAction::kFinAck:
      break;
  }
  scheduler_.schedule_after(
      reply.rtt,
      [this, h = scheduler_.packets().acquire(std::move(reply.packet))] {
        route(*h);
      });
}

void InternetCloud::route(const net::Packet& packet) {
  if (const auto it = hosts_.find(packet.ip.dst.value());
      it != hosts_.end()) {
    ++stats_.delivered_to_hosts;
    it->second->receive(packet);
    return;
  }
  for (const auto& [prefix, downlink] : stub_routes_) {
    if (prefix.contains(packet.ip.dst)) {
      downlink(packet);
      return;
    }
  }
  if (params_.unreachable_pool.contains(packet.ip.dst)) {
    // Replies to spoofed sources die in the core; crucially, they never
    // transit our leaf router's inbound interface.
    ++stats_.dropped_unreachable;
    return;
  }
  ++stats_.absorbed_elsewhere;
}

}  // namespace syndog::sim
