#include "syndog/sim/responder.hpp"

#include <cmath>
#include <stdexcept>

namespace syndog::sim {

void ResponderParams::validate() const {
  if (!(no_answer_probability >= 0.0 && no_answer_probability < 1.0)) {
    throw std::invalid_argument("responder: no_answer_probability in [0,1)");
  }
  if (!(rtt_median_s > 0.0) || !(rtt_sigma >= 0.0)) {
    throw std::invalid_argument(
        "responder: rtt_median_s > 0 and rtt_sigma >= 0 required");
  }
}

ResponderReply respond_generic(const net::Packet& segment,
                               const ResponderParams& params,
                               util::Rng& rng) {
  ResponderReply out;
  if (!segment.tcp) return out;
  const net::TcpHeader& tcp = *segment.tcp;
  net::TcpPacketSpec spec;
  if (tcp.flags.syn() && !tcp.flags.ack()) {
    if (rng.bernoulli(params.no_answer_probability)) {
      out.action = ResponderAction::kNoAnswer;
      return out;
    }
    out.action = ResponderAction::kSynAck;
    spec.flags = net::TcpFlags::syn_ack();
    spec.seq = rng.next_u32();
  } else if (tcp.flags.syn()) {
    out.action = ResponderAction::kFinalAck;
    spec.flags = net::TcpFlags::ack_only();
    spec.seq = tcp.ack;
  } else if (tcp.flags.fin()) {
    out.action = ResponderAction::kFinAck;
    spec.flags = net::TcpFlags::fin_ack();
    spec.seq = tcp.ack;
  } else {
    return out;
  }
  // The reply emerges from the cloud with the router as next hop; MAC
  // addresses on the wide-area side are not meaningful to the stub.
  spec.src_mac = net::MacAddress::for_host(0xfffffe);
  spec.dst_mac = segment.eth.src;
  spec.src_ip = segment.ip.dst;
  spec.dst_ip = segment.ip.src;
  spec.src_port = tcp.dst_port;
  spec.dst_port = tcp.src_port;
  spec.ack = tcp.seq + 1;
  out.packet = net::make_tcp_packet(spec);
  out.rtt = util::SimTime::from_seconds(
      params.rtt_sigma > 0.0
          ? rng.lognormal(std::log(params.rtt_median_s), params.rtt_sigma)
          : params.rtt_median_s);
  return out;
}

}  // namespace syndog::sim
