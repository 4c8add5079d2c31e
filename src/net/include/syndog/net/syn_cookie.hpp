// Stateless SYN cookies (Bernstein-style), the victim-side defense of
// paper §1 and the countermeasure Scholz et al. weigh against router-side
// detection: the server's ISN encodes a keyed hash of the connection plus
// a coarse time counter, so the final ACK can be validated with zero
// stored state. The cost moves from memory to per-SYN computation — which
// is why cookie-protected servers still fall to high-rate floods (the
// 14,000 SYN/s figure of [8]).
#pragma once

#include <cstdint>

#include "syndog/net/address.hpp"
#include "syndog/util/time.hpp"

namespace syndog::net {

/// The cookie is a 29-bit keyed tag over the peer's address and port, the
/// local port and the peer's ISN, with a 3-bit time counter (64 s
/// windows, mod 8) in the low bits.
class SynCookieCodec {
 public:
  explicit SynCookieCodec(std::uint64_t secret) : secret_(secret) {}

  /// Time counter of the 64 s window containing `now`, in [0, 8).
  [[nodiscard]] static std::uint32_t counter_at(util::SimTime now);

  /// Cookie issued as the server ISN in window `counter` (taken mod 8).
  [[nodiscard]] std::uint32_t make(Ipv4Address peer_ip,
                                   std::uint16_t peer_port,
                                   std::uint16_t local_port,
                                   std::uint32_t peer_isn,
                                   std::uint32_t counter) const;

  /// Validates the ISN echoed in a final ACK (ack - 1) against the
  /// current window `now_counter` and the one before it.
  [[nodiscard]] bool verify(Ipv4Address peer_ip, std::uint16_t peer_port,
                            std::uint16_t local_port, std::uint32_t peer_isn,
                            std::uint32_t cookie,
                            std::uint32_t now_counter) const;

 private:
  std::uint64_t secret_;
};

}  // namespace syndog::net
