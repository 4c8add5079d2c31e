#include "syndog/net/syn_cookie.hpp"

#include "syndog/util/rng.hpp"

namespace syndog::net {

namespace {

constexpr std::uint32_t kTagBits = 29;
constexpr std::int64_t kWindowNs = 64'000'000'000;

}  // namespace

std::uint32_t SynCookieCodec::counter_at(util::SimTime now) {
  return static_cast<std::uint32_t>((now.ns() / kWindowNs) & 7);
}

std::uint32_t SynCookieCodec::make(Ipv4Address peer_ip,
                                   std::uint16_t peer_port,
                                   std::uint16_t local_port,
                                   std::uint32_t peer_isn,
                                   std::uint32_t counter) const {
  counter &= 7;
  const std::uint64_t tuple = (std::uint64_t{peer_ip.value()} << 32) |
                              (std::uint64_t{peer_port} << 16) | local_port;
  const std::uint64_t hash = util::splitmix64(
      secret_ ^ util::splitmix64(tuple) ^
      util::splitmix64((std::uint64_t{peer_isn} << 3) | counter));
  const auto tag = static_cast<std::uint32_t>(hash & ((1u << kTagBits) - 1));
  return (tag << 3) | counter;
}

bool SynCookieCodec::verify(Ipv4Address peer_ip, std::uint16_t peer_port,
                            std::uint16_t local_port, std::uint32_t peer_isn,
                            std::uint32_t cookie,
                            std::uint32_t now_counter) const {
  for (const std::uint32_t counter : {now_counter, now_counter + 7}) {
    if (cookie == make(peer_ip, peer_port, local_port, peer_isn, counter)) {
      return true;
    }
  }
  return false;
}

}  // namespace syndog::net
