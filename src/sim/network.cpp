#include "syndog/sim/network.hpp"

#include <stdexcept>
#include <string>

namespace syndog::sim {

StubNetworkSim::StubNetworkSim(StubNetworkParams params)
    : params_(params),
      workload_rng_(util::Rng::child(params.seed, 0xbac4)),
      flood_rng_(util::Rng::child(params.seed, 0xf100d)) {
  // Host i is stub_prefix.host(i); the network and broadcast offsets are
  // not hosts, and a larger index would leave the stub's own prefix.
  const std::uint64_t size = params_.stub_prefix.size();
  const std::uint64_t max_hosts = size > 2 ? size - 2 : 0;
  if (params_.num_hosts == 0 || params_.num_hosts > max_hosts) {
    throw std::invalid_argument("StubNetworkSim: num_hosts in [1, " +
                                std::to_string(max_hosts) + "]");
  }
  const net::MacAddress router_mac = net::MacAddress::for_host(0xffffff);
  router_ = std::make_unique<LeafRouter>(params_.stub_prefix, router_mac);

  // Internet side: router --uplink--> cloud, cloud --downlink--> router.
  downlink_ = std::make_unique<Link>(
      scheduler_, params_.downlink,
      [this](const net::Packet& pkt) {
        router_->forward_from_internet(scheduler_.now(), pkt);
      },
      util::splitmix64(params_.seed ^ 0xd0));
  params_.cloud.stub_prefix = params_.stub_prefix;
  cloud_ = std::make_unique<InternetCloud>(
      scheduler_, params_.cloud,
      [this](const net::Packet& pkt) { downlink_->send(pkt); },
      util::splitmix64(params_.seed ^ 0xc1));
  uplink_ = std::make_unique<Link>(
      scheduler_, params_.uplink,
      [this](const net::Packet& pkt) { cloud_->receive(pkt); },
      util::splitmix64(params_.seed ^ 0xa2));
  router_->set_uplink([this](const net::Packet& pkt) { uplink_->send(pkt); });

  // Intranet hosts. Host index i gets IP stub_prefix.host(i) and a frame
  // path host -> (LAN delay) -> router; router -> (LAN delay) -> host.
  stub_hosts_.reserve(params_.num_hosts);
  for (std::uint32_t i = 1; i <= params_.num_hosts; ++i) {
    const net::Ipv4Address ip = params_.stub_prefix.host(i);
    auto host = std::make_unique<TcpHost>(
        "stub-" + std::to_string(i), ip, net::MacAddress::for_host(i),
        router_mac, scheduler_,
        [this](const net::Packet& pkt) {
          scheduler_.schedule_after(
              params_.lan_delay, [this, h = scheduler_.packets().acquire(pkt)] {
                router_->forward_from_intranet(scheduler_.now(), *h);
              });
        },
        params_.host_params, util::splitmix64(params_.seed ^ (0x700 + i)));
    TcpHost* raw = host.get();
    router_->attach_host(ip, [this, raw](const net::Packet& pkt) {
      scheduler_.schedule_after(
          params_.lan_delay,
          [raw, h = scheduler_.packets().acquire(pkt)] { raw->receive(*h); });
    });
    stub_hosts_.push_back(std::move(host));
  }
}

void StubNetworkSim::attach_observer(obs::Registry& registry) {
  router_->attach_observer(registry);
  uplink_->attach_observer(registry, "uplink");
  downlink_->attach_observer(registry, "downlink");
}

TcpHost& StubNetworkSim::host(std::uint32_t index) {
  if (index == 0 || index > stub_hosts_.size()) {
    throw std::out_of_range("StubNetworkSim: host index out of range");
  }
  return *stub_hosts_[index - 1];
}

TcpHost& StubNetworkSim::add_internet_host(std::string name,
                                           net::Ipv4Address ip,
                                           TcpHostParams host_params) {
  if (params_.stub_prefix.contains(ip)) {
    throw std::invalid_argument(
        "StubNetworkSim: internet host inside stub prefix");
  }
  auto host = std::make_unique<TcpHost>(
      std::move(name), ip, net::MacAddress::for_host(0xe00000 +
          static_cast<std::uint32_t>(internet_hosts_.size())),
      net::MacAddress::for_host(0xfffffe), scheduler_,
      // An Internet-side host's output re-enters the cloud's routing: it
      // only reaches our stub (and its sniffers) when actually stub-bound.
      [this](const net::Packet& pkt) { cloud_->route(pkt); },
      host_params,
      util::splitmix64(params_.seed ^ (0xe000 + internet_hosts_.size())));
  TcpHost* raw = host.get();
  cloud_->attach_host(ip, raw);
  internet_hosts_.push_back(std::move(host));
  return *raw;
}

void StubNetworkSim::make_servers(std::uint16_t port) {
  for (const auto& host : stub_hosts_) host->listen(port);
}

void StubNetworkSim::schedule_outbound_background(
    const std::vector<util::SimTime>& start_times) {
  for (util::SimTime at : start_times) {
    const auto host_index = static_cast<std::uint32_t>(
        workload_rng_.uniform_int(1, params_.num_hosts));
    // Random generic remote server outside both the stub prefix and the
    // spoof pool.
    const net::Ipv4Address dst{static_cast<std::uint32_t>(
        0x80000000u + workload_rng_.next_u32() % 0x20000000u)};
    scheduler_.schedule_at(at, [this, host_index, dst] {
      host(host_index).connect(dst, 80);
    });
  }
}

void StubNetworkSim::schedule_inbound_background(
    const std::vector<util::SimTime>& start_times,
    std::uint16_t server_port) {
  for (util::SimTime at : start_times) {
    const auto host_index = static_cast<std::uint32_t>(
        workload_rng_.uniform_int(1, params_.num_hosts));
    const net::Ipv4Address client{static_cast<std::uint32_t>(
        0x80000000u + workload_rng_.next_u32() % 0x20000000u)};
    const auto client_port = static_cast<std::uint16_t>(
        workload_rng_.uniform_int(1024, 65535));
    const std::uint32_t seq = workload_rng_.next_u32();
    scheduler_.schedule_at(at, [this, host_index, client, client_port,
                                server_port, seq] {
      net::TcpPacketSpec spec;
      spec.src_mac = net::MacAddress::for_host(0xfffffe);
      spec.dst_mac = net::MacAddress::for_host(host_index);
      spec.src_ip = client;
      spec.dst_ip = params_.stub_prefix.host(host_index);
      spec.src_port = client_port;
      spec.dst_port = server_port;
      spec.seq = seq;
      router_->forward_from_internet(scheduler_.now(), net::make_syn(spec));
    });
  }
}

void StubNetworkSim::launch_flood(std::uint32_t host_index,
                                  const std::vector<util::SimTime>& syn_times,
                                  net::Ipv4Address victim,
                                  std::uint16_t victim_port,
                                  net::Ipv4Prefix spoof_pool) {
  if (host_index == 0 || host_index > stub_hosts_.size()) {
    throw std::out_of_range("launch_flood: host index out of range");
  }
  const net::MacAddress attacker_mac = net::MacAddress::for_host(host_index);
  const net::MacAddress router_mac = router_->mac();
  // A /31 or /32 pool means a fixed spoofed source (e.g. the reflection
  // scenario that frames one specific reachable host).
  const std::int64_t pool_hosts =
      std::max<std::int64_t>(static_cast<std::int64_t>(spoof_pool.size()) -
                                 2,
                             1);
  for (util::SimTime at : syn_times) {
    const net::Ipv4Address spoofed =
        spoof_pool.size() <= 2
            ? spoof_pool.base()
            : spoof_pool.host(static_cast<std::uint32_t>(
                  flood_rng_.uniform_int(1, pool_hosts)));
    const auto sport = static_cast<std::uint16_t>(
        flood_rng_.uniform_int(1024, 65535));
    const std::uint32_t seq = flood_rng_.next_u32();
    scheduler_.schedule_at(at, [this, attacker_mac, router_mac, spoofed,
                                victim, victim_port, sport, seq] {
      net::TcpPacketSpec spec;
      spec.src_mac = attacker_mac;
      spec.dst_mac = router_mac;
      spec.src_ip = spoofed;
      spec.dst_ip = victim;
      spec.src_port = sport;
      spec.dst_port = victim_port;
      spec.seq = seq;
      scheduler_.schedule_after(
          params_.lan_delay,
          [this, h = scheduler_.packets().acquire(net::make_syn(spec))] {
            router_->forward_from_intranet(scheduler_.now(), *h);
          });
    });
  }
}

void StubNetworkSim::set_uplink_sink() {
  router_->set_uplink([](const net::Packet&) {});
}

void StubNetworkSim::replay_at_router(util::SimTime at,
                                      const net::Packet& packet) {
  const bool from_intranet = params_.stub_prefix.contains(packet.ip.src) ||
                             !params_.stub_prefix.contains(packet.ip.dst);
  scheduler_.schedule_at(
      at, [this, from_intranet, h = scheduler_.packets().acquire(packet)] {
        if (from_intranet) {
          router_->forward_from_intranet(scheduler_.now(), *h);
        } else {
          router_->forward_from_internet(scheduler_.now(), *h);
        }
      });
}

}  // namespace syndog::sim
