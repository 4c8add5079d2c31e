#include "syndog/sim/multistub.hpp"

#include <stdexcept>
#include <string>

namespace syndog::sim {

namespace {
net::Ipv4Prefix prefix_for(int stub) {
  return net::Ipv4Prefix(
      net::Ipv4Address(10, static_cast<std::uint8_t>(stub + 1), 0, 0), 16);
}
}  // namespace

MultiStubSim::MultiStubSim(MultiStubParams params)
    : params_(params),
      workload_rng_(util::Rng::child(params.seed, 0x3bac4)),
      flood_rng_(util::Rng::child(params.seed, 0x3f100d)) {
  if (params_.stub_count < 1 || params_.stub_count > 200) {
    throw std::invalid_argument("MultiStubSim: stub_count in [1,200]");
  }
  // Host i of a stub is prefix.host(i); a /16 holds 65534 of them, and a
  // larger index would land in the next stub's prefix.
  const std::uint64_t max_hosts = prefix_for(0).size() - 2;
  if (params_.hosts_per_stub == 0 || params_.hosts_per_stub > max_hosts) {
    throw std::invalid_argument("MultiStubSim: hosts_per_stub in [1, " +
                                std::to_string(max_hosts) + "]");
  }

  // The cloud is created around stub 0's downlink; the others register
  // as additional routes.
  stubs_.resize(static_cast<std::size_t>(params_.stub_count));
  for (int s = 0; s < params_.stub_count; ++s) {
    Stub& stub = stubs_[static_cast<std::size_t>(s)];
    const net::Ipv4Prefix prefix = prefix_for(s);
    const net::MacAddress router_mac =
        net::MacAddress::for_host(0xf00000 + static_cast<std::uint32_t>(s));
    stub.router = std::make_unique<LeafRouter>(prefix, router_mac);

    LeafRouter* router = stub.router.get();
    stub.downlink = std::make_unique<Link>(
        scheduler_, params_.downlink,
        [this, router](const net::Packet& pkt) {
          router->forward_from_internet(scheduler_.now(), pkt);
        },
        util::splitmix64(params_.seed ^ (0xd000 + s)));

    if (s == 0) {
      CloudParams cloud_params = params_.cloud;
      cloud_params.stub_prefix = prefix;
      cloud_ = std::make_unique<InternetCloud>(
          scheduler_, cloud_params,
          [link = stub.downlink.get()](const net::Packet& pkt) {
            link->send(pkt);
          },
          util::splitmix64(params_.seed ^ 0x3c1));
    } else {
      cloud_->add_stub_route(
          prefix, [link = stub.downlink.get()](const net::Packet& pkt) {
            link->send(pkt);
          });
    }

    stub.uplink = std::make_unique<Link>(
        scheduler_, params_.uplink,
        [this](const net::Packet& pkt) { cloud_->receive(pkt); },
        util::splitmix64(params_.seed ^ (0xa000 + s)));
    router->set_uplink([link = stub.uplink.get()](const net::Packet& pkt) {
      link->send(pkt);
    });

    stub.hosts.reserve(params_.hosts_per_stub);
    for (std::uint32_t i = 1; i <= params_.hosts_per_stub; ++i) {
      const net::Ipv4Address ip = prefix.host(i);
      auto host = std::make_unique<TcpHost>(
          "stub" + std::to_string(s) + "-" + std::to_string(i), ip,
          net::MacAddress::for_host(
              static_cast<std::uint32_t>(s) * 0x10000 + i),
          router_mac, scheduler_,
          [this, router](const net::Packet& pkt) {
            scheduler_.schedule_after(
                params_.lan_delay,
                [this, router, h = scheduler_.packets().acquire(pkt)] {
                  router->forward_from_intranet(scheduler_.now(), *h);
                });
          },
          params_.host_params,
          util::splitmix64(params_.seed ^ (0x70000 + s * 1000 + i)));
      TcpHost* raw = host.get();
      router->attach_host(ip, [this, raw](const net::Packet& pkt) {
        scheduler_.schedule_after(
            params_.lan_delay,
            [raw, h = scheduler_.packets().acquire(pkt)] { raw->receive(*h); });
      });
      stub.hosts.push_back(std::move(host));
    }
  }
}

net::Ipv4Prefix MultiStubSim::stub_prefix(int stub) const {
  if (stub < 0 || stub >= params_.stub_count) {
    throw std::out_of_range("MultiStubSim: stub index");
  }
  return prefix_for(stub);
}

LeafRouter& MultiStubSim::router(int stub) {
  if (stub < 0 || stub >= params_.stub_count) {
    throw std::out_of_range("MultiStubSim: stub index");
  }
  return *stubs_[static_cast<std::size_t>(stub)].router;
}

TcpHost& MultiStubSim::host(int stub, std::uint32_t index) {
  if (stub < 0 || stub >= params_.stub_count) {
    throw std::out_of_range("MultiStubSim: stub index " +
                            std::to_string(stub) + " outside [0, " +
                            std::to_string(params_.stub_count - 1) + "]");
  }
  if (index == 0 || index > params_.hosts_per_stub) {
    throw std::out_of_range(
        "MultiStubSim: host index " + std::to_string(index) +
        " outside [1, " + std::to_string(params_.hosts_per_stub) +
        "] (host indices are 1-based; offset 0 is the prefix base)");
  }
  return *stubs_[static_cast<std::size_t>(stub)].hosts[index - 1];
}

TcpHost& MultiStubSim::add_internet_host(std::string name,
                                         net::Ipv4Address ip,
                                         TcpHostParams host_params) {
  for (int s = 0; s < params_.stub_count; ++s) {
    if (prefix_for(s).contains(ip)) {
      throw std::invalid_argument(
          "MultiStubSim: internet host inside a stub prefix");
    }
  }
  auto host = std::make_unique<TcpHost>(
      std::move(name), ip,
      net::MacAddress::for_host(
          0xe00000 + static_cast<std::uint32_t>(internet_hosts_.size())),
      net::MacAddress::for_host(0xfffffe), scheduler_,
      [this](const net::Packet& pkt) { cloud_->route(pkt); }, host_params,
      util::splitmix64(params_.seed ^ (0xe000 + internet_hosts_.size())));
  TcpHost* raw = host.get();
  cloud_->attach_host(ip, raw);
  internet_hosts_.push_back(std::move(host));
  return *raw;
}

void MultiStubSim::schedule_outbound_background(
    int stub, const std::vector<util::SimTime>& start_times) {
  if (stub < 0 || stub >= params_.stub_count) {
    throw std::out_of_range("MultiStubSim: stub index");
  }
  for (const util::SimTime at : start_times) {
    const auto host_index = static_cast<std::uint32_t>(
        workload_rng_.uniform_int(1, params_.hosts_per_stub));
    const net::Ipv4Address dst{static_cast<std::uint32_t>(
        0x80000000u + workload_rng_.next_u32() % 0x20000000u)};
    scheduler_.schedule_at(at, [this, stub, host_index, dst] {
      host(stub, host_index).connect(dst, 80);
    });
  }
}

void MultiStubSim::launch_flood(int stub, std::uint32_t host_index,
                                const std::vector<util::SimTime>& syn_times,
                                net::Ipv4Address victim,
                                std::uint16_t victim_port,
                                net::Ipv4Prefix spoof_pool) {
  if (stub < 0 || stub >= params_.stub_count || host_index == 0 ||
      host_index > params_.hosts_per_stub) {
    throw std::out_of_range("MultiStubSim: flood indices");
  }
  const net::MacAddress attacker_mac = net::MacAddress::for_host(
      static_cast<std::uint32_t>(stub) * 0x10000 + host_index);
  LeafRouter* router = stubs_[static_cast<std::size_t>(stub)].router.get();
  const std::int64_t pool_hosts = std::max<std::int64_t>(
      static_cast<std::int64_t>(spoof_pool.size()) - 2, 1);
  for (const util::SimTime at : syn_times) {
    const net::Ipv4Address spoofed =
        spoof_pool.size() <= 2
            ? spoof_pool.base()
            : spoof_pool.host(static_cast<std::uint32_t>(
                  flood_rng_.uniform_int(1, pool_hosts)));
    const auto sport = static_cast<std::uint16_t>(
        flood_rng_.uniform_int(1024, 65535));
    const std::uint32_t seq = flood_rng_.next_u32();
    scheduler_.schedule_at(at, [this, router, attacker_mac, spoofed, victim,
                                victim_port, sport, seq] {
      net::TcpPacketSpec spec;
      spec.src_mac = attacker_mac;
      spec.dst_mac = router->mac();
      spec.src_ip = spoofed;
      spec.dst_ip = victim;
      spec.src_port = sport;
      spec.dst_port = victim_port;
      spec.seq = seq;
      scheduler_.schedule_after(
          params_.lan_delay,
          [this, router,
           h = scheduler_.packets().acquire(net::make_syn(spec))] {
            router->forward_from_intranet(scheduler_.now(), *h);
          });
    });
  }
}

}  // namespace syndog::sim
