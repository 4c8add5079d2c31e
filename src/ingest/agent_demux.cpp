#include "syndog/ingest/agent_demux.hpp"

#include <stdexcept>

namespace syndog::ingest {

struct AgentDemux::Stub {
  StubSpec spec;
  sim::LeafRouter router;
  core::SynDogAgent agent;
  std::vector<core::AlarmEvent> alarms;

  Stub(sim::Scheduler& scheduler, StubSpec stub_spec,
       const core::SynDogParams& params, core::AgentMode mode,
       std::uint32_t index)
      : spec(std::move(stub_spec)),
        router(spec.prefix, net::MacAddress::for_host(index)),
        agent(router, scheduler, params,
              [this](const core::AlarmEvent& ev) { alarms.push_back(ev); },
              mode) {}
};

AgentDemux::AgentDemux(sim::Scheduler& scheduler, std::vector<StubSpec> stubs,
                       core::SynDogParams params, DemuxOptions options)
    : scheduler_(scheduler), params_(params), options_(options) {
  params_.validate();
  if (stubs.empty()) {
    throw std::invalid_argument("AgentDemux: need at least one stub");
  }
  if (options_.default_stub >= static_cast<int>(stubs.size())) {
    throw std::invalid_argument("AgentDemux: default_stub out of range");
  }
  stubs_.reserve(stubs.size());
  for (std::size_t i = 0; i < stubs.size(); ++i) {
    stubs_.push_back(std::make_unique<Stub>(scheduler, std::move(stubs[i]),
                                            params_, options_.mode,
                                            static_cast<std::uint32_t>(i)));
  }
}

AgentDemux::~AgentDemux() = default;

void AgentDemux::attach_observer(obs::Registry& registry) {
  for (const std::unique_ptr<Stub>& stub : stubs_) {
    stub->router.attach_observer(registry, stub->spec.name);
    stub->agent.attach_observer(registry);
  }
  local_counter_ = &registry.counter("ingest.demux.local_frames");
  unroutable_counter_ = &registry.counter("ingest.demux.unroutable_frames");
}

int AgentDemux::find_stub(net::Ipv4Address addr) const {
  for (std::size_t i = 0; i < stubs_.size(); ++i) {
    if (stubs_[i]->spec.prefix.contains(addr)) return static_cast<int>(i);
  }
  return -1;
}

void AgentDemux::on_frame(util::SimTime at, const Frame& frame) {
  const int src = find_stub(frame.packet.ip.src);
  const int dst = find_stub(frame.packet.ip.dst);
  if (src >= 0 && src == dst) {
    ++local_;
    if (local_counter_ != nullptr) local_counter_->add();
    return;
  }
  if (src >= 0) {
    stubs_[static_cast<std::size_t>(src)]->router.forward_from_intranet(
        at, frame.packet);
  }
  if (dst >= 0) {
    stubs_[static_cast<std::size_t>(dst)]->router.forward_from_internet(
        at, frame.packet);
  }
  if (src < 0 && dst < 0) {
    if (options_.default_stub >= 0) {
      stubs_[static_cast<std::size_t>(options_.default_stub)]
          ->router.forward_from_intranet(at, frame.packet);
    } else {
      ++unroutable_;
      if (unroutable_counter_ != nullptr) unroutable_counter_->add();
    }
  }
}

void AgentDemux::close_final_period() {
  const std::int64_t t0_ns = params_.observation_period.ns();
  const std::int64_t boundary_ns =
      (scheduler_.now().ns() / t0_ns + 1) * t0_ns;
  scheduler_.run_until(util::SimTime::nanoseconds(boundary_ns));
}

const StubSpec& AgentDemux::stub(std::size_t i) const {
  return stubs_.at(i)->spec;
}

const core::SynDogAgent& AgentDemux::agent(std::size_t i) const {
  return stubs_.at(i)->agent;
}

const std::vector<core::AlarmEvent>& AgentDemux::alarms(std::size_t i) const {
  return stubs_.at(i)->alarms;
}

}  // namespace syndog::ingest
