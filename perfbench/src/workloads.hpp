// The benchmark's workloads. Each is a closed batch job: it builds its
// inputs from Options::seed, repeats fixed-size batches until
// Options::seconds of measured time have passed, checks every output
// against an oracle the program already has, and reports medians over
// the batches. With Options::trace it instead times each layer from the
// outside (see harness.hpp) and reports the per-layer metrics.
#pragma once

#include "harness.hpp"

namespace perfbench {

/// `ensemble-unc`: the Table 2 UNC rate sweep through
/// bench::detection_ensemble.
[[nodiscard]] Result run_ensemble(const Options& opts);

enum class CampaignKind : std::uint8_t { kFlood, kSpread };

/// `campaign-flood` / `campaign-spread`: one sharded CampaignSim per
/// batch on nproc workers.
[[nodiscard]] Result run_campaign(const Options& opts, CampaignKind kind);

/// `ingest-replay`: passes of a synthetic classic-pcap capture through
/// ShardedReplay and the ReplayEngine + AgentDemux reference.
[[nodiscard]] Result run_ingest(const Options& opts);

}  // namespace perfbench
