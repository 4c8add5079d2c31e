// TelemetrySink — the fleet aggregation endpoint agents stream into.
//
// Producers (per-agent wiring in src/core, or anything else holding a
// series id) call push(); the sink appends the sample to a syndog-tsf/1
// stream through a TsfWriter on the caller's thread, and dedups metric
// and series registrations so each name or agent × metric pair gets one
// id.
//
// Single-threaded, like every sim object: no queue, no lock, no thread.
// Every producer runs on one thread — core::FleetRecorder,
// mitigate::MitigationRecorder::attach_sink, syndog_fleetctl gen,
// operator_dashboard and bench_fleet_telemetry. The bytes are a pure
// function of the registration and push order, so a seeded campaign
// writes the same file on every run (tests/telemetry_test.cpp and the
// fleetctl/bench determinism ctests hold this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "syndog/obs/metrics.hpp"
#include "syndog/telemetry/tsf.hpp"
#include "syndog/util/time.hpp"

namespace syndog::telemetry {

/// Counters describing one sink's lifetime (all monotonic).
struct SinkStats {
  std::uint64_t pushed = 0;  ///< samples appended to the tsf stream
  std::uint64_t blocks = 0;  ///< tsf blocks written so far
};

class TelemetrySink {
 public:
  /// `block_capacity` = samples per tsf block (see TsfWriter).
  /// The stream is finished on destruction if finish() was not called.
  explicit TelemetrySink(std::ostream& out, std::size_t block_capacity = 512);
  TelemetrySink(const TelemetrySink&) = delete;
  TelemetrySink& operator=(const TelemetrySink&) = delete;

  /// Registration: ids are dense, assigned in call order (so call order is
  /// part of the file's bytes). Not hot-path — may allocate.
  std::uint32_t register_agent(std::string_view name, std::uint32_t as_number);
  /// Returns the metric's id, registering it on first use.
  std::uint32_t metric_id(std::string_view name);
  /// Returns the series id for agent × metric, opening it on first use.
  std::uint32_t series_id(std::uint32_t agent, std::uint32_t metric);

  /// Hot path: synchronous append, allocation-free between block flushes.
  void push(std::uint32_t series, util::SimTime at, double value);

  /// Flattens an obs metrics snapshot through MetricsSnapshot::
  /// for_each_scalar and pushes one sample per scalar, timestamped `at`.
  /// Registers "counter.*" / "gauge.*" / "histogram.*" metrics on first
  /// use.
  void push_snapshot(std::uint32_t agent, util::SimTime at,
                     const obs::MetricsSnapshot& snapshot);

  /// Writes the tsf footer and flushes the stream. Idempotent; push()
  /// after finish() throws std::logic_error.
  void finish() { writer_.finish(); }

  [[nodiscard]] SinkStats stats() const;

 private:
  TsfWriter writer_;
  std::map<std::string, std::uint32_t, std::less<>> metric_ids_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t>
      series_ids_;
  std::uint64_t pushed_ = 0;
};

}  // namespace syndog::telemetry
