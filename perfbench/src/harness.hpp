// Shared plumbing of the benchmark: options, wall clock, layer
// spans, summary statistics and the result record each workload fills.
//
// Spans are timed here, in the benchmark's own code, around calls into a
// layer's public functions; nothing inside the program is instrumented.
// Each Layer keeps its busy time and the units of work its spans covered,
// so ratios such as ns per packet are measured where the work happens.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

enum class Size : std::uint8_t { kFull, kTiny };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
  /// Self-test hook: damage one output before it is checked, so the
  /// check must count the affected operations as failed.
  bool corrupt = false;
  int nproc = 1;
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One layer's spans: busy time and the units of work they covered.
struct Layer {
  double busy_s = 0.0;
  std::uint64_t work = 0;
};

/// Times `fn()` as a span of `layer`, or just calls it when `layer` is
/// null: one code path serves the traced and the untraced run.
template <typename Fn>
decltype(auto) span(Layer* layer, Fn&& fn) {
  if (layer == nullptr) return fn();
  struct Stop {
    Layer& l;
    Clock::time_point start;
    ~Stop() { l.busy_s += seconds_since(start); }
  } stop{*layer, Clock::now()};
  return fn();
}

/// CPU time the hypervisor gave to other guests: the steal column of
/// the aggregate `cpu` line of /proc/stat, as a share of all CPU time
/// (every CPU) since construction. 0 where /proc/stat has no such column.
class StealMeter {
 public:
  StealMeter() : start_(read()) {}
  [[nodiscard]] double share() const;

 private:
  struct Ticks {
    std::uint64_t steal = 0;
    std::uint64_t total = 0;
  };
  static Ticks read();
  Ticks start_;
};

/// One timed region: its wall time and the host steal share meanwhile.
struct Timing {
  double wall_s = 0.0;
  double steal = 0.0;
};

template <typename Fn>
Timing time_it(Fn&& fn) {
  const StealMeter steal;
  const Clock::time_point start = Clock::now();
  fn();
  Timing t;
  t.wall_s = seconds_since(start);
  t.steal = steal.share();
  return t;
}

/// A throughput sample: units of work done in one timed region.
struct Sample {
  double work = 0.0;
  Timing timing;

  [[nodiscard]] double rate() const { return work / timing.wall_s; }
};

/// Throughput -- total work over total wall time -- of the clean
/// samples (see harness.cpp), or the rate of the least-stolen sample
/// when none is clean.
[[nodiscard]] double screened_rate(const std::vector<Sample>& samples);

/// Median of `xs` (0 for an empty sample).
[[nodiscard]] double median(std::vector<double> xs);
/// Linear-interpolated quantile q in [0, 1] (0 for an empty sample).
[[nodiscard]] double quantile(std::vector<double> xs, double q);

/// splitmix64-derived seed for batch `index` of a run seeded `seed`, so
/// repeated batches of one run never reuse an input.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t index);

/// What a workload reports. Metric names and units follow
/// BENCHMARK.json; `info` carries strings such as thread counts.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when a check outside the per-operation counts fails (for
  /// example a campaign digest mismatch).
  bool checks_passed = true;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, std::string> info;
  std::vector<std::string> notes;

  void metric(const std::string& name, double value,
              const std::string& unit) {
    metrics[name] = {value, unit};
  }
};

/// The end-to-end measurements every workload takes, batch by batch.
struct Measurement {
  std::vector<double> setups;     ///< seconds, one per set-up
  std::vector<Sample> work;       ///< the measured path, one per batch
  std::vector<Sample> ref_work;   ///< the reference path, one per batch
  std::vector<double> batch_rss;  ///< peak resident MiB, one per batch
  double measured_s = 0.0;        ///< wall time of every timed region
  int batches = 0;

  /// Whether to run another batch: at least one, then until
  /// `opts.seconds` of measured time, then -- untraced runs only --
  /// while either path lacks enough clean samples, up to twice
  /// `opts.seconds`.
  [[nodiscard]] bool more(const Options& opts) const;
  /// Call first thing in a batch.
  void begin_batch();
  /// Call last thing in a batch.
  void end_batch();
  /// Adds setup_s, peak_rss_mb, work_per_s and ref_work_per_s to
  /// `result`, and the samples behind them to its info.
  void report(Result& result) const;
};

/// Prints `result` as one JSON line on stdout.
void print_result(const Result& result);

}  // namespace perfbench
