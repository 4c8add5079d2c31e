#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "syndog/util/rng.hpp"

namespace perfbench {

namespace {

/// A sample is clean when the host stole at most this share of all CPU
/// time while it was measured. On a shared host a barrier-synchronized
/// parallel run slows by far more than the CPU time stolen from it, so a
/// disturbed sample measures the other guests, not the program.
constexpr double kCleanSteal = 0.02;
/// Clean samples a run wants for each reported throughput.
constexpr std::size_t kCleanSamples = 4;
/// How far past --seconds a run may go to collect them.
constexpr double kMaxExtension = 2.0;

std::size_t clean_count(const std::vector<Sample>& samples) {
  return static_cast<std::size_t>(std::count_if(
      samples.begin(), samples.end(),
      [](const Sample& s) { return s.timing.steal <= kCleanSteal; }));
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

/// Peak resident set since the last reset_peak_rss() (or since start),
/// in MiB: VmHWM of /proc/self/status.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof line, f) != nullptr) {
      found = std::sscanf(line, "VmHWM: %lu kB", &kib) == 1;
    }
    std::fclose(f);
    if (found) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

/// Restarts the peak at the current resident set (Linux clear_refs 5).
/// Workloads reset it before each batch and report the mean batch peak,
/// so the figure does not depend on how many batches a run fits. (The
/// mean, not the median: vector growth makes an ensemble batch's peak
/// jump between a few levels, and a median would jump with it.)
void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

std::string join(const std::vector<double>& xs) {
  std::string out;
  for (const double x : xs) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.6g", out.empty() ? "" : ",", x);
    out += buf;
  }
  return out;
}

/// The rates, then the steal shares, of `samples`, for the run record.
std::string join(const std::vector<Sample>& samples) {
  std::vector<double> rates;
  std::vector<double> steals;
  for (const Sample& s : samples) {
    rates.push_back(s.rate());
    steals.push_back(s.timing.steal);
  }
  return join(rates) + " steal " + join(steals);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

StealMeter::Ticks StealMeter::read() {
  Ticks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    t.steal = v[7];
    for (const unsigned long long x : v) t.total += x;
  }
  std::fclose(f);
  return t;
}

double StealMeter::share() const {
  const Ticks now = read();
  if (now.total <= start_.total) return 0.0;
  return static_cast<double>(now.steal - start_.steal) /
         static_cast<double>(now.total - start_.total);
}

double screened_rate(const std::vector<Sample>& samples) {
  double work = 0.0;
  double wall_s = 0.0;
  for (const Sample& s : samples) {
    if (s.timing.steal <= kCleanSteal) {
      work += s.work;
      wall_s += s.timing.wall_s;
    }
  }
  if (wall_s > 0.0) return work / wall_s;
  const auto least = std::min_element(
      samples.begin(), samples.end(), [](const Sample& a, const Sample& b) {
        return a.timing.steal < b.timing.steal;
      });
  return least == samples.end() ? 0.0 : least->rate();
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  return syndog::util::splitmix64(seed ^
                                  syndog::util::splitmix64(index + 1));
}

bool Measurement::more(const Options& opts) const {
  if (batches == 0 || measured_s < opts.seconds) return true;
  if (opts.trace || measured_s >= kMaxExtension * opts.seconds) return false;
  return clean_count(work) < kCleanSamples ||
         clean_count(ref_work) < kCleanSamples;
}

void Measurement::begin_batch() { reset_peak_rss(); }

void Measurement::end_batch() {
  batch_rss.push_back(peak_rss_mb());
  ++batches;
}

void Measurement::report(Result& result) const {
  const auto clean = [](const std::vector<Sample>& s) {
    return std::to_string(clean_count(s)) + "/" + std::to_string(s.size());
  };
  result.info["batches"] = std::to_string(batches);
  result.info["clean_samples"] = clean(work) + " and " + clean(ref_work);
  result.info["work_per_s_samples"] = join(work);
  result.info["ref_work_per_s_samples"] = join(ref_work);
  result.info["setup_s_samples"] = join(setups);
  result.info["peak_rss_mb_samples"] = join(batch_rss);
  result.metric("setup_s", median(setups), "s");
  result.metric("peak_rss_mb", mean(batch_rss), "MB");
  result.metric("work_per_s", screened_rate(work), "work/s");
  result.metric("ref_work_per_s", screened_rate(ref_work), "work/s");
}

void print_result(const Result& result) {
  std::string out = "{\"checks_passed\": ";
  out += result.checks_passed ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metric.first);
    out += (first ? "" : ", ") + json_string(name) + ": {\"value\": " +
           value + ", \"unit\": " + json_string(metric.second) + "}";
    first = false;
  }
  out += "}, \"info\": {";
  first = true;
  for (const auto& [key, value] : result.info) {
    out += (first ? "" : ", ") + json_string(key) + ": " + json_string(value);
    first = false;
  }
  out += "}, \"notes\": [";
  first = true;
  for (const std::string& note : result.notes) {
    out += (first ? "" : ", ") + json_string(note);
    first = false;
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
