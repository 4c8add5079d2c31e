// perfbench — the reproduction's benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--size full|tiny] [--corrupt]
//
// Prints one JSON line: the operation counts, every metric with its
// unit, and the thread counts used. perfbench/run.py builds this binary,
// adds the host and build description, and prints the benchmark's
// result line; see perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <ensemble-unc|"
               "campaign-flood|campaign-spread|ingest-replay> --seed <n> "
               "--seconds <s> --trace <0|1> [--size full|tiny] "
               "[--corrupt]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || text.empty() || text[0] == '-') {
    usage(flag + " needs a non-negative integer, got '" + text + "'");
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options opts;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt") {
      opts.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = parse_uint(flag, value);
    } else if (flag == "--seconds") {
      opts.seconds = static_cast<double>(parse_uint(flag, value));
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opts.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") {
        usage("--size takes full or tiny");
      }
      opts.size = value == "tiny" ? Size::kTiny : Size::kFull;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (opts.workload.empty()) usage("--workload is required");
  if (!have_seconds || opts.seconds < 1) usage("--seconds must be >= 1");
  opts.nproc = static_cast<int>(std::thread::hardware_concurrency());
  if (opts.nproc < 1) opts.nproc = 1;
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  try {
    Result result;
    if (opts.workload == "ensemble-unc") {
      result = run_ensemble(opts);
    } else if (opts.workload == "campaign-flood") {
      result = run_campaign(opts, CampaignKind::kFlood);
    } else if (opts.workload == "campaign-spread") {
      result = run_campaign(opts, CampaignKind::kSpread);
    } else if (opts.workload == "ingest-replay") {
      result = run_ingest(opts);
    } else {
      usage("unknown workload '" + opts.workload + "'");
    }
    result.info["nproc"] = std::to_string(opts.nproc);
    result.info["seed"] = std::to_string(opts.seed);
    result.info["size"] = opts.size == Size::kTiny ? "tiny" : "full";
    print_result(result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
