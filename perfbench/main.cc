// perfbench_diva — runs one DIVA benchmark workload and prints its raw
// measurements (samples, counts, spans, failures) as one JSON object on
// stdout; perfbench/run.py turns them into the benchmark's metrics.
//
// Usage:
//   perfbench_diva --workload batch_default|batch_sharded|serve_mixed
//       --seed N --seconds S --trace 0|1

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "bench.h"

namespace {

/// Process peak resident set size in MiB.
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || !args.count("--workload") || !args.count("--seed") ||
      !args.count("--seconds") || !args.count("--trace")) {
    std::fprintf(stderr,
                 "usage: perfbench_diva --workload NAME --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  const uint64_t seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
  const double seconds = std::strtod(args["--seconds"].c_str(), nullptr);
  const bool trace = args["--trace"] == "1";

  auto workload = perfbench::MakeWorkload(args["--workload"], seed);
  if (!workload.ok()) {
    std::fprintf(stderr, "perfbench_diva: %s\n",
                 workload.status().ToString().c_str());
    return 2;
  }
  perfbench::Recorder recorder(trace);
  if (workload->serve) {
    perfbench::RunServeWorkload(*workload, seconds, seed, &recorder);
  } else {
    perfbench::RunBatch(*workload, seconds, seed, &recorder);
  }
  recorder.Value("peak_rss_mb", PeakRssMb());
  std::printf("%s\n", recorder.ToJson().c_str());
  return 0;
}
