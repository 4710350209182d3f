// fastbench: the repository benchmark (METRICS.md).
//
//   fastbench --workload pipeline|serve-hot|serve-churn --seed N
//             --seconds S --trace 0|1 [--wrong-reference]
//
// Prints a provenance line, a detail line (raw values beside the
// reference-scaled ones, host references, exact counts) and, last, the
// result line. Exits 3 without a result line when the correctness gate
// fails, 2 on bad arguments.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "fastbench: %s\nusage: fastbench --workload pipeline|serve-hot|serve-churn "
               "--seed N --seconds S --trace 0|1 [--wrong-reference]\n",
               why.c_str());
  std::exit(2);
}

double ParseNumber(const std::string& flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v >= 0)) Usage("bad value for " + flag + ": " + text);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold: glibc otherwise raises it after each large free,
  // so whether freed snapshots and CST images return to the system (and so
  // peak_rss_mb) would depend on thread timing.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--wrong-reference") {
      args.wrong_reference = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = static_cast<std::uint64_t>(ParseNumber(flag, value));
    } else if (flag == "--seconds") {
      args.seconds = ParseNumber(flag, value);
    } else if (flag == "--trace") {
      args.trace = ParseNumber(flag, value) != 0;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0) Usage("--seconds must be positive");
  if (args.workload == "pipeline") return perfbench::RunPipeline(args);
  if (args.workload == "serve-hot") return perfbench::RunServe(args, /*churn=*/false);
  if (args.workload == "serve-churn") return perfbench::RunServe(args, /*churn=*/true);
  Usage("unknown workload '" + args.workload + "'");
}
