#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared pieces of the repository benchmark (METRICS.md): arguments, CPU
// pinning and the host-speed reference, the slice loop, sample statistics,
// the result report, and the correctness gate's baseline counts.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "query/query_graph.h"
#include "util/status.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Test hook: perturbs every baseline count so the gate must fire.
  bool wrong_reference = false;
};

// ---- Host: pinning and the reference kernel (host.cc). ----

// Nominal reference time: every scaled wall time is "raw x kNominalRefMs /
// measured reference". Frozen together with ref_kernel.cc.
inline constexpr double kNominalRefMs = 1.3;

// Pins the process to `want` CPUs (fewer if fewer are allowed) taken from
// the end of its allowed set, before any thread is started, so every thread
// the library starts later inherits the mask. Returns the pinned set.
std::vector<int> PinProcess(std::size_t want);

// The host-speed reference. Mark() runs the reference kernel on every CPU
// of the pinned set at once, one pinned thread each, and records the mean
// over CPUs; it is called between passes (pipeline) or rounds of passes
// (serve-*), while no load runs. Interval i is the time between marks i
// and i + 1; work timed in it is scaled by Scale(i).
class Host {
 public:
  explicit Host(std::vector<int> cpus) : cpus_(std::move(cpus)) {}

  // Measures the reference now, opening the next interval.
  void Mark();
  // The interval work timed now falls in.
  std::size_t interval() const { return refs_ms_.size() - 1; }
  // kNominalRefMs over the mean of the marks that bound the interval.
  double Scale(std::size_t interval) const;

  const std::vector<int>& cpus() const { return cpus_; }
  const std::vector<double>& refs_ms() const { return refs_ms_; }

 private:
  std::vector<int> cpus_;
  std::vector<double> refs_ms_;
  std::vector<std::vector<std::uint32_t>> buffers_;  // one per CPU
};

// Every run has kSlices slices: (set-up, load, teardown), with a reference
// mark before the first and after each; load marks more itself. Set-ups are
// thus spread one per slice through the run, never back to back.
inline constexpr std::size_t kSlices = 8;
struct SliceHooks {
  std::function<void(std::size_t slice)> setup;  // timed: setup_s
  std::function<void(std::size_t slice, double seconds)> load;
  std::function<void(std::size_t slice)> teardown;  // untimed
};
struct SliceRecord {
  double setup_raw_s = 0.0;
  std::size_t setup_interval = 0;
  // The slice's peak resident set (set-up and load), in MiB.
  double peak_rss_mb = 0.0;
};
std::vector<SliceRecord> RunSlices(Host& host, double load_seconds, const SliceHooks& hooks);

// ---- Statistics (report.cc). ----

double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

// Nearest-rank percentile with its sample count and the number of samples
// ranked beyond it.
struct Percentile {
  double value = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};
Percentile NearestRank(std::vector<double> v, double q);

// ---- Report (report.cc). ----

// One printed metric: the reference-scaled value the result line carries,
// plus the raw value and any extra fields for the detail line.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  double raw = 0.0;
  bool has_raw = false;
  std::map<std::string, double> extra;
};

Metric Scaled(std::string name, std::string unit, double scaled, double raw);
Metric Plain(std::string name, std::string unit, double value);
Metric FromPercentile(std::string name, const Percentile& scaled, const Percentile& raw);

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Exact, host-independent counts (per query and graph state); identical
  // between traced and untraced runs of one seed.
  std::map<std::string, std::uint64_t> exact;
  // Free-form numeric facts for the detail line (e.g. self-time coverage).
  std::map<std::string, double> facts;
  // Per reference interval, the raw wall seconds per unit of work (a pass on
  // pipeline, a request on serve-*; 0 when the interval timed none). Set
  // beside the references, it shows what the scaling removes.
  std::vector<double> interval_work_raw_s;
};

// Prints the provenance line (seeds, nproc, pinned CPUs, build stamp).
void PrintProvenance(const Args& args, const std::vector<int>& cpus);

// Prints the detail line (raw beside scaled, host references, exact counts)
// and, as the last line of stdout, the result line.
void PrintReport(const Report& report, const Host& host, const std::vector<SliceRecord>& slices);

// The setup_s metric: median of the scaled set-ups, raw beside it.
Metric SetupMetric(const Host& host, const std::vector<SliceRecord>& slices);

// The peak_rss_mb metric: median over slices of each slice's peak.
Metric PeakRssMetric(const std::vector<SliceRecord>& slices);

// Fails the run: message to stderr, exit code 3, no result line.
[[noreturn]] void Fail(const std::string& what);

// ---- Inputs and the correctness gate (report.cc). ----

// The benchmark graph: LDBC-like, fixed generator seed (the --seed drives
// pass orders, query relabellings and the churn delta, not the graph).
fast::Graph MakeLdbcGraph(double scale_factor);

// Order-sensitive fingerprint of a graph's labels and adjacency.
std::uint64_t GraphFingerprint(const fast::Graph& g);

// CFL-Match embedding count (the gate's baseline); Fail()s on error.
std::uint64_t BaselineCount(const fast::QueryGraph& q, const fast::Graph& g,
                            bool wrong_reference);

// splitmix64 of (seed, stream, index): the per-pass / per-client streams.
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream, std::uint64_t index);

// Seeded permutation of 0..n-1.
std::vector<int> Permutation(std::size_t n, std::uint64_t seed);

// ---- Workloads. ----
int RunPipeline(const Args& args);
int RunServe(const Args& args, bool churn);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
