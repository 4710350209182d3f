// Statistics, the printed report, and the inputs/baseline of the gate.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <sstream>

#include "baseline/baseline.h"
#include "bench.h"
#include "ldbc/ldbc.h"
#include "util/build_info.h"

namespace perfbench {
namespace {

// The graph generator seed: fixed, so every --seed measures the same graph
// (METRICS.md, "Seeds").
constexpr std::uint64_t kGraphSeed = 42;

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

template <typename T>
std::string NumList(const std::vector<T>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i > 0 ? "," : "") + Num(static_cast<double>(v[i]));
  }
  return out + "]";
}

}  // namespace

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

Percentile NearestRank(std::vector<double> v, double q) {
  Percentile p;
  p.n = v.size();
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  p.value = v[rank - 1];
  p.beyond = v.size() - rank;
  return p;
}

Metric Scaled(std::string name, std::string unit, double scaled, double raw) {
  Metric m{std::move(name), std::move(unit), scaled, raw, true, {}};
  return m;
}

Metric Plain(std::string name, std::string unit, double value) {
  Metric m{std::move(name), std::move(unit), value, 0.0, false, {}};
  return m;
}

Metric FromPercentile(std::string name, const Percentile& scaled, const Percentile& raw) {
  Metric m = Scaled(std::move(name), "ms", scaled.value, raw.value);
  m.extra["samples"] = static_cast<double>(scaled.n);
  m.extra["beyond"] = static_cast<double>(scaled.beyond);
  return m;
}

void Fail(const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  std::exit(3);
}

void PrintProvenance(const Args& args, const std::vector<int>& cpus) {
  const fast::BuildInfo& build = fast::GetBuildInfo();
  std::ostringstream out;
  out << "{\"provenance\": {\"workload\": " << Quote(args.workload)
      << ", \"seed\": " << args.seed << ", \"graph_seed\": " << kGraphSeed
      << ", \"seconds\": " << Num(args.seconds) << ", \"trace\": " << (args.trace ? 1 : 0)
      << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"pinned_cpus\": " << NumList(cpus)
      << ", \"nominal_ref_ms\": " << Num(kNominalRefMs)
      << ", \"build_type\": " << Quote(build.build_type)
      << ", \"compiler\": " << Quote(build.compiler)
      << ", \"git_sha\": " << Quote(build.git_sha) << "}}\n";
  std::fputs(out.str().c_str(), stdout);
  std::fflush(stdout);
}

Metric SetupMetric(const Host& host, const std::vector<SliceRecord>& slices) {
  std::vector<double> raw, scaled;
  for (const SliceRecord& s : slices) {
    raw.push_back(s.setup_raw_s);
    scaled.push_back(s.setup_raw_s * host.Scale(s.setup_interval));
  }
  return Scaled("setup_s", "s", Median(scaled), Median(raw));
}

Metric PeakRssMetric(const std::vector<SliceRecord>& slices) {
  std::vector<double> peaks;
  for (const SliceRecord& s : slices) peaks.push_back(s.peak_rss_mb);
  return Plain("peak_rss_mb", "MiB", Median(peaks));
}

void PrintReport(const Report& report, const Host& host, const std::vector<SliceRecord>& slices) {
  std::vector<double> setup_raw;
  for (const SliceRecord& s : slices) setup_raw.push_back(s.setup_raw_s);
  std::ostringstream detail;
  detail << "{\"detail\": {\"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    detail << (i > 0 ? ", " : "") << Quote(m.name) << ": {\"value\": " << Num(m.value);
    if (m.has_raw) detail << ", \"raw\": " << Num(m.raw);
    detail << ", \"unit\": " << Quote(m.unit);
    for (const auto& [k, v] : m.extra) detail << ", " << Quote(k) << ": " << Num(v);
    detail << "}";
  }
  detail << "}, \"host\": {\"ref_ms\": " << NumList(host.refs_ms())
         << ", \"ref_ms_median\": " << Num(Median(host.refs_ms()))
         << ", \"setup_raw_s\": " << NumList(setup_raw)
         << ", \"interval_work_raw_s\": " << NumList(report.interval_work_raw_s) << "}, \"exact\": {";
  std::size_t i = 0;
  for (const auto& [k, v] : report.exact) {
    detail << (i++ > 0 ? ", " : "") << Quote(k) << ": " << v;
  }
  detail << "}, \"facts\": {";
  i = 0;
  for (const auto& [k, v] : report.facts) {
    detail << (i++ > 0 ? ", " : "") << Quote(k) << ": " << Num(v);
  }
  detail << "}}}\n";

  std::ostringstream result;
  result << "{\"correct\": true, \"attempted\": " << report.attempted
         << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t j = 0; j < report.metrics.size(); ++j) {
    const Metric& m = report.metrics[j];
    result << (j > 0 ? ", " : "") << Quote(m.name) << ": {\"value\": " << Num(m.value)
           << ", \"unit\": " << Quote(m.unit) << "}";
  }
  result << "}}\n";
  std::fputs(detail.str().c_str(), stdout);
  std::fputs(result.str().c_str(), stdout);
  std::fflush(stdout);
}

fast::Graph MakeLdbcGraph(double scale_factor) {
  fast::LdbcConfig config;
  config.scale_factor = scale_factor;
  config.seed = kGraphSeed;
  fast::StatusOr<fast::Graph> g = fast::GenerateLdbcGraph(config);
  if (!g.ok()) Fail("graph generation: " + g.status().ToString());
  return std::move(*g);
}

std::uint64_t GraphFingerprint(const fast::Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t x) { h = (h ^ x) * 0x100000001b3ULL; };
  for (fast::VertexId v = 0; v < g.NumVertices(); ++v) {
    mix(g.label(v));
    mix(g.degree(v));
    for (fast::VertexId w : g.neighbors(v)) mix(w);
  }
  return h;
}

std::uint64_t BaselineCount(const fast::QueryGraph& q, const fast::Graph& g,
                            bool wrong_reference) {
  const auto cfl = fast::MakeBaseline(fast::BaselineKind::kCfl);
  fast::StatusOr<fast::BaselineRunResult> r = cfl->Run(q, g, fast::BaselineOptions{});
  if (!r.ok()) Fail("baseline " + q.name() + ": " + r.status().ToString());
  return r->embeddings + (wrong_reference ? 1 : 0);
}

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL +
                    index * 0x8CB92BA72F3D8DD7ULL + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<int> Permutation(std::size_t n, std::uint64_t seed) {
  std::vector<int> p(n);
  std::iota(p.begin(), p.end(), 0);
  for (std::size_t i = n; i > 1; --i) {
    seed = SubSeed(seed, 7, i);
    std::swap(p[i - 1], p[seed % i]);
  }
  return p;
}

}  // namespace perfbench
