// Workload `pipeline`: one caller runs RunFast (FAST-SEP, delta = 0.3) over
// seeded passes of q0-q8 on LDBC sf 1, bypassing the service, plan cache,
// device and updates. The traced run alternates RunFast passes with passes
// re-composed from the public steps (recompose.h).

#include <algorithm>
#include <memory>

#include "bench.h"
#include "layers.h"
#include "ldbc/ldbc.h"
#include "recompose.h"
#include "util/timer.h"

namespace perfbench {
namespace {

constexpr double kScaleFactor = 1.0;

struct Call {
  std::size_t interval = 0;
  int query = 0;
  double wall_s = 0;
  double build_s = 0;   // host, scaled
  double host_s = 0;    // partition + cpu share: host, scaled
  double device_s = 0;  // pcie + kernel: simulated, never scaled
};

struct Pass {
  std::size_t interval = 0;
  double wall_s = 0;
  bool traced = false;
  LayerTimes layers;
  std::uint64_t partial_results = 0;
};

}  // namespace

int RunPipeline(const Args& args) {
  Host host(PinProcess(1));
  PrintProvenance(args, host.cpus());

  const std::vector<fast::QueryGraph> queries = fast::AllLdbcQueries();
  const std::size_t nq = queries.size();
  fast::FastRunOptions options;
  options.variant = fast::FastVariant::kSep;
  options.cpu_share_delta = 0.3;

  std::unique_ptr<fast::Graph> graph;
  std::uint64_t fingerprint = 0;
  std::vector<fast::FastRunResult> reference;  // the first warm pass
  std::vector<std::size_t> cst_words(nq, 0);
  std::vector<Call> calls;
  std::vector<Pass> passes;
  Report report;

  const auto run_fast = [&](int qi) -> fast::StatusOr<fast::FastRunResult> {
    return fast::RunFast(queries[qi], *graph, options);
  };
  const auto check = [&](const fast::FastRunResult& r, int qi, const char* what) {
    const std::string diff = Mismatch(r, reference[qi]);
    if (!diff.empty()) {
      Fail(std::string(what) + " q" + std::to_string(qi) + " differs from RunFast on " + diff);
    }
  };

  SliceHooks hooks;
  hooks.setup = [&](std::size_t slice) {
    graph = std::make_unique<fast::Graph>(MakeLdbcGraph(kScaleFactor));
    // Warm-up pass: caches, allocator, and the exact reference results.
    for (std::size_t qi = 0; qi < nq; ++qi) {
      fast::StatusOr<fast::FastRunResult> r = run_fast(static_cast<int>(qi));
      if (!r.ok()) Fail("warm-up q" + std::to_string(qi) + ": " + r.status().ToString());
      if (slice == 0) {
        reference.push_back(std::move(*r));
      } else {
        check(*r, static_cast<int>(qi), "warm-up");
      }
    }
  };
  hooks.load = [&](std::size_t slice, double seconds) {
    const fast::Timer slice_timer;
    // At least one pass per slice; in traced runs one traced and one not.
    const std::uint64_t min_passes = args.trace ? 2 : 1;
    for (std::uint64_t p = 0; p < min_passes || slice_timer.ElapsedSeconds() < seconds; ++p) {
      const std::vector<int> order = Permutation(nq, SubSeed(args.seed, slice, p));
      Pass pass;
      pass.interval = host.interval();
      pass.traced = args.trace && p % 2 == 0;
      const fast::Timer pass_timer;
      for (int qi : order) {
        ++report.attempted;
        if (pass.traced) {
          const Recomposed rc = Recompose(queries[qi], *graph, options);
          check(rc.run, qi, "re-composed");
          cst_words[qi] = rc.cst_words;
          pass.layers += rc.t;
          pass.partial_results += rc.run.counters.partial_results;
          continue;
        }
        const fast::Timer call_timer;
        fast::StatusOr<fast::FastRunResult> r = run_fast(qi);
        const double wall = call_timer.ElapsedSeconds();
        if (!r.ok()) {
          ++report.failed;
          continue;
        }
        check(*r, qi, "RunFast");
        calls.push_back({pass.interval, qi, wall, r->build_seconds,
                         r->partition_seconds + r->cpu_share_seconds,
                         r->pcie_seconds + r->kernel_seconds});
      }
      pass.wall_s = pass_timer.ElapsedSeconds();
      passes.push_back(pass);
      host.Mark();
    }
  };
  hooks.teardown = [&](std::size_t) {
    const std::uint64_t fp = GraphFingerprint(*graph);
    if (fingerprint != 0 && fp != fingerprint) Fail("graph generation is not deterministic");
    fingerprint = fp;
    graph.reset();
  };

  const std::vector<SliceRecord> slices = RunSlices(host, args.seconds, hooks);

  // Correctness gate: every answer equalled the reference pass exactly
  // (checked above); the reference must equal CFL on the same graph.
  graph = std::make_unique<fast::Graph>(MakeLdbcGraph(kScaleFactor));
  if (GraphFingerprint(*graph) != fingerprint) Fail("gate graph differs from the served one");
  for (std::size_t qi = 0; qi < nq; ++qi) {
    const std::uint64_t want = BaselineCount(queries[qi], *graph, args.wrong_reference);
    if (reference[qi].embeddings != want) {
      Fail("q" + std::to_string(qi) + ": FAST counted " +
           std::to_string(reference[qi].embeddings) + ", CFL " + std::to_string(want));
    }
  }
  for (std::size_t qi = 0; qi < nq; ++qi) AddExactCounts("", qi, reference[qi], &report.exact);

  std::vector<double> pass_scaled, traced_scaled;
  double raw_s = 0, scaled_s = 0;
  report.interval_work_raw_s.assign(host.refs_ms().size(), 0.0);
  for (const Pass& p : passes) {
    (p.traced ? traced_scaled : pass_scaled).push_back(p.wall_s * host.Scale(p.interval));
    if (!p.traced) {
      raw_s += p.wall_s;
      scaled_s += p.wall_s * host.Scale(p.interval);
      report.interval_work_raw_s[p.interval] = p.wall_s;
    }
  }

  if (!args.trace) {
    std::vector<double> lat_raw, lat_scaled;
    std::vector<std::vector<double>> model_raw(nq), model_scaled(nq);
    for (const Call& c : calls) {
      const double s = host.Scale(c.interval);
      lat_raw.push_back(c.wall_s * 1e3);
      lat_scaled.push_back(c.wall_s * s * 1e3);
      model_raw[c.query].push_back(c.build_s + std::max(c.host_s, c.device_s));
      model_scaled[c.query].push_back(c.build_s * s + std::max(c.host_s * s, c.device_s));
    }
    double modelled_raw = 0, modelled_scaled = 0;
    for (std::size_t qi = 0; qi < nq; ++qi) {
      modelled_raw += Median(model_raw[qi]) * 1e3;
      modelled_scaled += Median(model_scaled[qi]) * 1e3;
    }
    // qps = requests / load seconds, as on serve-*: over ten runs it read a
    // spread of 0.030 where 9 / median pass read 0.046 (METRICS.md).
    const double n = static_cast<double>(calls.size());
    report.metrics = {
        Scaled("qps", "req/s", n / scaled_s, n / raw_s),
        FromPercentile("latency_ms_p50", NearestRank(lat_scaled, 0.50), NearestRank(lat_raw, 0.50)),
        FromPercentile("latency_ms_p99", NearestRank(lat_scaled, 0.99), NearestRank(lat_raw, 0.99)),
        Scaled("modelled_ms", "ms", modelled_scaled, modelled_raw),
        SetupMetric(host, slices),
        PeakRssMetric(slices),
    };
  } else {
    LayerMetrics l;
    std::vector<double> order, build, part, est, emu, share, per_partial, coverage;
    for (const Pass& p : passes) {
      if (!p.traced) continue;
      const double s = host.Scale(p.interval) * 1e3;
      order.push_back(p.layers.order_s * s);
      build.push_back(p.layers.build_s * s);
      part.push_back(p.layers.PartitionSelf() * s);
      est.push_back(p.layers.estimate_s * s);
      emu.push_back(p.layers.emu_s * s);
      share.push_back(p.layers.cpu_share_s * s);
      per_partial.push_back(p.layers.emu_s * s * 1e6 /
                            static_cast<double>(std::max<std::uint64_t>(p.partial_results, 1)));
      coverage.push_back(p.layers.SelfSum() / p.wall_s);
    }
    l.order_ms = Median(order);
    l.build_ms = Median(build);
    l.partition_ms = Median(part);
    l.estimate_ms = Median(est);
    l.kernel_emu_ms = Median(emu);
    l.cpu_share_ms = Median(share);
    l.emu_ns_per_partial = Median(per_partial);
    l.ref_ms = Median(host.refs_ms());
    l.trace_overhead_pct = (Median(traced_scaled) / Median(pass_scaled) - 1.0) * 100.0;
    report.metrics = LayerMetricList(l, CountPass(reference, cst_words));
    report.facts["self_time_coverage"] = Median(coverage);
    report.facts["traced_passes"] = static_cast<double>(traced_scaled.size());
  }
  report.facts["passes"] = static_cast<double>(pass_scaled.size());
  PrintReport(report, host, slices);
  return 0;
}

}  // namespace perfbench
