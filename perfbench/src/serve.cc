// Workloads `serve-hot` and `serve-churn`: closed-loop clients issue whole
// seeded passes over relabelled q0-q8 through service::Frontend into one
// tenant of a tenant::TenantRouter; counters come from the metrics registry.
//
//   serve-hot    inline tenant, plan cache warmed: every request is a hit
//                (admission, queue, plan lookup, CST image decode, remap,
//                hit-path match).
//   serve-churn  device-mode tenant plus a writer that alternates a fixed
//                edge-churn delta with its exact inverse through ApplyDelta,
//                so only two graph states exist (rebuild, invalidation, CST
//                rebuild on misses, batching on the device thread). The
//                writer publishes one delta at the start of every round but
//                a slice's first: client 0 waits for it (it reads its own
//                write), the other clients query concurrently with the
//                rebuild.
//
// Every slice starts a fresh router (the repeated set-up), so no state and
// no memory carries from one slice to the next.

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "bench.h"
#include "graph/graph_delta.h"
#include "layers.h"
#include "ldbc/ldbc.h"
#include "obs/metrics.h"
#include "recompose.h"
#include "service/query_signature.h"
#include "tenant/tenant_router.h"
#include "util/rng.h"
#include "util/timer.h"

namespace perfbench {
namespace {

constexpr double kScaleFactor = 1.0;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kClients = 2;
constexpr std::size_t kVariants = 4;      // relabellings per query
constexpr std::size_t kChurnEdges = 200;  // edges added and removed per delta
constexpr std::size_t kPassesPerRound = 2;  // per client, between marks
const char* const kTenant = "t";

struct Sample {
  std::size_t interval = 0;
  int query = 0;
  int state = 0;  // 0 = base graph, 1 = base + delta
  double wall_s = 0;
  fast::FastRunResult run;
  bool traced = false;
  bool cache_hit = false;
  double queue_s = 0, plan_lookup_s = 0, cst_build_s = 0, remap_s = 0;
  double device_wait_s = 0, unattributed_s = 0;
};

// One round: every client runs kPassesPerRound passes; a reference mark
// follows it.
struct Round {
  std::size_t interval = 0;
  double seconds = 0;
  std::uint64_t completions = 0;
  bool traced = false;
};

struct SliceLoad {
  std::uint64_t completions = 0;
  bool traced = false;
  // Registry deltas over the load (warm-up excluded).
  double hits = 0, misses = 0, invalidations = 0, swaps = 0;
  double device_rounds = 0, device_items = 0;
  LayerTimes shadow;  // traced slices: one re-composed pass
  std::size_t shadow_interval = 0;
  std::uint64_t shadow_partials = 0;
};

struct DeltaApply {
  std::size_t interval = 0;
  double seconds = 0;
  bool traced = false;
};

fast::QueryGraph Relabel(const fast::QueryGraph& q, const std::vector<int>& perm) {
  const fast::Graph& g = q.graph();
  std::vector<fast::Label> labels(g.NumVertices());
  for (fast::VertexId u = 0; u < g.NumVertices(); ++u) labels[perm[u]] = g.label(u);
  fast::GraphBuilder b(labels.size());
  for (fast::Label l : labels) b.AddVertex(l);
  for (fast::VertexId u = 0; u < g.NumVertices(); ++u) {
    for (fast::VertexId w : g.neighbors(u)) {
      if (u < w) {
        const fast::Label el = g.has_edge_labels() ? g.EdgeLabelBetween(u, w) : 0;
        if (!b.AddEdge(perm[u], perm[w], el).ok()) Fail("relabel " + q.name());
      }
    }
  }
  fast::StatusOr<fast::Graph> built = b.Build();
  if (!built.ok()) Fail("relabel " + q.name());
  fast::StatusOr<fast::QueryGraph> out = fast::QueryGraph::Create(std::move(*built), q.name());
  if (!out.ok()) Fail("relabel " + q.name());
  return std::move(*out);
}

// A RandomChurnDelta reduced to edges that really change (absent adds,
// present removes, no duplicates), so that Inverse() undoes it exactly.
fast::GraphDelta ExactChurnDelta(const fast::Graph& base, std::uint64_t seed) {
  fast::Rng rng(seed);
  const fast::GraphDelta raw = fast::RandomChurnDelta(base, kChurnEdges, rng);
  fast::GraphDelta d;
  std::set<std::pair<fast::VertexId, fast::VertexId>> seen;
  for (const fast::GraphDelta::EdgeAdd& e : raw.add_edges) {
    const auto key = std::minmax(e.u, e.v);
    if (!base.HasEdge(e.u, e.v) && seen.insert(key).second) d.add_edges.push_back(e);
  }
  for (const auto& [u, v] : raw.remove_edges) {
    if (base.HasEdge(u, v) && seen.insert(std::minmax(u, v)).second) {
      d.remove_edges.emplace_back(u, v);
    }
  }
  return d;
}

fast::GraphDelta Inverse(const fast::Graph& base, const fast::GraphDelta& d) {
  fast::GraphDelta inv;
  for (const fast::GraphDelta::EdgeAdd& e : d.add_edges) inv.remove_edges.emplace_back(e.u, e.v);
  for (const auto& [u, v] : d.remove_edges) {
    const fast::Label l = base.has_edge_labels() ? base.EdgeLabelBetween(u, v) : 0;
    inv.add_edges.push_back({u, v, l});
  }
  return inv;
}

fast::Graph Apply(const fast::Graph& g, const fast::GraphDelta& d) {
  fast::StatusOr<fast::Graph> out = fast::ApplyDelta(g, d);
  if (!out.ok()) Fail("ApplyDelta: " + out.status().ToString());
  return std::move(*out);
}

double CounterValue(fast::obs::MetricsRegistry& registry, const char* name) {
  return static_cast<double>(registry.GetCounter(name)->Value());
}

struct RegistryReading {
  double hits, misses, invalidations, swaps, rounds, items;
};

RegistryReading Read(fast::obs::MetricsRegistry& r) {
  return {CounterValue(r, "fast_plan_cache_hits_total"),
          CounterValue(r, "fast_plan_cache_misses_total"),
          CounterValue(r, "fast_plan_cache_invalidations_total"),
          CounterValue(r, "fast_graph_swaps_total"),
          CounterValue(r, "fast_device_rounds_total"),
          CounterValue(r, "fast_device_items_total")};
}

std::vector<double> Pick(const std::vector<Sample>& samples, const Host& host, double unit,
                         double Sample::*field, bool hits_only = false) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (!s.traced || (hits_only && !s.cache_hit)) continue;
    out.push_back(s.*field * host.Scale(s.interval) * unit);
  }
  return out;
}

}  // namespace

int RunServe(const Args& args, bool churn) {
  Host host(PinProcess(churn ? 3 : 2));
  PrintProvenance(args, host.cpus());

  const std::vector<fast::QueryGraph> queries = fast::AllLdbcQueries();
  const std::size_t nq = queries.size();
  std::vector<std::vector<fast::QueryGraph>> variants(nq);
  std::vector<fast::service::CanonicalQuery> canonical;
  for (std::size_t qi = 0; qi < nq; ++qi) {
    for (std::size_t k = 0; k < kVariants; ++k) {
      variants[qi].push_back(Relabel(
          queries[qi], Permutation(queries[qi].NumVertices(), SubSeed(args.seed, 100 + qi, k))));
    }
    fast::StatusOr<fast::service::CanonicalQuery> c = fast::service::CanonicalizeQuery(queries[qi]);
    if (!c.ok()) Fail("canonicalize " + queries[qi].name());
    canonical.push_back(std::move(*c));
  }

  // The two graph states. Inverse(delta) must restore the base exactly.
  std::vector<fast::Graph> states;
  states.push_back(MakeLdbcGraph(kScaleFactor));
  fast::GraphDelta delta, inverse;
  if (churn) {
    delta = ExactChurnDelta(states[0], SubSeed(args.seed, 200, 0));
    inverse = Inverse(states[0], delta);
    states.push_back(Apply(states[0], delta));
    if (GraphFingerprint(Apply(states[1], inverse)) != GraphFingerprint(states[0])) {
      Fail("the churn delta's inverse does not restore the base graph");
    }
  }
  const std::uint64_t base_fingerprint = GraphFingerprint(states[0]);

  fast::tenant::RouterOptions options;
  options.num_workers = kWorkers;
  options.device_mode = churn;
  options.run.variant = fast::FastVariant::kSep;
  // Back-pressure on the device queue: partitions stream no further ahead
  // of the device than this, which bounds (and steadies) the memory a
  // request's queued partitions hold.
  options.device.max_queued_items = 64;

  std::unique_ptr<fast::obs::MetricsRegistry> registry;
  std::unique_ptr<fast::tenant::TenantRouter> router;
  std::vector<Sample> samples;
  std::vector<SliceLoad> loads(kSlices);
  std::vector<Round> rounds;
  std::vector<DeltaApply> applies;
  // The first result seen per (state, query); every later one must match.
  std::vector<std::vector<std::optional<fast::FastRunResult>>> exact(
      states.size(), std::vector<std::optional<fast::FastRunResult>>(nq));
  std::vector<std::size_t> cst_words(nq, 0);
  Report report;

  const auto state_of = [&](std::uint64_t epoch) { return churn ? int((epoch + 1) % 2) : 0; };
  const auto record_exact = [&](int state, int qi, const fast::FastRunResult& r) {
    std::optional<fast::FastRunResult>& first = exact[state][qi];
    if (!first.has_value()) {
      first = r;
      return;
    }
    const std::string diff = Mismatch(r, *first, /*pricing=*/!churn);
    if (!diff.empty()) {
      Fail("q" + std::to_string(qi) + " state " + std::to_string(state) +
           ": results disagree on " + diff);
    }
  };

  SliceHooks hooks;
  hooks.setup = [&](std::size_t slice) {
    loads[slice].traced = args.trace && slice % 2 == 0;
    registry = std::make_unique<fast::obs::MetricsRegistry>();
    options.metrics = registry.get();
    options.tracing = loads[slice].traced;
    router = std::make_unique<fast::tenant::TenantRouter>(options);
    fast::Status added = router->AddTenant(kTenant, MakeLdbcGraph(kScaleFactor));
    if (!added.ok()) Fail("AddTenant: " + added.ToString());
    fast::service::Frontend& frontend = *router;
    for (const fast::QueryGraph& q : queries) {
      fast::StatusOr<fast::service::RequestResult> r = frontend.SubmitAndWait(kTenant, q);
      if (!r.ok()) Fail("warm-up " + q.name() + ": " + r.status().ToString());
    }
  };
  hooks.load = [&](std::size_t slice, double seconds) {
    SliceLoad& load = loads[slice];
    const RegistryReading warm = Read(*registry);
    fast::service::Frontend& frontend = *router;
    std::mutex mu;  // guards samples, applies, report counters, completions
    std::condition_variable published;
    std::uint64_t completions = 0;
    // Deltas alternate with their inverse, so the graph only ever takes two
    // states: even epochs are the churned one.
    std::uint64_t expect_epoch = 2;

    const fast::Timer slice_timer;
    for (std::uint64_t round = 0; round == 0 || slice_timer.ElapsedSeconds() < seconds; ++round) {
      Round rd;
      rd.interval = host.interval();
      rd.traced = load.traced;
      const std::uint64_t round_start = completions;
      const bool apply_delta = churn && round > 0;
      bool delta_published = !apply_delta;
      const auto client = [&](std::size_t c) {
        if (c == 0) {
          std::unique_lock<std::mutex> lock(mu);
          published.wait(lock, [&] { return delta_published; });
        }
        for (std::size_t p = 0; p < kPassesPerRound; ++p) {
          // Every client runs the same pass order, so concurrent requests
          // are alike and the latency mix is stationary; each submits its
          // own relabelling.
          const std::uint64_t pass_seed = SubSeed(args.seed, slice * 1000 + round, p);
          for (int qi : Permutation(nq, pass_seed)) {
            const fast::QueryGraph& q =
                variants[qi][SubSeed(pass_seed, 300 + c, qi) % kVariants];
            const fast::Timer call_timer;
            fast::StatusOr<fast::service::RequestResult> r = frontend.SubmitAndWait(kTenant, q);
            const double wall = call_timer.ElapsedSeconds();
            std::lock_guard<std::mutex> lock(mu);
            ++report.attempted;
            if (!r.ok()) {
              ++report.failed;
              continue;
            }
            Sample s;
            s.interval = rd.interval;
            s.query = qi;
            s.state = state_of(r->graph_epoch);
            s.wall_s = wall;
            s.run = r->run;
            s.cache_hit = r->cache_hit;
            if (r->trace != nullptr) {
              using fast::obs::Span;
              const fast::obs::CompletedTrace& t = *r->trace;
              s.traced = true;
              s.queue_s = t.SpanSeconds(Span::kQueue);
              s.plan_lookup_s = t.SpanSeconds(Span::kPlanLookup);
              s.cst_build_s = t.SpanSeconds(Span::kCstBuild);
              s.remap_s = t.SpanSeconds(Span::kRemap);
              s.device_wait_s = t.SpanSeconds(Span::kDeviceWait);
              s.unattributed_s = t.total_seconds - t.WallSpanSeconds();
            }
            record_exact(s.state, qi, s.run);
            samples.push_back(std::move(s));
            ++completions;
          }
        }
      };
      const auto writer = [&] {
        const fast::Timer apply_timer;
        fast::StatusOr<std::uint64_t> epoch =
            router->ApplyDelta(kTenant, expect_epoch % 2 == 0 ? delta : inverse);
        const double apply_s = apply_timer.ElapsedSeconds();
        if (!epoch.ok() || *epoch != expect_epoch) Fail("ApplyDelta did not publish in order");
        {
          std::lock_guard<std::mutex> lock(mu);
          applies.push_back({rd.interval, apply_s, rd.traced});
          ++expect_epoch;
          delta_published = true;
        }
        published.notify_all();
      };

      const fast::Timer round_timer;
      std::vector<std::thread> threads;
      if (apply_delta) threads.emplace_back(writer);
      for (std::size_t c = 0; c < kClients; ++c) threads.emplace_back(client, c);
      for (std::thread& t : threads) t.join();
      rd.seconds = round_timer.ElapsedSeconds();
      rd.completions = completions - round_start;
      rounds.push_back(rd);
      host.Mark();
    }
    load.completions = completions;

    const RegistryReading end = Read(*registry);
    load.hits = end.hits - warm.hits;
    load.misses = end.misses - warm.misses;
    load.invalidations = end.invalidations - warm.invalidations;
    load.swaps = end.swaps - warm.swaps;
    load.device_rounds = end.rounds - warm.rounds;
    load.device_items = end.items - warm.items;

    if (load.traced) {
      // Shadow pass: the same plans re-composed on the served snapshot, to
      // split the match into partitioning, estimation and kernel emulation.
      fast::StatusOr<fast::service::GraphSnapshot> snap = router->snapshot(kTenant);
      if (!snap.ok()) Fail("snapshot: " + snap.status().ToString());
      const int state = state_of(snap->epoch);
      load.shadow_interval = host.interval();
      for (std::size_t qi = 0; qi < nq; ++qi) {
        const Recomposed rc = Recompose(canonical[qi].query, *snap->graph, options.run);
        cst_words[qi] = rc.cst_words;
        load.shadow += rc.t;
        load.shadow_partials += rc.run.counters.partial_results;
        record_exact(state, static_cast<int>(qi), rc.run);
      }
    }
  };
  hooks.teardown = [&](std::size_t) {
    fast::StatusOr<fast::service::GraphSnapshot> snap = router->snapshot(kTenant);
    if (!snap.ok()) Fail("snapshot: " + snap.status().ToString());
    if (GraphFingerprint(*snap->graph) != GraphFingerprint(states[state_of(snap->epoch)])) {
      Fail("served graph is neither of the two expected states");
    }
    router->Shutdown();
    router.reset();
    registry.reset();
  };

  const std::vector<SliceRecord> slices = RunSlices(host, args.seconds, hooks);

  // Correctness gate: every answer matched the first answer for its (state,
  // query) exactly (record_exact); each of those is re-counted with CFL on
  // that state's graph, once.
  if (GraphFingerprint(MakeLdbcGraph(kScaleFactor)) != base_fingerprint) {
    Fail("graph generation is not deterministic");
  }
  std::vector<fast::FastRunResult> base_results;
  for (std::size_t st = 0; st < states.size(); ++st) {
    for (std::size_t qi = 0; qi < nq; ++qi) {
      if (!exact[st][qi].has_value()) {
        if (st == 0) Fail("q" + std::to_string(qi) + " was never answered");
        continue;  // no request ran against this (state, query)
      }
      const std::uint64_t want = BaselineCount(queries[qi], states[st], args.wrong_reference);
      if (exact[st][qi]->embeddings != want) {
        Fail("q" + std::to_string(qi) + " state " + std::to_string(st) + ": FAST counted " +
             std::to_string(exact[st][qi]->embeddings) + ", CFL " + std::to_string(want));
      }
      AddExactCounts(st == 0 ? "base." : "churned.", qi, *exact[st][qi], &report.exact);
      if (st == 0) base_results.push_back(*exact[st][qi]);
    }
  }

  // qps = completions / load seconds, over the untraced rounds (and, for the
  // trace overhead, the traced ones).
  double done = 0, raw_s = 0, scaled_s = 0, traced_done = 0, traced_s = 0;
  report.interval_work_raw_s.assign(host.refs_ms().size(), 0.0);
  for (const Round& rd : rounds) {
    const double c = static_cast<double>(rd.completions);
    const double s = rd.seconds * host.Scale(rd.interval);
    if (rd.traced) {
      traced_done += c;
      traced_s += s;
    } else {
      done += c;
      raw_s += rd.seconds;
      scaled_s += s;
    }
    report.interval_work_raw_s[rd.interval] = rd.seconds / c;
  }

  if (!args.trace) {
    std::vector<double> lat_raw, lat_scaled, model_raw, model_scaled;
    for (const Sample& s : samples) {
      const double k = host.Scale(s.interval);
      const fast::FastRunResult& r = s.run;
      const double host_s = r.partition_seconds + r.cpu_share_seconds;
      const double device_s = r.pcie_seconds + r.kernel_seconds;
      lat_raw.push_back(s.wall_s * 1e3);
      lat_scaled.push_back(s.wall_s * k * 1e3);
      model_raw.push_back((r.build_seconds + std::max(host_s, device_s)) * 1e3);
      model_scaled.push_back((r.build_seconds * k + std::max(host_s * k, device_s)) * 1e3);
    }
    report.metrics = {
        Scaled("qps", "req/s", done / scaled_s, done / raw_s),
        FromPercentile("latency_ms_p50", NearestRank(lat_scaled, 0.50), NearestRank(lat_raw, 0.50)),
        FromPercentile("latency_ms_p99", NearestRank(lat_scaled, 0.99), NearestRank(lat_raw, 0.99)),
        Scaled("modelled_ms", "ms", Mean(model_scaled), Mean(model_raw)),
        SetupMetric(host, slices),
        PeakRssMetric(slices),
    };
  } else {
    LayerMetrics l;
    double passes = 0, hits = 0, misses = 0, invalidations = 0, swaps = 0;
    double device_rounds = 0, items = 0;
    LayerTimes shadow;
    std::size_t shadow_passes = 0;
    std::vector<double> per_partial;
    for (std::size_t i = 0; i < kSlices; ++i) {
      const SliceLoad& ld = loads[i];
      if (!ld.traced) continue;
      passes += static_cast<double>(ld.completions) / static_cast<double>(nq);
      hits += ld.hits;
      misses += ld.misses;
      invalidations += ld.invalidations;
      swaps += ld.swaps;
      device_rounds += ld.device_rounds;
      items += ld.device_items;
      LayerTimes t = ld.shadow;
      for (double* v : {&t.order_s, &t.build_s, &t.partition_span_s, &t.estimate_s, &t.emu_s,
                        &t.cpu_share_s}) {
        *v *= host.Scale(ld.shadow_interval);
      }
      shadow += t;
      ++shadow_passes;
      per_partial.push_back(t.emu_s * 1e9 /
                            static_cast<double>(std::max<std::uint64_t>(ld.shadow_partials, 1)));
    }
    double build_s = 0, order_s = 0;
    for (const Sample& s : samples) {
      if (!s.traced || s.cache_hit) continue;
      build_s += s.run.build_seconds * host.Scale(s.interval);
      order_s += (s.cst_build_s - s.run.build_seconds) * host.Scale(s.interval);
    }
    const double sp = std::max<double>(static_cast<double>(shadow_passes), 1.0);
    l.order_ms = order_s * 1e3 / passes;
    l.build_ms = build_s * 1e3 / passes;
    l.partition_ms = shadow.PartitionSelf() * 1e3 / sp;
    l.estimate_ms = shadow.estimate_s * 1e3 / sp;
    l.kernel_emu_ms = shadow.emu_s * 1e3 / sp;
    l.cpu_share_ms = shadow.cpu_share_s * 1e3 / sp;
    l.emu_ns_per_partial = Median(per_partial);
    l.decode_us_p50 = Median(Pick(samples, host, 1e6, &Sample::cst_build_s, true));
    l.queue_ms_p50 = Median(Pick(samples, host, 1e3, &Sample::queue_s));
    l.plan_lookup_us_p50 = Median(Pick(samples, host, 1e6, &Sample::plan_lookup_s));
    l.remap_us_p50 = Median(Pick(samples, host, 1e6, &Sample::remap_s));
    l.unattributed_us_p50 = Median(Pick(samples, host, 1e6, &Sample::unattributed_s));
    l.hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    l.invalidations = invalidations / passes;
    l.swaps = swaps / passes;
    std::vector<double> apply_scaled;
    for (const DeltaApply& a : applies) {
      if (a.traced) apply_scaled.push_back(a.seconds * host.Scale(a.interval) * 1e3);
    }
    l.apply_delta_ms_p50 = Median(apply_scaled);
    if (churn) l.device_wait_ms_p50 = Median(Pick(samples, host, 1e3, &Sample::device_wait_s));
    l.device_rounds = device_rounds / passes;
    l.items_per_round = device_rounds > 0 ? items / device_rounds : 0.0;
    l.ref_ms = Median(host.refs_ms());
    l.trace_overhead_pct = ((done / scaled_s) / (traced_done / traced_s) - 1.0) * 100.0;

    // Simulated pricing per pass: the mean per query on the base state (in
    // device mode it depends on which round-mates shared a transfer).
    std::vector<double> kernel(nq, 0), pcie(nq, 0), dma(nq, 0), n(nq, 0);
    for (const Sample& s : samples) {
      if (s.state != 0) continue;
      kernel[s.query] += s.run.kernel_seconds;
      pcie[s.query] += s.run.pcie_seconds;
      dma[s.query] += static_cast<double>(s.run.dma_bytes);
      n[s.query] += 1;
    }
    PassCounts counts = CountPass(base_results, cst_words);
    counts.kernel_sim_ms = counts.pcie_sim_ms = counts.dma_bytes = 0;
    for (std::size_t qi = 0; qi < nq; ++qi) {
      if (n[qi] == 0) continue;
      counts.kernel_sim_ms += kernel[qi] / n[qi] * 1e3;
      counts.pcie_sim_ms += pcie[qi] / n[qi] * 1e3;
      counts.dma_bytes += dma[qi] / n[qi];
    }
    report.metrics = LayerMetricList(l, counts);
    report.facts["traced_passes"] = passes;
  }
  report.facts["completions"] = static_cast<double>(samples.size());
  report.facts["graph_deltas"] = static_cast<double>(applies.size());
  PrintReport(report, host, slices);
  return 0;
}

}  // namespace perfbench
