// bench_tenancy: aggregate throughput and per-tenant tail latency of the
// multi-graph tenant router (src/tenant/) under Zipf-skewed tenant traffic.
//
//   bench_tenancy [--sf 0.2] [--tenants 4] [--duration 2] [--clients 8]
//                 [--workers 0] [--queries 0,1,2] [--zipf-s 1.2] [--quota 16]
//                 [--max-p99-factor 50] [--json FILE]
//
// Three phases:
//   solo    each tenant alone on the shared pool (sequentially, full
//           workers, no contention) — the per-tenant baseline p99;
//   shared  ONE TenantRouter hosting all tenants behind one worker pool,
//           clients picking tenants Zipf(s)-skewed (tenant 0 hottest), with
//           per-tenant admission quotas and equal WRR weights;
//   split   N independent one-tenant TenantRouters, each with 1/N of the
//           workers and of the queue, same skewed traffic — what serving N
//           graphs costs without the shared pool.
//
// CI gates (exit 1): a tenant that completes zero queries in the shared
// phase (starvation — the WRR dequeue exists to prevent exactly this), or a
// coldest-tenant shared p99 more than --max-p99-factor times its solo p99
// (unbounded queueing behind the hot tenant). Plain binary (no
// google-benchmark), in the style of bench_service.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_serve_common.h"
#include "ldbc/ldbc.h"
#include "tenant/tenant_router.h"
#include "tools/flag_parser.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace fast;
using bench::ServeBenchFpgaConfig;
using tenant::RouterOptions;
using tenant::RouterStats;
using tenant::TenantOptions;
using tenant::TenantRouter;
using tenant::TenantStats;

std::string TenantId(std::size_t i) { return "t" + std::to_string(i); }

struct TenantOutcome {
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;  // queue_full + quota
  double traffic_share = 0;    // fraction of client picks
};

struct PhaseOutcome {
  double qps = 0;  // aggregate completed / elapsed
  std::vector<TenantOutcome> tenants;
};

// Runs `clients` closed-loop client threads for `duration_seconds`;
// pick_tenant maps a uniform draw to a tenant index and submit executes one
// request against that tenant, returning true when it completed OK.
template <typename SubmitFn>
double RunClients(std::size_t clients, double duration_seconds,
                  const std::vector<double>& cdf,
                  std::vector<std::uint64_t>* picks, SubmitFn submit) {
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> ready{0};
  std::vector<std::vector<std::uint64_t>> per_client_picks(
      clients, std::vector<std::uint64_t>(cdf.size(), 0));
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(0x7E4A47 + 1315423911u * c);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t t = SampleCdf(cdf, rng);
        ++per_client_picks[c][t];
        submit(t, rng);
      }
    });
  }
  while (ready.load() < clients) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  Timer wall;
  while (wall.ElapsedSeconds() < duration_seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  const double elapsed = wall.ElapsedSeconds();
  picks->assign(cdf.size(), 0);
  for (const auto& pc : per_client_picks) {
    for (std::size_t t = 0; t < pc.size(); ++t) (*picks)[t] += pc[t];
  }
  return elapsed;
}

TenantOutcome OutcomeFromTenantStats(const TenantStats& ts, double elapsed) {
  TenantOutcome o;
  o.qps = static_cast<double>(ts.completed) / elapsed;
  o.p50_ms = ts.latency.P50() * 1e3;
  o.p99_ms = ts.latency.P99() * 1e3;
  o.completed = ts.completed;
  o.rejected = ts.rejected_queue_full + ts.rejected_quota;
  return o;
}

// One tenant alone behind the full shared pool: its no-contention baseline.
PhaseOutcome RunSolo(const std::vector<Graph>& graphs,
                     const std::vector<QueryGraph>& mix,
                     const RouterOptions& router_options,
                     const TenantOptions& tenant_options, std::size_t clients,
                     double duration_seconds) {
  PhaseOutcome out;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    TenantRouter router(router_options);
    FAST_CHECK_OK(router.AddTenant(TenantId(i), graphs[i], tenant_options));
    const std::vector<double> cdf = {1.0};  // all traffic to this tenant
    std::vector<std::uint64_t> picks;
    const double elapsed =
        RunClients(clients, duration_seconds, cdf, &picks, [&](std::size_t, Rng& rng) {
          auto r = router.SubmitAndWait(TenantId(i), mix[rng.Uniform(mix.size())]);
          return r.ok();
        });
    auto ts = router.tenant_stats(TenantId(i));
    FAST_CHECK(ts.ok());
    TenantOutcome o = OutcomeFromTenantStats(*ts, elapsed);
    o.traffic_share = 1.0;
    out.tenants.push_back(o);
    out.qps += o.qps;
  }
  return out;
}

PhaseOutcome RunShared(const std::vector<Graph>& graphs,
                       const std::vector<QueryGraph>& mix,
                       const RouterOptions& router_options,
                       const TenantOptions& tenant_options,
                       const std::vector<double>& cdf, std::size_t clients,
                       double duration_seconds) {
  TenantRouter router(router_options);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    FAST_CHECK_OK(router.AddTenant(TenantId(i), graphs[i], tenant_options));
  }
  std::vector<std::uint64_t> picks;
  const double elapsed =
      RunClients(clients, duration_seconds, cdf, &picks, [&](std::size_t t, Rng& rng) {
        auto r = router.SubmitAndWait(TenantId(t), mix[rng.Uniform(mix.size())]);
        return r.ok();
      });

  const RouterStats stats = router.stats();
  PhaseOutcome out;
  std::uint64_t total_picks = 0;
  for (std::uint64_t p : picks) total_picks += p;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    // stats.tenants is sorted by id; with <= 10 tenants "t0".."t9" sorts in
    // index order, but look up by id to stay correct beyond that.
    const std::string id = TenantId(i);
    const auto it =
        std::find_if(stats.tenants.begin(), stats.tenants.end(),
                     [&](const TenantStats& ts) { return ts.id == id; });
    FAST_CHECK(it != stats.tenants.end());
    TenantOutcome o = OutcomeFromTenantStats(*it, elapsed);
    o.traffic_share = total_picks > 0
                          ? static_cast<double>(picks[i]) /
                                static_cast<double>(total_picks)
                          : 0.0;
    out.tenants.push_back(o);
    out.qps += o.qps;
  }
  return out;
}

// N independent one-tenant routers, each with its slice of the worker budget.
PhaseOutcome RunSplit(const std::vector<Graph>& graphs,
                      const std::vector<QueryGraph>& mix,
                      const RouterOptions& router_options,
                      std::size_t plan_cache_capacity,
                      const std::vector<double>& cdf, std::size_t clients,
                      double duration_seconds) {
  std::size_t total_workers = router_options.num_workers;
  if (total_workers == 0) {
    total_workers = std::max(1u, std::thread::hardware_concurrency());
  }
  RouterOptions options;
  options.num_workers = std::max<std::size_t>(1, total_workers / graphs.size());
  options.queue_capacity =
      std::max<std::size_t>(1, router_options.queue_capacity / graphs.size());
  options.default_deadline_seconds = router_options.default_deadline_seconds;
  options.run = router_options.run;
  options.metrics = router_options.metrics;
  TenantOptions topts;
  topts.plan_cache_capacity = plan_cache_capacity;

  std::vector<std::unique_ptr<TenantRouter>> services;
  services.reserve(graphs.size());
  for (const Graph& g : graphs) {
    services.push_back(std::make_unique<TenantRouter>(options));
    FAST_CHECK_OK(services.back()->AddTenant(service::SessionKey(), g, topts));
  }
  std::vector<std::uint64_t> picks;
  const double elapsed =
      RunClients(clients, duration_seconds, cdf, &picks, [&](std::size_t t, Rng& rng) {
        auto r = services[t]->SubmitAndWait(service::SessionKey(),
                                            mix[rng.Uniform(mix.size())]);
        return r.ok();
      });

  PhaseOutcome out;
  std::uint64_t total_picks = 0;
  for (std::uint64_t p : picks) total_picks += p;
  for (std::size_t i = 0; i < services.size(); ++i) {
    const auto stats = services[i]->stats();
    TenantOutcome o;
    o.qps = static_cast<double>(stats.completed) / elapsed;
    o.p50_ms = stats.latency.P50() * 1e3;
    o.p99_ms = stats.latency.P99() * 1e3;
    o.completed = stats.completed;
    o.rejected = stats.rejected_queue_full;
    o.traffic_share = total_picks > 0
                          ? static_cast<double>(picks[i]) /
                                static_cast<double>(total_picks)
                          : 0.0;
    out.tenants.push_back(o);
    out.qps += o.qps;
  }
  return out;
}

int Run(int argc, char** argv) {
  auto flags = tools::FlagParser::Parse(
      argc, argv,
      {"sf", "tenants", "duration", "clients", "workers", "queries", "zipf-s",
       "quota", "max-p99-factor", "json", "help"},
      /*bool_flags=*/{"help"});
  if (!flags.ok() || flags->Has("help")) {
    std::fprintf(
        stderr,
        "usage: bench_tenancy [--sf S] [--tenants N] [--duration SEC]\n"
        "                     [--clients N] [--workers N] [--queries I,J,...]\n"
        "                     [--zipf-s S] [--quota N] [--max-p99-factor F]\n"
        "                     [--json FILE]\n%s\n",
        flags.ok() ? "" : flags.status().ToString().c_str());
    return flags.ok() ? 0 : 2;
  }
  double sf, duration, zipf_s, max_p99_factor;
  std::size_t num_tenants, clients, workers, quota;
  FAST_FLAG_ASSIGN_OR_USAGE(sf, flags->GetDouble("sf", 0.2));
  FAST_FLAG_ASSIGN_OR_USAGE(duration, flags->GetDouble("duration", 2.0));
  FAST_FLAG_ASSIGN_OR_USAGE(zipf_s, flags->GetDouble("zipf-s", 1.2));
  FAST_FLAG_ASSIGN_OR_USAGE(max_p99_factor,
                            flags->GetDouble("max-p99-factor", 50.0));
  FAST_FLAG_ASSIGN_OR_USAGE(num_tenants, flags->GetSizeT("tenants", 4));
  FAST_FLAG_ASSIGN_OR_USAGE(clients, flags->GetSizeT("clients", 8));
  FAST_FLAG_ASSIGN_OR_USAGE(workers, flags->GetSizeT("workers", 0));
  FAST_FLAG_ASSIGN_OR_USAGE(quota, flags->GetSizeT("quota", 16));
  if (num_tenants == 0) {
    std::fprintf(stderr, "--tenants must be > 0\n");
    return 2;
  }

  auto mix_or = ParseLdbcQueryMix(flags->GetString("queries", "0,1,2"));
  if (!mix_or.ok()) {
    std::fprintf(stderr, "%s\n", mix_or.status().ToString().c_str());
    return 2;
  }
  const std::vector<QueryGraph> mix = std::move(*mix_or);
  if (mix.empty()) {
    std::fprintf(stderr, "--queries: no queries specified\n");
    return 2;
  }

  // One LDBC-like graph per tenant, seeded differently so the tenants carry
  // genuinely different data.
  std::vector<Graph> graphs;
  for (std::size_t i = 0; i < num_tenants; ++i) {
    LdbcConfig config;
    config.scale_factor = sf;
    config.seed = 42 + i;
    auto g = GenerateLdbcGraph(config);
    if (!g.ok()) {
      std::fprintf(stderr, "generate: %s\n", g.status().ToString().c_str());
      return 1;
    }
    graphs.push_back(std::move(*g));
  }
  std::printf("data: %zu tenants at sf=%g, e.g. %s\n", num_tenants, sf,
              graphs[0].Summary().c_str());

  obs::MetricsRegistry registry;
  RouterOptions router_options;
  router_options.num_workers = workers;
  router_options.queue_capacity = 512;
  router_options.run.fpga = ServeBenchFpgaConfig();
  router_options.metrics = &registry;
  TenantOptions tenant_options;
  tenant_options.plan_cache_capacity = 64;
  tenant_options.max_queued = quota;
  tenant_options.weight = 1;

  const std::vector<double> cdf = ZipfCdf(num_tenants, zipf_s);
  const double solo_duration = std::max(0.5, duration / 2.0);
  std::printf("mix: %zu queries, %zu clients, zipf s=%g, quota=%zu, "
              "%.1fs shared phase (%.1fs solo per tenant)\n\n",
              mix.size(), clients, zipf_s, quota, duration, solo_duration);

  const PhaseOutcome solo = RunSolo(graphs, mix, router_options, tenant_options,
                                    clients, solo_duration);
  const PhaseOutcome shared = RunShared(graphs, mix, router_options,
                                        tenant_options, cdf, clients, duration);
  const PhaseOutcome split =
      RunSplit(graphs, mix, router_options, tenant_options.plan_cache_capacity,
               cdf, clients, duration);

  std::printf("%-8s %8s %12s %12s %12s %12s %10s %10s\n", "tenant", "share",
              "solo p99", "shared p99", "p99 factor", "completed", "rejected",
              "qps");
  double coldest_factor = 0.0;
  for (std::size_t i = 0; i < num_tenants; ++i) {
    const double factor = solo.tenants[i].p99_ms > 0
                              ? shared.tenants[i].p99_ms / solo.tenants[i].p99_ms
                              : 0.0;
    if (i + 1 == num_tenants) coldest_factor = factor;
    std::printf("%-8s %7.1f%% %10.3fms %10.3fms %11.2fx %12llu %10llu %10.1f\n",
                TenantId(i).c_str(), shared.tenants[i].traffic_share * 100.0,
                solo.tenants[i].p99_ms, shared.tenants[i].p99_ms, factor,
                static_cast<unsigned long long>(shared.tenants[i].completed),
                static_cast<unsigned long long>(shared.tenants[i].rejected),
                shared.tenants[i].qps);
  }
  std::printf("\naggregate qps: shared router %.1f vs %zu split services %.1f "
              "(%.2fx)\n",
              shared.qps, num_tenants, split.qps,
              split.qps > 0 ? shared.qps / split.qps : 0.0);

  const std::string json = flags->GetString("json", "");
  if (!json.empty()) {
    bench::JsonWriter w;
    w.Field("bench", "bench_tenancy");
    w.Field("sf", sf);
    w.Field("tenants", static_cast<std::uint64_t>(num_tenants));
    w.Field("clients", static_cast<std::uint64_t>(clients));
    w.Field("duration_s", duration);
    w.Field("zipf_s", zipf_s);
    w.Field("quota", static_cast<std::uint64_t>(quota));
    w.Field("shared_qps", shared.qps);
    w.Field("split_qps", split.qps);
    w.Field("qps_ratio", split.qps > 0 ? shared.qps / split.qps : 0.0);
    w.Field("coldest_p99_factor", coldest_factor);
    w.BeginArray("per_tenant");
    for (std::size_t i = 0; i < num_tenants; ++i) {
      w.BeginObject();
      w.Field("id", TenantId(i));
      w.Field("traffic_share", shared.tenants[i].traffic_share);
      w.Field("solo_p99_ms", solo.tenants[i].p99_ms);
      w.Field("shared_p99_ms", shared.tenants[i].p99_ms);
      w.Field("split_p99_ms", split.tenants[i].p99_ms);
      w.Field("completed", shared.tenants[i].completed);
      w.Field("rejected", shared.tenants[i].rejected);
      w.EndObject();
    }
    w.EndArray();
    bench::EmbedBuildInfo(w);
    bench::EmbedMetrics(w, registry);
    bench::WriteJsonFile(json, w.Finish());
  }

  // CI gates.
  int rc = 0;
  for (std::size_t i = 0; i < num_tenants; ++i) {
    if (solo.tenants[i].completed == 0) {
      std::fprintf(stderr, "FAIL: tenant %s completed zero queries solo\n",
                   TenantId(i).c_str());
      rc = 1;
    }
    if (shared.tenants[i].completed == 0) {
      std::fprintf(stderr,
                   "FAIL: tenant %s completed zero queries under shared load "
                   "(starved)\n",
                   TenantId(i).c_str());
      rc = 1;
    }
  }
  if (rc == 0 && coldest_factor > max_p99_factor) {
    std::fprintf(stderr,
                 "FAIL: coldest tenant p99 %.2fx its solo p99 (bound %.1fx)\n",
                 coldest_factor, max_p99_factor);
    rc = 1;
  }
  if (rc == 0) {
    std::printf("OK: all %zu tenants served; coldest p99 factor %.2fx "
                "(bound %.1fx)\n",
                num_tenants, coldest_factor, max_p99_factor);
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
