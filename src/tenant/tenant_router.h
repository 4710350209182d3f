#ifndef FAST_TENANT_TENANT_ROUTER_H_
#define FAST_TENANT_TENANT_ROUTER_H_

// Multi-graph tenancy: many data graphs served by ONE worker pool.
//
//                         ┌────────────────────────────────────────┐
//   Submit(tenant, q) ──▶ │ registry: tenant id ─▶ GraphState      │
//          │              │   (epoch snapshot + plan/CST cache)    │
//     admission:          └────────────────────────────────────────┘
//     global bound +                        │
//     per-tenant quota     per-tenant FIFO queues (one per tenant)
//          │                                │
//          └──────▶ weighted round-robin dequeue ──▶ shared workers
//                                                         │
//                                    capture THAT tenant's snapshot,
//                                    execute, per-tenant p50/p99 stats
//
// TenantRouter hosts N graphs in one process: a registry of tenants (each a
// GraphState — an epoch-snapshotted graph + epoch-tagged plan cache, see
// service/graph_state.h) in front of a single shared worker pool. Requests
// carry a tenant id; dispatch captures that tenant's current snapshot, so
// per-tenant SwapGraph/ApplyDelta keep working independently and a swap on
// tenant A is invisible to tenant B. A single-graph server is the N = 1
// case: one tenant registered under the default service::SessionKey().
//
// Admission and fairness:
//   - a process-wide bound on the total queued requests (global admission
//     control — RESOURCE_EXHAUSTED when the process is saturated);
//   - an optional per-tenant quota on queued requests, so one hot tenant
//     cannot occupy the whole global queue;
//   - deficit-style weighted round-robin dequeue: workers serve up to
//     `weight` consecutive requests per tenant per cycle over the backlogged
//     tenants, so dispatch slots — not queue arrival order — are what a
//     tenant's weight buys. A hot tenant saturating its queue cannot starve
//     a cold one.
//
// Tenants can be added and removed at runtime. RemoveTenant stops new
// admissions immediately and then drains: requests already queued or
// dispatched finish normally on the snapshots they capture (the removed
// tenant's state stays alive via shared_ptr until the last request drops
// it); RemoveTenant returns once the tenant has no queued or in-flight work.
//
// Admission never blocks: a full queue or quota rejects the Submit with
// RESOURCE_EXHAUSTED. Deadlines are checked at dispatch (a request whose
// deadline passed while queued completes with DEADLINE_EXCEEDED without
// running) and enforced mid-run via a cooperative cancellation token armed
// with the remaining deadline (util/cancel.h).

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/driver.h"
#include "device/device_executor.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "obs/metrics.h"
#include "obs/request_obs.h"
#include "obs/slo.h"
#include "query/query_graph.h"
#include "service/frontend.h"
#include "service/graph_state.h"
#include "util/latency_histogram.h"
#include "util/profiled_mutex.h"
#include "util/status.h"
#include "util/timer.h"

namespace fast::tenant {

using service::GraphSnapshot;
using service::RequestOptions;
using service::RequestResult;

// Per-tenant knobs: the tenant graph's plan-cache budget, admission quota
// and WRR weight. Non-aggregate on purpose — positional brace-initialization
// silently mis-assigning fields across a refactor is a compile error here;
// set fields by name.
struct TenantOptions {
  TenantOptions() = default;

  // Plan/CST cache entries; 0 disables caching.
  std::size_t plan_cache_capacity = 64;

  // Byte bound on the summed serialized-CST cache images; 0 = entries-only.
  std::size_t plan_cache_byte_budget = 0;

  // Per-tenant admission quota: max requests queued (not yet dispatched)
  // for this tenant. 0 = bounded only by the global queue capacity.
  std::size_t max_queued = 0;

  // Weighted round-robin weight: consecutive dispatch slots this tenant
  // gets per cycle over the backlogged tenants. 0 is treated as 1. In
  // device mode this doubles as the tenant's device-round weight.
  std::uint32_t weight = 1;
};
static_assert(!std::is_aggregate_v<TenantOptions>,
              "TenantOptions must not be positionally brace-initializable");

// The shared pool, queue, pipeline and observability knobs; per-graph knobs
// live in TenantOptions. Non-aggregate on purpose, like TenantOptions.
struct RouterOptions {
  RouterOptions() = default;

  // Worker threads executing the pipeline; 0 = hardware concurrency.
  std::size_t num_workers = 0;

  // Bound on the total queued requests across all tenants; admission beyond
  // it rejects the Submit with RESOURCE_EXHAUSTED.
  std::size_t queue_capacity = 256;

  // Default per-request deadline in seconds; 0 = no deadline.
  double default_deadline_seconds = 0.0;

  // Base pipeline configuration (variant, device model, cpu-share δ, order
  // policy). Per-request fields override its store_limit/embedding_callback.
  FastRunOptions run;

  // Shared-device mode (device/device_executor.h): each request runs the
  // pipeline on a device session, so its CST partitions become work items on
  // ONE executor, which batches items from concurrent requests (and tenants)
  // into shared device rounds. The executor simulates run.fpga under
  // run.variant; the router zeroes run.cpu_share_delta (the device owns every
  // partition). Each tenant's WRR weight doubles as its device-round weight.
  bool device_mode = false;
  device::DeviceOptions device;

  // ---- Observability (src/obs/). ----
  // Process-wide metrics registry every component reports into. Non-owning;
  // must outlive the router. nullptr = registry metrics off.
  obs::MetricsRegistry* metrics = nullptr;
  // Per-request span tracing (obs/trace.h).
  bool tracing = true;
  // Requests slower than this are FAST_LOG(WARNING)-ed with their span
  // breakdown and retained in the slow-trace ring. 0 disables.
  double slow_request_seconds = 0.0;
  // Capacity of the recent-trace ring (the slow ring uses the same).
  std::size_t trace_ring_capacity = 256;
  // Per-tenant SLO objectives (obs/slo.h): a request is good when it
  // finishes OK within slo.latency_objective_seconds; multi-window burn
  // rates per tenant, breach/recovery counters in the registry.
  // latency_objective_seconds == 0 leaves the engine off.
  obs::SloOptions slo;
  // Flight recorder for SLO breaches (obs/slo.h): one bounded, rate-limited
  // JSON dump (registry snapshot + trace rings + account table) per breach.
  // An empty dir leaves it off.
  obs::FlightRecorderOptions flight;
};
static_assert(!std::is_aggregate_v<RouterOptions>,
              "RouterOptions must not be positionally brace-initializable");

struct TenantStats {
  std::string id;
  std::uint32_t weight = 1;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected_queue_full = 0;  // global queue was full
  std::uint64_t rejected_quota = 0;       // per-tenant quota exceeded
  std::uint64_t rejected_deadline = 0;    // deadline passed while queued
  std::uint64_t cancelled_midrun = 0;     // deadline tripped during the run
  std::uint64_t epoch = 0;
  std::uint64_t graph_swaps = 0;
  service::PlanCacheStats cache;
  LatencyHistogram latency;  // Submit -> completion, successful requests
};

struct RouterStats {
  std::size_t num_tenants = 0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_quota = 0;
  std::uint64_t rejected_deadline = 0;
  std::uint64_t cancelled_midrun = 0;
  LatencyHistogram latency;  // aggregate over all tenants
  double uptime_seconds = 0.0;
  bool device_mode = false;
  device::DeviceStats device;  // zero unless device_mode
  std::vector<TenantStats> tenants;  // sorted by tenant id

  double QueriesPerSecond() const {
    return uptime_seconds > 0.0 ? static_cast<double>(completed) / uptime_seconds
                                : 0.0;
  }
  std::string Summary() const;
};

class TenantRouter : public service::Frontend {
 public:
  using RequestId = service::Frontend::RequestId;

  // Workers start immediately; tenants are added afterwards (or at any
  // later point).
  explicit TenantRouter(RouterOptions options = {});
  ~TenantRouter() override;

  TenantRouter(const TenantRouter&) = delete;
  TenantRouter& operator=(const TenantRouter&) = delete;

  // Registers `id` serving `graph` (published as that tenant's epoch 1).
  // ALREADY_EXISTS is reported as INVALID_ARGUMENT; FAILED_PRECONDITION
  // after Shutdown.
  Status AddTenant(const std::string& id, Graph graph, TenantOptions opts = {});

  // Deregisters `id`: new Submits fail with NOT_FOUND immediately; requests
  // already admitted drain normally on their captured snapshots. Blocks
  // until the tenant has no queued or in-flight requests. The tenant's
  // stats are discarded with it.
  Status RemoveTenant(const std::string& id);

  // Frontend: the session key is the tenant id. Canonicalizes q and
  // enqueues it for that tenant. NOT_FOUND for an unknown tenant,
  // RESOURCE_EXHAUSTED when the global queue or the tenant's quota is full,
  // INVALID_ARGUMENT for malformed queries, FAILED_PRECONDITION after
  // Shutdown.
  StatusOr<RequestId> Submit(const service::SessionKey& tenant_id,
                             const QueryGraph& q,
                             RequestOptions opts = {}) override;

  // Blocks until the request completes. NOT_FOUND (outer status) for
  // unknown, already-waited, or callback-mode ids.
  StatusOr<RequestResult> Wait(RequestId id) override;

  // SubmitAndWait(tenant_id, q, opts) is inherited: the Status covers both
  // admission and execution.

  // Per-tenant snapshot publication; other tenants' queries and caches are
  // unaffected. NOT_FOUND for unknown tenants.
  StatusOr<std::uint64_t> SwapGraph(const std::string& tenant_id, Graph next);
  StatusOr<std::uint64_t> ApplyDelta(const std::string& tenant_id,
                                     const GraphDelta& delta);

  // The tenant's currently published snapshot.
  StatusOr<GraphSnapshot> snapshot(const std::string& tenant_id) const;

  // Stops admission, drains all queued requests, joins workers. Idempotent;
  // also run by the destructor.
  void Shutdown() override;

  RouterStats stats() const;
  StatusOr<TenantStats> tenant_stats(const std::string& tenant_id) const;
  std::vector<std::string> tenant_ids() const;
  std::size_t num_workers() const { return workers_.size(); }

  // Requests queued but not yet dispatched, across all tenants
  // (periodic-sampler probe).
  std::size_t queue_depth() const override;

  // Admin-plane surfaces (service/frontend.h). Every registered tenant has
  // published epoch >= 1 by construction, so readiness is "not shut down".
  const obs::RequestObs* request_obs() const override { return &obs_; }
  bool ready() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return !shutdown_;
  }
  std::vector<obs::TimelineRound> device_rounds() const override {
    return device_ != nullptr ? device_->recent_rounds()
                              : std::vector<obs::TimelineRound>{};
  }

  // Newest-last rings of retained traces (empty when tracing is off).
  std::vector<std::shared_ptr<const obs::CompletedTrace>> recent_traces() const {
    return obs_.recent_traces();
  }
  std::vector<std::shared_ptr<const obs::CompletedTrace>> slow_traces() const {
    return obs_.slow_traces();
  }

 private:
  struct Request;
  struct Tenant;

  void WorkerLoop(std::size_t index);
  // Pops the next request under weighted round-robin; blocks until work is
  // available or shutdown has drained everything (then returns nullptr).
  std::shared_ptr<Request> PopNext();
  void Finish(std::shared_ptr<Request> req, RequestResult result,
              std::uint64_t cpu_ns);
  std::shared_ptr<Tenant> FindTenant(const std::string& id) const;
  static void FillTenantStats(const Tenant& t, TenantStats* out);

  const RouterOptions options_;
  obs::RequestObs obs_;
  Timer uptime_;
  // Id allocation + Wait/callback delivery (service/frontend.h).
  service::RequestLedger ledger_;
  // The shared simulated card (device mode only); created before the workers
  // that submit to it, shut down after they drain.
  std::unique_ptr<device::DeviceExecutor> device_;
  std::vector<std::thread> workers_;

  // Scheduler state: registry, per-tenant queues, the WRR active list, and
  // the global queued count. Never held while executing a query.
  mutable util::ProfiledMutex sched_mu_{"router_sched"};
  std::condition_variable_any sched_cv_;    // workers: work available / stopping
  std::condition_variable_any drained_cv_;  // RemoveTenant: tenant fully drained
  std::unordered_map<std::string, std::shared_ptr<Tenant>> tenants_;
  std::list<std::shared_ptr<Tenant>> active_;  // tenants with queued work
  std::size_t total_queued_ = 0;
  bool stopping_ = false;

  // All stats counters (global and per-tenant) + the shutdown flag.
  // Acquired strictly after sched_mu_ is released.
  mutable std::mutex mu_;
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t rejected_queue_full_ = 0;
  std::uint64_t rejected_quota_ = 0;
  std::uint64_t rejected_deadline_ = 0;
  std::uint64_t cancelled_midrun_ = 0;
  LatencyHistogram latency_;
  bool shutdown_ = false;
};

}  // namespace fast::tenant

#endif  // FAST_TENANT_TENANT_ROUTER_H_
