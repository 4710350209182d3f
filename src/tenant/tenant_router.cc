#include "tenant/tenant_router.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "obs/profiler.h"
#include "util/logging.h"
#include "util/wrr.h"

namespace fast::tenant {

struct TenantRouter::Request {
  RequestId id = 0;
  std::shared_ptr<Tenant> tenant;  // keeps a removed tenant's state alive
  service::CanonicalQuery canonical;
  RequestOptions opts;
  double deadline_seconds = 0.0;  // resolved; 0 = none
  Timer submitted;
  // Span recorder (null when tracing is off). Recorded on the client thread
  // up to the queue push under sched_mu_, then exclusively on the worker that
  // popped the request — sched_mu_ orders the two. shared_ptr because a
  // transport front end may have started it before Submit (resume_trace).
  std::shared_ptr<obs::RequestTrace> trace;
  // Delivery slot (Wait or completion callback) in the ledger.
  std::shared_ptr<service::RequestLedger::Slot> slot;
};

struct TenantRouter::Tenant {
  Tenant(std::string tenant_id, Graph graph, const TenantOptions& options,
         obs::MetricsRegistry* metrics)
      : id(std::move(tenant_id)),
        opts(options),
        state(std::move(graph),
              service::GraphStateOptions{options.plan_cache_capacity,
                                         options.plan_cache_byte_budget,
                                         /*device_queue_key=*/id, metrics}) {
    wrr.weight = std::max<std::uint32_t>(1, options.weight);
  }

  const std::string id;
  const TenantOptions opts;
  service::GraphState state;  // internally synchronized

  // --- Scheduler state, guarded by TenantRouter::sched_mu_. ---
  std::deque<std::shared_ptr<Request>> queue;
  WrrQueueState wrr;          // deficit-WRR state (util/wrr.h)
  std::size_t in_flight = 0;  // dispatched, not yet finished
  bool removed = false;       // deregistered; admission closed

  // --- Per-tenant counters, guarded by TenantRouter::mu_. ---
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_quota = 0;
  std::uint64_t rejected_deadline = 0;
  std::uint64_t cancelled_midrun = 0;
  LatencyHistogram latency;
};

std::string RouterStats::Summary() const {
  char buf[360];
  std::snprintf(buf, sizeof(buf),
                "tenants=%zu qps=%.1f completed=%llu failed=%llu "
                "rejected(queue=%llu quota=%llu deadline=%llu) "
                "cancelled_midrun=%llu latency[%s]",
                num_tenants, QueriesPerSecond(),
                static_cast<unsigned long long>(completed),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(rejected_queue_full),
                static_cast<unsigned long long>(rejected_quota),
                static_cast<unsigned long long>(rejected_deadline),
                static_cast<unsigned long long>(cancelled_midrun),
                latency.Summary().c_str());
  return buf;
}

TenantRouter::TenantRouter(RouterOptions options)
    : options_([&] {
        // Device mode hands every partition to the shared card, so the one
        // place that configures it turns the host's δ-share off.
        if (options.device_mode) options.run.cpu_share_delta = 0.0;
        return std::move(options);
      }()),
      obs_(obs::RequestObs::Options{options_.metrics, options_.tracing,
                                    options_.slow_request_seconds,
                                    options_.trace_ring_capacity, options_.slo,
                                    options_.flight}) {
  if (options_.device_mode) {
    // One simulated card shared by every tenant, modeling the service-level
    // device under the service-level variant.
    device::DeviceOptions dopts = options_.device;
    dopts.fpga = options_.run.fpga;
    dopts.variant = options_.run.variant;
    dopts.metrics = options_.metrics;
    device_ = std::make_unique<device::DeviceExecutor>(dopts);
  }
  std::size_t n = options_.num_workers;
  if (n == 0) n = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

TenantRouter::~TenantRouter() { Shutdown(); }

Status TenantRouter::AddTenant(const std::string& id, Graph graph,
                               TenantOptions opts) {
  if (opts.weight == 0) opts.weight = 1;
  // Build the tenant (including the graph move) outside the scheduler lock.
  auto t = std::make_shared<Tenant>(id, std::move(graph), opts, options_.metrics);
  std::lock_guard<util::ProfiledMutex> lock(sched_mu_);
  if (stopping_) return Status::FailedPrecondition("router is shut down");
  if (!tenants_.emplace(id, std::move(t)).second) {
    return Status::InvalidArgument("tenant id already registered: " + id);
  }
  // The tenant's WRR weight doubles as its device-round weight: dispatch
  // slots and device slots are bought by the same knob. Registered under
  // sched_mu_ so no Submit can race partitions onto a default-weight queue
  // and no RemoveTenant can interleave (sched_mu_ -> device mutex is the
  // established order; RemoveTenant's DropQueue uses the same one).
  if (device_ != nullptr) device_->SetQueueWeight(id, opts.weight);
  return Status::OK();
}

Status TenantRouter::RemoveTenant(const std::string& id) {
  std::unique_lock<util::ProfiledMutex> lock(sched_mu_);
  auto it = tenants_.find(id);
  if (it == tenants_.end()) return Status::NotFound("unknown tenant: " + id);
  std::shared_ptr<Tenant> t = it->second;
  // Close admission first (Submit re-checks `removed` under sched_mu_), then
  // wait for the backlog to drain: queued requests are still dispatched by
  // the workers and finish on the snapshots they capture — the shared_ptr
  // in each Request keeps the deregistered state alive until the last one.
  t->removed = true;
  tenants_.erase(it);
  drained_cv_.wait(lock, [&] { return t->queue.empty() && t->in_flight == 0; });
  // Drained: no request of this tenant is queued or in flight, so its device
  // queue (if any) is empty and can be dropped.
  if (device_ != nullptr) device_->DropQueue(id);
  return Status::OK();
}

std::shared_ptr<TenantRouter::Tenant> TenantRouter::FindTenant(
    const std::string& id) const {
  std::lock_guard<util::ProfiledMutex> lock(sched_mu_);
  auto it = tenants_.find(id);
  return it == tenants_.end() ? nullptr : it->second;
}

StatusOr<TenantRouter::RequestId> TenantRouter::Submit(
    const service::SessionKey& tenant_id, const QueryGraph& q,
    RequestOptions opts) {
  std::shared_ptr<Tenant> t = FindTenant(tenant_id);
  if (t == nullptr) return Status::NotFound("unknown tenant: " + tenant_id);

  auto req = std::make_shared<Request>();
  // A transport-started trace (anchored at frame receive, already carrying
  // the recv/decode spans) resumes here; otherwise tracing starts now.
  req->trace = opts.resume_trace != nullptr ? std::move(opts.resume_trace)
                                            : obs_.StartTrace();
  // No ScopedSpan: after the queue push the worker owns the trace, so nothing
  // on this thread may touch it past that point. Begin(kQueue) below closes
  // the admit span.
  if (req->trace != nullptr) req->trace->Begin(obs::Span::kAdmit);
  // Canonicalization is the expensive part of admission; it runs outside
  // every lock.
  FAST_ASSIGN_OR_RETURN(req->canonical, service::CanonicalizeQuery(q));
  req->tenant = t;
  req->opts = std::move(opts);
  req->deadline_seconds = req->opts.deadline_seconds >= 0.0
                              ? req->opts.deadline_seconds
                              : options_.default_deadline_seconds;

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return Status::FailedPrecondition("router is shut down");
  }
  req->slot = std::make_shared<service::RequestLedger::Slot>();
  req->slot->on_complete = req->opts.on_complete;
  const RequestId id = ledger_.Add(req->slot);
  req->id = id;

  Status admit = Status::OK();
  bool quota_reject = false;
  {
    std::lock_guard<util::ProfiledMutex> lock(sched_mu_);
    if (stopping_) {
      admit = Status::FailedPrecondition("router is shut down");
    } else if (t->removed) {
      // Lost the race with RemoveTenant between lookup and enqueue.
      admit = Status::NotFound("unknown tenant: " + tenant_id);
    } else if (total_queued_ >= options_.queue_capacity) {
      admit = Status::ResourceExhausted("router queue full");
    } else if (t->opts.max_queued > 0 && t->queue.size() >= t->opts.max_queued) {
      admit = Status::ResourceExhausted("tenant quota exceeded: " + tenant_id);
      quota_reject = true;
    } else {
      // Open the queue span BEFORE the push: once the request is queued a
      // worker may already be recording into the trace; sched_mu_ orders this
      // write against the worker's End().
      if (req->trace != nullptr) req->trace->Begin(obs::Span::kQueue);
      t->queue.push_back(req);
      ++total_queued_;
      obs_.SetQueueDepth(total_queued_);
      WrrActivate(active_, t);
    }
  }
  if (!admit.ok()) ledger_.Forget(id);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!admit.ok()) {
      if (admit.code() == StatusCode::kResourceExhausted) {
        if (quota_reject) {
          ++rejected_quota_;
          ++t->rejected_quota;
          obs_.OnRejectedQuota();
        } else {
          ++rejected_queue_full_;
          ++t->rejected_queue_full;
          obs_.OnRejectedQueueFull();
        }
      }
    } else {
      ++submitted_;  // counts admitted requests only
      ++t->submitted;
      obs_.OnSubmitted();
    }
  }
  if (!admit.ok()) return admit;
  sched_cv_.notify_one();
  return id;
}

StatusOr<RequestResult> TenantRouter::Wait(RequestId id) {
  return ledger_.Wait(id);
}

StatusOr<std::uint64_t> TenantRouter::SwapGraph(const std::string& tenant_id,
                                                Graph next) {
  std::shared_ptr<Tenant> t = FindTenant(tenant_id);
  if (t == nullptr) return Status::NotFound("unknown tenant: " + tenant_id);
  return t->state.SwapGraph(std::move(next));
}

StatusOr<std::uint64_t> TenantRouter::ApplyDelta(const std::string& tenant_id,
                                                 const GraphDelta& delta) {
  std::shared_ptr<Tenant> t = FindTenant(tenant_id);
  if (t == nullptr) return Status::NotFound("unknown tenant: " + tenant_id);
  return t->state.ApplyDelta(delta);
}

StatusOr<GraphSnapshot> TenantRouter::snapshot(
    const std::string& tenant_id) const {
  std::shared_ptr<Tenant> t = FindTenant(tenant_id);
  if (t == nullptr) return Status::NotFound("unknown tenant: " + tenant_id);
  return t->state.snapshot();
}

void TenantRouter::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  {
    std::lock_guard<util::ProfiledMutex> lock(sched_mu_);
    stopping_ = true;
  }
  // Workers drain the queued backlog, then exit; the shared device shuts
  // down only after every worker has reaped its in-flight request.
  sched_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  if (device_ != nullptr) device_->Shutdown();
}

std::shared_ptr<TenantRouter::Request> TenantRouter::PopNext() {
  std::unique_lock<util::ProfiledMutex> lock(sched_mu_);
  sched_cv_.wait(lock, [&] { return stopping_ || total_queued_ > 0; });
  if (total_queued_ == 0) return nullptr;  // stopping and drained
  // Deficit-style weighted round robin over the backlogged tenants — the
  // shared discipline of util/wrr.h, also used by the device executor's
  // round scheduler.
  FAST_CHECK(!active_.empty());
  std::shared_ptr<Request> req = WrrPop(
      active_,
      [](Tenant& t) {
        FAST_CHECK(!t.queue.empty());
        std::shared_ptr<Request> r = std::move(t.queue.front());
        t.queue.pop_front();
        return r;
      },
      [](const Tenant& t) { return t.queue.empty(); });
  --total_queued_;
  obs_.SetQueueDepth(total_queued_);
  ++req->tenant->in_flight;
  return req;
}

std::size_t TenantRouter::queue_depth() const {
  std::lock_guard<util::ProfiledMutex> lock(sched_mu_);
  return total_queued_;
}

void TenantRouter::WorkerLoop(std::size_t index) {
  obs::Profiler::RegisterCurrentThread("worker-" + std::to_string(index),
                                       obs::ThreadKind::kWorker);
  while (true) {
    std::shared_ptr<Request> req;
    {
      FAST_PROF_STAGE("queue_pop");
      req = PopNext();
    }
    if (req == nullptr) return;
    FAST_PROF_STAGE("serve");
    if (req->trace != nullptr) req->trace->End();  // closes the queue span
    RequestResult result;
    // Dispatch captures THIS tenant's snapshot inside Serve; concurrent
    // swaps on other tenants share no state with this request. The
    // thread-CPU clock around it is this tenant's host-cost charge.
    const std::uint64_t cpu_start = ThreadCpuNanos();
    req->tenant->state.Serve(req->canonical, req->opts, options_.run,
                             req->submitted.ElapsedSeconds(),
                             req->deadline_seconds, device_.get(),
                             req->trace.get(), &result);
    Finish(std::move(req), std::move(result), ThreadCpuNanos() - cpu_start);
  }
}

void TenantRouter::Finish(std::shared_ptr<Request> req, RequestResult result,
                          std::uint64_t cpu_ns) {
  result.total_seconds = req->submitted.ElapsedSeconds();
  Tenant& t = *req->tenant;
  obs::RequestObs::Outcome outcome;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (result.status.ok()) {
      ++completed_;
      ++t.completed;
      latency_.Record(result.total_seconds);
      t.latency.Record(result.total_seconds);
      outcome = obs::RequestObs::Outcome::kCompleted;
    } else if (result.status.code() == StatusCode::kDeadlineExceeded) {
      // graph_epoch distinguishes "expired while queued" (never dispatched)
      // from "aborted mid-run by the cancellation token".
      if (result.graph_epoch == 0) {
        ++rejected_deadline_;
        ++t.rejected_deadline;
        outcome = obs::RequestObs::Outcome::kRejectedDeadline;
      } else {
        ++cancelled_midrun_;
        ++t.cancelled_midrun;
        outcome = obs::RequestObs::Outcome::kCancelledMidrun;
      }
    } else {
      ++failed_;
      ++t.failed;
      outcome = obs::RequestObs::Outcome::kFailed;
    }
  }
  obs::RequestCost cost;
  cost.cpu_ns = cpu_ns;
  cost.device_kernel_ns =
      static_cast<std::uint64_t>(result.run.kernel_seconds * 1e9);
  cost.dma_bytes = result.run.dma_bytes;
  cost.queue_wait_ns = static_cast<std::uint64_t>(result.queue_seconds * 1e9);
  cost.plan_cache_bytes = result.plan_bytes_charged;
  result.trace = obs_.OnFinished(outcome, result.total_seconds,
                                 std::move(req->trace), req->id,
                                 result.status.ok(),
                                 StatusCodeToString(result.status.code()), t.id,
                                 cost);
  {
    std::lock_guard<util::ProfiledMutex> lock(sched_mu_);
    --t.in_flight;
    if (t.removed && t.in_flight == 0 && t.queue.empty()) {
      drained_cv_.notify_all();
    }
  }
  service::RequestLedger::Deliver(req->id, req->slot, std::move(result));
}

void TenantRouter::FillTenantStats(const Tenant& t, TenantStats* out) {
  // Caller holds mu_ (counters); GraphState fields are fetched by the caller
  // after mu_ is released.
  out->id = t.id;
  out->weight = std::max<std::uint32_t>(1, t.opts.weight);
  out->submitted = t.submitted;
  out->completed = t.completed;
  out->failed = t.failed;
  out->rejected_queue_full = t.rejected_queue_full;
  out->rejected_quota = t.rejected_quota;
  out->rejected_deadline = t.rejected_deadline;
  out->cancelled_midrun = t.cancelled_midrun;
  out->latency = t.latency;
}

RouterStats TenantRouter::stats() const {
  std::vector<std::shared_ptr<Tenant>> tenants;
  {
    std::lock_guard<util::ProfiledMutex> lock(sched_mu_);
    tenants.reserve(tenants_.size());
    for (const auto& [id, t] : tenants_) tenants.push_back(t);
  }
  std::sort(tenants.begin(), tenants.end(),
            [](const auto& a, const auto& b) { return a->id < b->id; });

  RouterStats s;
  s.num_tenants = tenants.size();
  s.tenants.resize(tenants.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.submitted = submitted_;
    s.completed = completed_;
    s.failed = failed_;
    s.rejected_queue_full = rejected_queue_full_;
    s.rejected_quota = rejected_quota_;
    s.rejected_deadline = rejected_deadline_;
    s.cancelled_midrun = cancelled_midrun_;
    s.latency = latency_;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      FillTenantStats(*tenants[i], &s.tenants[i]);
    }
  }
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    tenants[i]->state.publication_stats(&s.tenants[i].epoch,
                                        &s.tenants[i].graph_swaps);
    s.tenants[i].cache = tenants[i]->state.cache_stats();
  }
  if (device_ != nullptr) {
    s.device_mode = true;
    s.device = device_->stats();
  }
  s.uptime_seconds = uptime_.ElapsedSeconds();
  return s;
}

StatusOr<TenantStats> TenantRouter::tenant_stats(
    const std::string& tenant_id) const {
  std::shared_ptr<Tenant> t = FindTenant(tenant_id);
  if (t == nullptr) return Status::NotFound("unknown tenant: " + tenant_id);
  TenantStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    FillTenantStats(*t, &s);
  }
  t->state.publication_stats(&s.epoch, &s.graph_swaps);
  s.cache = t->state.cache_stats();
  return s;
}

std::vector<std::string> TenantRouter::tenant_ids() const {
  std::vector<std::string> ids;
  {
    std::lock_guard<util::ProfiledMutex> lock(sched_mu_);
    ids.reserve(tenants_.size());
    for (const auto& [id, t] : tenants_) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace fast::tenant
