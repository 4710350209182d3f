#ifndef FAST_SERVICE_GRAPH_STATE_H_
#define FAST_SERVICE_GRAPH_STATE_H_

// Per-graph serving state: one tenant of tenant::TenantRouter, so that one
// worker pool can serve many graphs.
//
// A GraphState bundles everything that is *about one data graph* and nothing
// about pools or queues:
//
//   - the epoch-snapshotted graph: a shared_ptr<const Graph> published under
//     a monotone epoch; SwapGraph/ApplyDelta build the next snapshot off-line
//     and publish it atomically while in-flight requests drain on the
//     snapshot they captured (the old graph is freed when its last request
//     drops the shared_ptr);
//   - the epoch-tagged plan/CST cache (plan_cache.h), invalidated eagerly on
//     publish and re-checked per hit;
//   - request execution: canonical-query cache lookup, build-and-run, and
//     the remap of every client-visible vertex reference back to the
//     submitted numbering.
//
// Serve() is the single entry point a worker calls after dequeuing a
// request: it enforces the deadline at dispatch, arms a cooperative
// cancellation token with the remaining deadline (util/cancel.h) so an
// oversized query aborts mid-run, captures the snapshot once, and executes.
// GraphState is internally synchronized; concurrent Serve/Swap/ApplyDelta
// calls from any number of workers and writers are safe.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "core/driver.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/plan_cache.h"
#include "service/query_signature.h"
#include "util/cancel.h"
#include "util/status.h"

namespace fast::device {
class DeviceExecutor;
}  // namespace fast::device

namespace fast::service {

// An immutable published snapshot: the graph plus the epoch it was published
// under. Copyable; holding one keeps the graph alive across any number of
// swaps.
struct GraphSnapshot {
  std::shared_ptr<const Graph> graph;
  std::uint64_t epoch = 0;
};

struct RequestResult;

struct RequestOptions {
  // Sample-embedding mode: retain up to this many embeddings (remapped to
  // the submitted numbering). 0 = count-only.
  std::size_t store_limit = 0;

  // Overrides the service-level default deadline when >= 0.
  double deadline_seconds = -1.0;

  // Streaming per-embedding callback, invoked on the worker thread with the
  // mapping in the submitted numbering. Must be thread-safe if the same
  // callable is shared across requests.
  std::function<void(std::span<const VertexId>)> on_embedding;

  // Completion callback, invoked exactly once on the finishing worker thread
  // with (request id, result). A request submitted with a callback is never
  // waitable — Frontend::Wait on its id returns NOT_FOUND. This is the
  // asynchronous delivery mode the wire server (src/net/) runs on. The
  // callback must not re-enter the service it was registered with.
  std::function<void(std::uint64_t, const RequestResult&)> on_complete;

  // Resumes a trace the transport layer started before Submit (anchored at
  // frame receive, already carrying recv/decode spans) instead of starting a
  // fresh one at admission, so wire-path spans land in the same per-request
  // trace as the service-side ones. Null = the service starts its own trace.
  std::shared_ptr<obs::RequestTrace> resume_trace;
};

struct RequestResult {
  Status status = Status::OK();  // DEADLINE_EXCEEDED, pipeline errors, ...
  // Valid iff status.ok(). Client-visible vertex references
  // (sample_embeddings, order.root, order.order) are in the numbering of
  // the *submitted* query, even when the plan ran in canonical numbering.
  FastRunResult run;
  bool cache_hit = false;
  // Epoch of the graph snapshot this request ran on (captured at dispatch).
  // 0 for requests that never dispatched (e.g. queued past their deadline);
  // a request cancelled *mid-run* by its deadline reports the epoch it ran
  // on, distinguishing the two DEADLINE_EXCEEDED cases.
  std::uint64_t graph_epoch = 0;
  double queue_seconds = 0.0;  // Submit -> dispatch
  double total_seconds = 0.0;  // Submit -> completion
  // Serialized CST image bytes this request inserted into the plan cache
  // (0 on a hit or with caching off) — the plan-cache dimension of the
  // request's resource-account charge (obs/accounting.h).
  std::uint64_t plan_bytes_charged = 0;
  // Per-span latency breakdown of this request (obs/trace.h); null when the
  // service ran with tracing disabled. Shared with the service's recent- and
  // slow-trace rings.
  std::shared_ptr<const obs::CompletedTrace> trace;
};

struct GraphStateOptions {
  // Plan/CST cache entries; 0 disables caching.
  std::size_t plan_cache_capacity = 64;
  // Byte bound on the summed serialized-CST images; 0 = entries-only bound.
  std::size_t plan_cache_byte_budget = 0;
  // Fairness-queue key on a shared device executor (the tenant id when this
  // state serves one tenant of a TenantRouter). Only used in device mode.
  std::string device_queue_key = "default";
  // Process-wide metrics registry (obs/metrics.h) the state reports into:
  // graph-swap counts, published epoch, and plan-cache traffic. Non-owning;
  // must outlive the state. nullptr = no registry reporting. NOTE: appended
  // last — existing call sites brace-initialize this struct positionally.
  obs::MetricsRegistry* metrics = nullptr;
};

class GraphState {
 public:
  // Takes ownership of the data graph and publishes it as epoch 1.
  GraphState(Graph graph, const GraphStateOptions& options);

  GraphState(const GraphState&) = delete;
  GraphState& operator=(const GraphState&) = delete;

  // The currently published snapshot. The returned graph stays valid for as
  // long as the caller holds the shared_ptr.
  GraphSnapshot snapshot() const;
  std::uint64_t epoch() const { return snapshot().epoch; }
  std::uint64_t graph_swaps() const;

  // Epoch and swap count read under ONE lock acquisition, so the pair is
  // mutually consistent (swaps == epoch - 1 always holds) even while a
  // writer is publishing.
  void publication_stats(std::uint64_t* epoch, std::uint64_t* swaps) const;

  // Atomically publishes `next` as the new snapshot under the next epoch and
  // invalidates cached plans for older epochs. Requests dispatched before
  // the publish finish on the snapshot they captured; requests dispatched
  // after run on `next`. Writers are serialized; queries are never blocked
  // by a swap. Returns the newly published epoch.
  std::uint64_t SwapGraph(Graph next);

  // Rebuilds a fresh CSR off-line from {current snapshot + delta} (see
  // graph/graph_delta.h for the batch semantics), then publishes it as with
  // SwapGraph. The rebuild runs outside any lock that queries touch.
  StatusOr<std::uint64_t> ApplyDelta(const GraphDelta& delta);

  // Serves one dequeued request end-to-end: dispatch-time deadline check
  // (status DEADLINE_EXCEEDED with graph_epoch 0 when the deadline passed
  // while queued), mid-run cancellation armed with the remaining deadline,
  // snapshot capture, cache lookup, build/run, and result remap. base_run is
  // the service-level pipeline configuration; per-request fields
  // (store_limit, callback, cancel) are overridden from `opts`. A non-null
  // `device` routes partition matching to the shared device executor
  // (device/device_executor.h) under this state's device_queue_key instead
  // of running it inline on the calling thread; result reassembly and the
  // canonical-numbering remap are identical either way. A non-null `trace`
  // records the execution-side spans (snapshot, plan_lookup, cst_build,
  // match/device_wait, remap); the caller owns it and folds it into the
  // result after classification.
  void Serve(const CanonicalQuery& canonical, const RequestOptions& opts,
             const FastRunOptions& base_run, double queue_seconds,
             double deadline_seconds, device::DeviceExecutor* device,
             obs::RequestTrace* trace, RequestResult* result);

  PlanCacheStats cache_stats() const { return cache_.stats(); }

 private:
  void Execute(const CanonicalQuery& canonical, const RequestOptions& opts,
               const GraphSnapshot& snap, const FastRunOptions& base_run,
               const CancelToken* cancel, device::DeviceExecutor* device,
               obs::RequestTrace* trace, RequestResult* result);
  StatusOr<FastRunResult> BuildAndRun(const CanonicalQuery& canonical,
                                      const GraphSnapshot& snap,
                                      const FastRunOptions& run, Card* card,
                                      std::uint64_t* plan_bytes_charged);
  std::uint64_t Publish(Graph next);

  const GraphStateOptions options_;
  PlanCache cache_;
  // Registry metrics bound once at construction (null without a registry).
  obs::Counter* swaps_counter_ = nullptr;
  obs::Gauge* epoch_gauge_ = nullptr;

  // Snapshot publication. snapshot_mu_ only guards the {pointer, epoch}
  // pair — never held while building a graph or running a query.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const Graph> graph_;
  std::uint64_t epoch_ = 1;
  std::uint64_t graph_swaps_ = 0;
  // Serializes writers so each delta applies to the snapshot it read.
  std::mutex swap_mu_;
};

}  // namespace fast::service

#endif  // FAST_SERVICE_GRAPH_STATE_H_
