#include "service/graph_state.h"

#include <optional>
#include <utility>
#include <vector>

#include "cst/cst_serialize.h"
#include "device/device_executor.h"
#include "obs/profiler.h"
#include "query/matching_order.h"
#include "util/timer.h"

namespace fast::service {

namespace {

bool IsIdentity(const std::vector<VertexId>& perm) {
  for (std::size_t i = 0; i < perm.size(); ++i) {
    if (perm[i] != i) return false;
  }
  return true;
}

// Remaps an embedding from canonical numbering back to the submitted
// numbering: submitted vertex u matched canonical position to_canonical[u].
void RemapEmbedding(const std::vector<VertexId>& to_canonical,
                    std::span<const VertexId> canonical, Embedding* out) {
  out->resize(to_canonical.size());
  for (std::size_t u = 0; u < to_canonical.size(); ++u) {
    (*out)[u] = canonical[to_canonical[u]];
  }
}

}  // namespace

GraphState::GraphState(Graph graph, const GraphStateOptions& options)
    : options_(options),
      cache_(options.plan_cache_capacity, options.plan_cache_byte_budget),
      graph_(std::make_shared<const Graph>(std::move(graph))) {
  if (options_.metrics != nullptr) {
    cache_.BindMetrics(options_.metrics);
    swaps_counter_ = options_.metrics->GetCounter(
        "fast_graph_swaps_total", "Graph snapshots published (swaps + deltas)");
    epoch_gauge_ = options_.metrics->GetGauge(
        "fast_graph_epoch", "Most recently published graph epoch");
    epoch_gauge_->Set(static_cast<double>(epoch_));
  }
}

GraphSnapshot GraphState::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return {graph_, epoch_};
}

std::uint64_t GraphState::graph_swaps() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return graph_swaps_;
}

void GraphState::publication_stats(std::uint64_t* epoch,
                                   std::uint64_t* swaps) const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  *epoch = epoch_;
  *swaps = graph_swaps_;
}

std::uint64_t GraphState::Publish(Graph next) {
  auto published = std::make_shared<const Graph>(std::move(next));
  std::uint64_t new_epoch;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    graph_ = std::move(published);
    new_epoch = ++epoch_;
    ++graph_swaps_;
  }
  // Eager reclamation only: stale plans that race past this are caught by
  // the per-key epoch tag in Lookup.
  cache_.InvalidateBefore(new_epoch);
  if (swaps_counter_ != nullptr) swaps_counter_->Increment();
  if (epoch_gauge_ != nullptr) epoch_gauge_->Set(static_cast<double>(new_epoch));
  return new_epoch;
}

std::uint64_t GraphState::SwapGraph(Graph next) {
  std::lock_guard<std::mutex> writers(swap_mu_);
  return Publish(std::move(next));
}

StatusOr<std::uint64_t> GraphState::ApplyDelta(const GraphDelta& delta) {
  // One writer at a time, so the rebuild base cannot be superseded mid-apply;
  // queries keep dispatching against the current snapshot throughout.
  std::lock_guard<std::mutex> writers(swap_mu_);
  GraphSnapshot base = snapshot();
  FAST_ASSIGN_OR_RETURN(Graph next, fast::ApplyDelta(*base.graph, delta));
  return Publish(std::move(next));
}

void GraphState::Serve(const CanonicalQuery& canonical,
                       const RequestOptions& opts,
                       const FastRunOptions& base_run, double queue_seconds,
                       double deadline_seconds, device::DeviceExecutor* device,
                       obs::RequestTrace* trace, RequestResult* result) {
  result->queue_seconds = queue_seconds;
  if (deadline_seconds > 0.0 && queue_seconds > deadline_seconds) {
    result->status = Status::DeadlineExceeded("deadline passed while queued");
    return;
  }
  // Arm mid-run cancellation with whatever deadline remains; the token lives
  // on this worker's stack for the duration of the run.
  CancelToken deadline_token;
  const CancelToken* cancel = base_run.cancel;
  if (deadline_seconds > 0.0) {
    deadline_token.ArmDeadline(deadline_seconds - queue_seconds);
    cancel = &deadline_token;
  }
  // Capture the snapshot once at dispatch: the whole request — cache
  // lookup, build, run — sees one consistent {graph, epoch}, regardless
  // of concurrent swaps.
  if (trace != nullptr) trace->Begin(obs::Span::kSnapshot);
  const GraphSnapshot snap = snapshot();
  if (trace != nullptr) trace->End();
  result->graph_epoch = snap.epoch;
  Execute(canonical, opts, snap, base_run, cancel, device, trace, result);
}

void GraphState::Execute(const CanonicalQuery& canonical,
                         const RequestOptions& opts, const GraphSnapshot& snap,
                         const FastRunOptions& base_run,
                         const CancelToken* cancel,
                         device::DeviceExecutor* device,
                         obs::RequestTrace* trace, RequestResult* result) {
  FastRunOptions run = base_run;
  run.explicit_order.reset();
  run.store_limit = opts.store_limit;
  run.cancel = cancel;
  // The pipeline below records its own spans (match / device_wait / the
  // simulated dma+kernel) through this pointer.
  run.trace = trace;

  const std::vector<VertexId>& to_canonical = canonical.to_canonical;
  const bool identity = IsIdentity(to_canonical);
  // Per-request callback overrides the base-config one; either way the
  // callback must observe embeddings in the submitted numbering, so wrap it
  // with the canonical->submitted remap when the permutation is non-trivial.
  const std::function<void(std::span<const VertexId>)>& callback =
      opts.on_embedding ? opts.on_embedding : base_run.embedding_callback;
  if (callback) {
    if (identity) {
      run.embedding_callback = callback;
    } else {
      run.embedding_callback = [&callback, &to_canonical,
                                scratch = Embedding()](
                                   std::span<const VertexId> emb) mutable {
        RemapEmbedding(to_canonical, emb, &scratch);
        callback(scratch);
      };
    }
  }

  // Shared-device mode runs the pipeline on a session of the executor; the
  // canonical key + epoch let same-shape requests share one PCIe transfer.
  std::optional<device::DeviceSession> session;
  if (device != nullptr) {
    session.emplace(*device, options_.device_queue_key, snap.epoch, canonical.key);
  }
  Card* card = session.has_value() ? &*session : nullptr;

  StatusOr<FastRunResult> r = Status::Internal("unreachable");
  bool ran_from_cache = false;
  if (options_.plan_cache_capacity > 0) {
    if (trace != nullptr) trace->Begin(obs::Span::kPlanLookup);
    std::shared_ptr<const CachedPlan> plan;
    {
      FAST_PROF_STAGE("plan_lookup");
      plan = cache_.Lookup(canonical.key, snap.epoch);
    }
    if (trace != nullptr) trace->End();
    if (plan != nullptr) {
      if (plan->order_only()) {
        // Order-only hit (the full image was over the byte budget): reuse
        // the cached matching order and rebuild only the CST against this
        // request's snapshot.
        if (run.cancel != nullptr && run.cancel->Cancelled()) {
          ran_from_cache = true;
          r = Status::DeadlineExceeded("deadline expired before CST rebuild");
        } else {
          if (trace != nullptr) trace->Begin(obs::Span::kCstBuild);
          Timer build_timer;
          StatusOr<Cst> cst = Status::Internal("unreachable");
          {
            FAST_PROF_STAGE("cst_build");
            cst = BuildCst(canonical.query, *snap.graph, plan->order.root,
                           run.cst_build);
          }
          if (trace != nullptr) trace->End();
          if (cst.ok()) {
            ran_from_cache = true;
            result->cache_hit = true;
            r = RunFastWithCst(*cst, plan->order, run,
                               build_timer.ElapsedSeconds(), card);
          }
        }
      } else {
        // Cache hit: rebuild the CST from the serialized image (the same
        // flat words that would cross PCIe), skipping order computation and
        // Alg. 1 construction entirely. The image decode is this request's
        // whole "cst_build" phase.
        if (trace != nullptr) trace->Begin(obs::Span::kCstBuild);
        StatusOr<Cst> cst = Status::Internal("unreachable");
        {
          FAST_PROF_STAGE("cst_build");
          cst = DeserializeCst(plan->layout, plan->cst_image);
        }
        if (trace != nullptr) trace->End();
        if (cst.ok()) {
          ran_from_cache = true;
          result->cache_hit = true;
          r = RunFastWithCst(*cst, plan->order, run, /*build_seconds=*/0.0,
                             card);
        }
        // A corrupt image falls through to a fresh build below (and its
        // Insert replaces the bad entry) instead of failing every hit.
      }
    }
  }
  if (!ran_from_cache) {
    r = BuildAndRun(canonical, snap, run, card, &result->plan_bytes_charged);
  }

  if (!r.ok()) {
    result->status = r.status();
    return;
  }
  result->run = std::move(*r);
  {
    obs::ScopedSpan remap_span(trace, obs::Span::kRemap);
    FAST_PROF_STAGE("remap");
    if (!identity) {
      // Everything client-visible is reported in the submitted numbering: the
      // sample embeddings and the matching order (root + visit sequence).
      for (Embedding& e : result->run.sample_embeddings) {
        Embedding remapped;
        RemapEmbedding(to_canonical, e, &remapped);
        e = std::move(remapped);
      }
      std::vector<VertexId> from_canonical(to_canonical.size());
      for (std::size_t u = 0; u < to_canonical.size(); ++u) {
        from_canonical[to_canonical[u]] = static_cast<VertexId>(u);
      }
      result->run.order.root = from_canonical[result->run.order.root];
      for (VertexId& v : result->run.order.order) v = from_canonical[v];
    }
  }
}

StatusOr<FastRunResult> GraphState::BuildAndRun(
    const CanonicalQuery& canonical, const GraphSnapshot& snap,
    const FastRunOptions& run, Card* card, std::uint64_t* plan_bytes_charged) {
  // Cache miss (or cache disabled): compute the order and build the CST for
  // the canonical query against this request's snapshot, publish the plan
  // under the snapshot's epoch, then run the pipeline from it.
  const QueryGraph& q = canonical.query;
  const Graph& g = *snap.graph;
  // One cst_build span covers order computation, Alg. 1 construction, and
  // the serialize+insert that publishes the plan; an early error return
  // leaves the span open and RequestTrace::Finish closes it.
  if (run.trace != nullptr) run.trace->Begin(obs::Span::kCstBuild);
  // Optional so the stage closes before the run (whose own stages must not
  // nest under cst_build); early error returns destroy it too.
  std::optional<obs::StageScope> build_stage;
  build_stage.emplace("cst_build");
  FAST_ASSIGN_OR_RETURN(MatchingOrder order,
                        ComputeMatchingOrder(q, g, run.order_policy));
  if (run.cancel != nullptr && run.cancel->Cancelled()) {
    return Status::DeadlineExceeded("deadline expired before CST build");
  }
  Timer build_timer;
  FAST_ASSIGN_OR_RETURN(Cst cst, BuildCst(q, g, order.root, run.cst_build));
  const double build_seconds = build_timer.ElapsedSeconds();

  if (options_.plan_cache_capacity > 0) {
    auto plan = std::make_shared<CachedPlan>();
    plan->order = order;
    plan->layout = cst.layout_ptr();
    plan->cst_image = SerializeCst(cst);
    *plan_bytes_charged = plan->ImageBytes();
    cache_.Insert(canonical.key, snap.epoch, std::move(plan));
  }
  if (run.trace != nullptr) run.trace->End();
  build_stage.reset();
  return RunFastWithCst(cst, order, run, build_seconds, card);
}

}  // namespace fast::service
