#ifndef FAST_SERVICE_FRONTEND_H_
#define FAST_SERVICE_FRONTEND_H_

// Transport-agnostic request-session surface.
//
// Frontend is the session lifecycle of the serving layer as one interface:
// admit a query, queue it, execute it on a captured snapshot, deliver a
// RequestResult. Everything in front of the worker pool — the CLI replay
// loops, the serving benches, and the wire protocol in src/net/ — is written
// once against Frontend:
//
//     callers / net::WireServer / benches
//                  │  Submit(SessionKey, QueryGraph, RequestOptions)
//                  ▼
//            ┌──────────┐
//            │ Frontend │ ◀── tenant::TenantRouter (session key = tenant id)
//            └──────────┘
//
// Sessions: a SessionKey names the graph a request is routed to — the
// tenant id (NOT_FOUND when unknown). A single-graph server is a router with
// one tenant registered under the default (empty) key. The wire protocol
// carries the session key in every frame header as the routing key.
//
// Delivery: exactly one of
//   - blocking: Wait(id) returns the result once; a second Wait (or an
//     unknown id) is NOT_FOUND on the *outer* StatusOr, so a caller can
//     never mistake the sentinel for a real result (RequestResult::status
//     still carries the execution outcome: OK, DEADLINE_EXCEEDED, ...);
//   - callback: a RequestOptions::on_complete registered at Submit is
//     invoked exactly once on the finishing worker thread; such requests are
//     never waitable (Wait returns NOT_FOUND). This is the asynchronous mode
//     the wire server uses — no connection thread ever blocks in Wait.
// Streamed embeddings flow through RequestOptions::on_embedding in both
// modes (the wire server turns them into EMBEDDING frames).

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/export.h"
#include "obs/request_obs.h"
#include "query/query_graph.h"
#include "service/graph_state.h"
#include "util/status.h"

namespace fast::service {

// Names the graph a request is routed to: the tenant id. Empty = the
// default session (the one tenant of a single-graph server).
using SessionKey = std::string;

// ---- Request delivery ledger. ----
//
// The id → in-flight bookkeeping of a frontend: id allocation, the waitable
// map, blocking Wait with once-only semantics, and completion-callback
// delivery. Thread-safe.
class RequestLedger {
 public:
  // One request's delivery slot. The delivery mode is fixed at admission:
  // a non-null on_complete means the finishing worker invokes it (exactly
  // once) and the request is never waitable.
  struct Slot {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    RequestResult result;
    std::function<void(std::uint64_t, const RequestResult&)> on_complete;
  };

  // Allocates the request id and, for callback-less slots, registers it for
  // Wait.
  std::uint64_t Add(const std::shared_ptr<Slot>& slot);

  // Withdraws an id whose admission failed after Add (e.g. queue full).
  void Forget(std::uint64_t id);

  // Blocks until the request completes and returns its result. Each id
  // resolves exactly once; unknown, already-waited, and callback-mode ids
  // are NOT_FOUND.
  StatusOr<RequestResult> Wait(std::uint64_t id);

  // Delivers the result: invokes the slot's callback on this (worker)
  // thread, or publishes it for Wait.
  static void Deliver(std::uint64_t id, const std::shared_ptr<Slot>& slot,
                      RequestResult result);

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Slot>> waitable_;
  std::uint64_t next_id_ = 1;
};

// ---- The session interface. ----
class Frontend {
 public:
  using RequestId = std::uint64_t;

  virtual ~Frontend() = default;

  // Canonicalizes q and enqueues it for the session's graph. Fails fast with
  // RESOURCE_EXHAUSTED when admission control rejects (queue full or tenant
  // quota), NOT_FOUND for an unknown session,
  // INVALID_ARGUMENT for malformed queries, FAILED_PRECONDITION after
  // Shutdown. opts carries the per-request deadline, the streamed-embedding
  // sink, and the optional completion callback.
  virtual StatusOr<RequestId> Submit(const SessionKey& session,
                                     const QueryGraph& q,
                                     RequestOptions opts = {}) = 0;

  // Blocks until the request completes. NOT_FOUND (outer status) for
  // unknown, already-waited, or callback-mode ids; the returned
  // RequestResult's own status carries the execution outcome.
  virtual StatusOr<RequestResult> Wait(RequestId id) = 0;

  // Submit + Wait; the returned Status covers admission and execution.
  StatusOr<RequestResult> SubmitAndWait(const SessionKey& session,
                                        const QueryGraph& q,
                                        RequestOptions opts = {});

  // Stops admission, drains queued requests, joins workers. Idempotent.
  virtual void Shutdown() = 0;

  // Requests queued but not yet dispatched (periodic-sampler probe and the
  // wire server's flow-control hint).
  virtual std::size_t queue_depth() const = 0;

  // ---- Admin-plane surfaces (src/net/admin_http.h). ----

  // The finish-side observability bundle: trace rings, per-tenant resource
  // accounts, SLO burn-rate state. The router owns one; the default is
  // for Frontend fakes in tests.
  virtual const obs::RequestObs* request_obs() const { return nullptr; }

  // Readiness for /healthz: accepting work (not shut down) and every
  // registered graph has published a snapshot (epoch > 0).
  virtual bool ready() const { return true; }

  // Recent device rounds for the /timeline/chrome synthetic device track.
  // Empty outside device mode (and for Frontend fakes).
  virtual std::vector<obs::TimelineRound> device_rounds() const { return {}; }
};

}  // namespace fast::service

#endif  // FAST_SERVICE_FRONTEND_H_
