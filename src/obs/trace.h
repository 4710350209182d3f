#ifndef FAST_OBS_TRACE_H_
#define FAST_OBS_TRACE_H_

// Per-request tracing: where did this query's latency go?
//
// A RequestTrace rides along with one request from Submit to completion and
// records a sequence of timestamped spans:
//
//   admit → queue → snapshot → plan_lookup → cst_build →
//     (device mode) device_wait → [dma, kernel: simulated] → reassembly →
//     (cpu mode)    match        → [dma, kernel: simulated] →
//   remap
//
// Two span flavours:
//   - WALL spans (admit, queue, snapshot, ..., reassembly, remap) are
//     measured against one steady-clock anchor started at Submit. They tile
//     the request's host-side timeline, so their durations sum to ~the
//     end-to-end latency (the acceptance gate checks within 10%).
//   - SIMULATED spans (dma, kernel) carry the device model's *simulated*
//     seconds — the PCIe transfer and kernel occupancy the FpgaConfig
//     predicts. Host-side, that simulated time is spent inside device_wait
//     (device mode) or match (CPU fallback), so simulated spans are excluded
//     from the wall-coverage sum; they answer "what would the card be
//     doing", not "where did host time go".
//
// Threading model: a trace belongs to exactly one request. Spans are
// recorded sequentially — at most one wall span is open at a time — but the
// recorder migrates across threads (client thread for admit/queue-begin,
// worker thread afterwards). The queue push/pop that hands the request over
// also hands the trace over with it (the queue's mutex provides the
// happens-before), so no atomics are needed.
//
// Every recording entry point tolerates a null trace: tracing disabled costs
// one branch per span.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/profiled_mutex.h"
#include "util/timer.h"

namespace fast::obs {

enum class Span : std::uint8_t {
  kRecv = 0,     // wire: frame bytes arriving on the socket (src/net/)
  kDecode,       // wire: frame parse + query graph decode
  kAdmit,        // Submit: canonicalize + admission control
  kQueue,        // queued, waiting for a worker
  kSnapshot,     // capture the epoch snapshot
  kPlanLookup,   // plan/CST cache probe
  kCstBuild,     // order + CST construction (miss), CST rebuild (order-only
                 // hit); a full hit records none
  kDeviceWait,   // device mode: partition stream + wait for device rounds
  kDma,          // SIMULATED: PCIe transfer seconds from the device model
  kKernel,       // SIMULATED: kernel seconds from the device model
  kMatch,        // CPU mode: partition + match execution
  kReassembly,   // device mode: fold per-partition results together
  kRemap,        // map matches back through the canonical permutation
  kEncode,       // wire: result/embedding frame encode (registry-only: the
                 // trace is frozen at service finish, so the wire server
                 // records encode/send into fast_span_*_seconds directly)
  kSend,         // wire: socket write of the encoded frames (registry-only)
  kCount,
};

inline constexpr std::size_t kNumSpans = static_cast<std::size_t>(Span::kCount);

const char* SpanName(Span s);

struct TraceSpan {
  Span span = Span::kAdmit;
  double start_seconds = 0.0;     // offset from the trace anchor (Submit)
  double duration_seconds = 0.0;
  bool simulated = false;         // device-model seconds, not host wall time
  // Profiler tid (obs/profiler.h) of the thread that recorded the span —
  // the recorder migrates (client thread, then a worker), and the timeline
  // exporter places each span on the thread that actually ran it. 0 when
  // the thread registry overflowed.
  std::uint32_t tid = 0;
};

// The immutable record of a finished request, shared between the
// RequestResult that carries it back to the caller and the ring buffers that
// retain it for export.
struct CompletedTrace {
  std::uint64_t request_id = 0;
  std::string tenant_id;          // empty outside TenantRouter
  double total_seconds = 0.0;     // Submit -> completion
  bool ok = false;
  std::string status;             // status code name, e.g. "DEADLINE_EXCEEDED"
  // Where this trace's anchor sits on the shared ProcessUptimeSeconds axis
  // (obs/profiler.h): absolute time of span N = anchor + its start_seconds.
  // The timeline exporter uses it to interleave many requests' spans.
  double anchor_uptime_seconds = 0.0;
  std::vector<TraceSpan> spans;

  // Sum of non-simulated span durations: the portion of total_seconds the
  // spans explain.
  double WallSpanSeconds() const;
  // WallSpanSeconds / total_seconds, 0 when total is 0.
  double Coverage() const;
  double SpanSeconds(Span s) const;  // summed over occurrences, any flavour
  std::string Summary() const;
};

// Records one request's spans. Begin/End pair up sequentially; Begin while a
// span is open first closes the open one (so call sites never need a
// try/catch-like discipline on early exits — the next span boundary or
// Finish() closes whatever was left open).
class RequestTrace {
 public:
  RequestTrace();
  RequestTrace(const RequestTrace&) = delete;
  RequestTrace& operator=(const RequestTrace&) = delete;

  void Begin(Span s);
  void End();  // closes the open span, if any

  // Records a device-model duration (no wall-clock meaning).
  void RecordSimulated(Span s, double seconds);

  // Records a wall span that already elapsed: it ends now and started
  // `seconds` ago (clamped to the anchor). The wire front end uses this for
  // the recv span — the bytes' arrival was timed by the frame decoder before
  // the trace's first Begin().
  void RecordWall(Span s, double seconds);

  double Elapsed() const { return anchor_.ElapsedSeconds(); }

  // Closes any open span and freezes the record.
  CompletedTrace Finish(std::uint64_t request_id, bool ok, std::string status,
                        std::string tenant_id = "");

 private:
  Timer anchor_;  // starts at construction (Submit)
  double anchor_uptime_seconds_ = 0.0;  // anchor on the process uptime axis
  std::vector<TraceSpan> spans_;
  bool open_ = false;
  Span open_span_ = Span::kAdmit;
  double open_start_ = 0.0;
};

// RAII wall-span guard; tolerates a null trace.
class ScopedSpan {
 public:
  ScopedSpan(RequestTrace* trace, Span s) : trace_(trace) {
    if (trace_ != nullptr) trace_->Begin(s);
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  RequestTrace* trace_;
};

// Fixed-capacity ring of recently completed traces (newest evicts oldest).
// Also used for the slow-query retention ring.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity) : capacity_(capacity) {}

  void Push(std::shared_ptr<const CompletedTrace> trace);
  // Newest-last snapshot of the retained traces.
  std::vector<std::shared_ptr<const CompletedTrace>> Snapshot() const;
  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable util::ProfiledMutex mu_{"trace_ring"};
  std::deque<std::shared_ptr<const CompletedTrace>> ring_;
};

// A timestamped point event on the shared process-uptime axis: SLO breach
// transitions, queue-full pushbacks, slow-request flags. The timeline
// exporter renders these as Chrome instant events.
struct InstantEvent {
  double t_seconds = 0.0;  // ProcessUptimeSeconds when it happened
  std::string name;        // e.g. "slo_breach", "pushback"
  std::string detail;      // e.g. the tenant id; may be empty
};

// Fixed-capacity ring of recent instant events (newest evicts oldest).
class EventRing {
 public:
  explicit EventRing(std::size_t capacity) : capacity_(capacity) {}

  void Record(double t_seconds, std::string name, std::string detail);
  // Newest-last snapshot.
  std::vector<InstantEvent> Snapshot() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::deque<InstantEvent> ring_;
};

}  // namespace fast::obs

#endif  // FAST_OBS_TRACE_H_
