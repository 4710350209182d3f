#ifndef FAST_DEVICE_DEVICE_EXECUTOR_H_
#define FAST_DEVICE_DEVICE_EXECUTOR_H_

// Shared device executor: ONE simulated FPGA serving partition work from many
// in-flight queries — across tenants — through a multi-queue front.
//
//   workers ── DeviceSession ──▶ per-tenant item queues (one per queue key)
//      │       (a core/driver.h     │
//      │        Card: CST           │  deficit-weighted round robin
//      │        partitions, each    ▼
//      │        pinned to its  batch scheduler: coalesce up to max_batch
//      │        request's      items from MANY queries into one device
//      │        captured epoch) round (wait batch_window for stragglers)
//      │                               │
//      │                   ┌───────────┴────────────┐
//      │                   │ round: ONE shared PCIe │
//      │                   │ transfer (identical    │
//      │                   │ images cross once),    │
//      │                   │ then match each item   │
//      │                   │ (kernel + cycle model) │
//      │                   └───────────┬────────────┘
//      └── Finish ◀── per-query reassembly (counters, embeddings,
//                     simulated kernel/PCIe seconds) ◀──┘
//
// A request runs core/driver.h's RunFastWithCst on a DeviceSession: the same
// pipeline as on the private inline card, which simulates a device per
// request (every query pays its own PCIe transaction and the card idles
// between requests). This executor is the FAST co-design applied across
// requests: CST partitions from concurrent queries — and concurrent tenants
// — are batched into device rounds, so the fixed per-DMA-transaction cost
// (descriptor setup, doorbell, completion — modeled as
// `transfer_overhead_bytes` of PCIe-equivalent bytes) is paid once per ROUND
// instead of once per partition, and identical partition images (same
// tenant, epoch, plan and partition index — e.g. two in-flight requests for
// the same canonical query shape) cross the bus once. Matching cycles come
// from the cycle-stepped pipeline simulation (fpga/pipeline_sim.h).
//
// Fairness reuses the deficit-weighted round-robin discipline of
// tenant::TenantRouter: each queue key (tenant) spends up to `weight` credits
// per cycle over the backlogged queues, so a hot tenant flooding the device
// with partitions cannot starve a cold tenant's round slots.
//
// Deadlines: every item carries its request's CancelToken. The scheduler
// probes it mid-batch — before the item's transfer and again before matching
// — and the kernel/pipeline simulation probe it per round, so an expired
// deadline aborts inside a device round exactly like the CPU path.
//
// Threading: one device thread (the simulated card) executes rounds
// sequentially; any number of workers submit concurrently. Session submits
// apply back-pressure (block) past `max_queued_items`. Shutdown drains all
// queued items, so a session's Finish never deadlocks; owners must stop
// submitting workers before shutting the executor down.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/driver.h"
#include "core/result_collector.h"
#include "cst/cst.h"
#include "fpga/config.h"
#include "fpga/cycle_model.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "query/matching_order.h"
#include "util/cancel.h"
#include "util/profiled_mutex.h"
#include "util/status.h"

namespace fast::device {

struct DeviceOptions {
  // The simulated card and pipeline variant. Services configure these from
  // their FastRunOptions so the shared device matches the per-worker model.
  FpgaConfig fpga = AlveoU200Config();
  FastVariant variant = FastVariant::kSep;

  // How long the scheduler holds a non-full batch open for stragglers from
  // other queries once the first item is available. 0 = dispatch immediately.
  double batch_window_seconds = 200e-6;

  // Maximum work items (CST partitions) per device round. 1 disables
  // coalescing — the unbatched A/B baseline of bench_batching.
  std::size_t max_batch_items = 8;

  // Back-pressure bound on queued items across all queues; a session's
  // Submit blocks (never rejects — a query's partitions cannot be dropped
  // halfway)
  // until the device drains below it. 0 = unbounded.
  std::size_t max_queued_items = 4096;

  // Fixed per-DMA-transaction cost in PCIe-equivalent bytes (descriptor
  // setup, doorbell write, completion interrupt — a few microseconds on real
  // hardware, ~64 KiB at gen3 x16 bandwidth). Paid once per round; this is
  // the quantity batching amortizes.
  std::size_t transfer_overhead_bytes = 64 * 1024;

  // Process-wide metrics registry the executor reports into
  // (fast_device_* counters, queue-depth/occupancy gauges). Non-owning; must
  // outlive the executor. nullptr = no registry reporting.
  obs::MetricsRegistry* metrics = nullptr;
};

struct DeviceStats {
  std::uint64_t rounds = 0;            // rounds with at least one live item
  std::uint64_t items = 0;             // partitions matched on the device
  std::uint64_t cancelled_items = 0;   // skipped or aborted by a deadline
  std::uint64_t failed_items = 0;      // kernel/pipeline errors (not deadlines)
  std::uint64_t queries = 0;           // sessions fully reaped (Finish)
  std::uint64_t payload_bytes = 0;     // unique image bytes transferred
  std::uint64_t wire_bytes = 0;        // payload + per-round transaction cost
  std::uint64_t dedup_bytes_saved = 0; // duplicate images that rode free
  std::uint64_t sum_round_queries = 0; // Σ distinct queries per round
  std::uint64_t max_items_per_round = 0;
  std::uint64_t max_queries_per_round = 0;
  double pcie_seconds = 0;    // simulated transfer time across all rounds
  double kernel_seconds = 0;  // simulated matching time across all items

  // Occupancy: how many items / distinct queries an average round carried.
  // QueriesPerRound > 1 is the cross-query amortization actually happening.
  double ItemsPerRound() const {
    return rounds > 0 ? static_cast<double>(items) / static_cast<double>(rounds) : 0.0;
  }
  double QueriesPerRound() const {
    return rounds > 0
               ? static_cast<double>(sum_round_queries) / static_cast<double>(rounds)
               : 0.0;
  }
  std::string Summary() const;
};

// Opaque per-query state shared with the device thread; defined in the .cc.
struct DeviceQuery;

class DeviceExecutor {
 public:
  explicit DeviceExecutor(DeviceOptions options = {});
  ~DeviceExecutor();

  DeviceExecutor(const DeviceExecutor&) = delete;
  DeviceExecutor& operator=(const DeviceExecutor&) = delete;

  // Registers (or updates) the WRR weight of `key`'s queue: consecutive
  // dispatch slots per cycle over the backlogged queues. 0 is treated as 1.
  void SetQueueWeight(const std::string& key, std::uint32_t weight);

  // Drops `key`'s queue bookkeeping once it is empty (no-op otherwise).
  // Callers drain the tenant's requests first (tenant::TenantRouter does).
  void DropQueue(const std::string& key);

  // Stops admission, drains every queued item, joins the device thread.
  // Idempotent; also run by the destructor.
  void Shutdown();

  DeviceStats stats() const;
  const DeviceOptions& options() const { return options_; }
  // Items currently queued (not yet popped into a round) — the periodic
  // sampler polls this for the fast_device_queue_depth time series.
  std::size_t queue_depth() const;

  // Oldest-first ring of recent rounds on the ProcessUptimeSeconds axis —
  // the timeline exporter's synthetic "device" track. Bounded (oldest
  // evicted); only rounds with at least one live item are retained.
  std::vector<obs::TimelineRound> recent_rounds() const;

 private:
  struct WorkItem;
  struct Queue;

  friend class DeviceSession;
  // DeviceSession::Submit: blocks on back-pressure; fails after Shutdown.
  Status Enqueue(const std::shared_ptr<DeviceQuery>& query, Cst part);
  void DeviceLoop();
  // Pops the next round under WRR, holding the batch open for the window;
  // empty result = stopping and drained.
  std::vector<WorkItem> PopRound();
  void RunRound(std::vector<WorkItem> round);

  const DeviceOptions options_;

  // Scheduler state: queues, the WRR active list, the global queued count.
  // Never held while matching. Contention-profiled as "device_sched" (the
  // condition variables are _any variants so they can wait on it).
  mutable util::ProfiledMutex mu_{"device_sched"};
  std::condition_variable_any cv_;        // device: work available / stopping
  std::condition_variable_any space_cv_;  // submitters: back-pressure released
  std::unordered_map<std::string, std::shared_ptr<Queue>> queues_;
  std::list<std::shared_ptr<Queue>> active_;  // queues with pending items
  std::size_t total_queued_ = 0;
  bool stopping_ = false;

  mutable std::mutex stats_mu_;
  DeviceStats stats_;
  std::deque<obs::TimelineRound> recent_rounds_;  // guarded by stats_mu_
  std::uint64_t round_seq_ = 0;  // device thread only

  // Registry metrics bound once at construction (null without a registry).
  obs::Counter* rounds_counter_ = nullptr;
  obs::Counter* items_counter_ = nullptr;
  obs::Counter* cancelled_counter_ = nullptr;
  obs::Counter* failed_counter_ = nullptr;
  obs::Counter* payload_bytes_counter_ = nullptr;
  obs::Counter* wire_bytes_counter_ = nullptr;
  obs::Counter* dedup_saved_counter_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Gauge* occupancy_gauge_ = nullptr;

  std::thread device_;  // last member: joins before state is destroyed
};

// One query's session on the shared device: the Card (core/driver.h) that
// RunFastWithCst streams a request's partitions into. `queue_key` selects the
// fairness queue (tenant id); `epoch` and `plan_key` identify the CST image
// for cross-query transfer dedup. Items price with the executor's
// FpgaConfig/variant, and the device thread owns the collector (and runs its
// callback) between Open and Finish. Submit blocks on back-pressure and fails
// with FAILED_PRECONDITION after Shutdown. One thread per session.
class DeviceSession final : public Card {
 public:
  DeviceSession(DeviceExecutor& device, std::string queue_key,
                std::uint64_t epoch, std::string plan_key);
  ~DeviceSession() override;

  void Open(const MatchingOrder& order, ResultCollector* collector,
            const CancelToken* cancel) override;
  Status Submit(Cst part) override;
  StatusOr<CardTotals> Finish() override;
  bool shared() const override { return true; }

  // 1-based sequence numbers of the first and last device round that
  // matched a partition of this session (0 = none ran); read after Finish.
  // Tests assert fairness on these.
  std::pair<std::uint64_t, std::uint64_t> rounds() const;

 private:
  DeviceExecutor& device_;
  std::shared_ptr<DeviceQuery> query_;
};

}  // namespace fast::device

#endif  // FAST_DEVICE_DEVICE_EXECUTOR_H_
