#include "device/device_executor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <optional>
#include <set>
#include <string_view>
#include <tuple>
#include <utility>

#include "core/kernel.h"
#include "cst/cst_serialize.h"
#include "fpga/pipeline_sim.h"
#include "obs/profiler.h"
#include "util/logging.h"
#include "util/timer.h"
#include "util/wrr.h"

namespace fast::device {

namespace {
// Bound on the retained TimelineRound ring (~2k rounds of timeline history).
constexpr std::size_t kRecentRoundsCapacity = 2048;
}  // namespace

// One session's state: identity for fairness/dedup, the sinks the device
// thread feeds, and the completion latch Finish waits on.
struct DeviceQuery {
  std::string queue_key;
  std::uint64_t epoch = 0;
  std::string plan_key;
  MatchingOrder order;
  ResultCollector* collector = nullptr;
  const CancelToken* cancel = nullptr;
  std::size_t parts = 0;  // partitions enqueued so far (guarded by executor mu_)

  std::mutex mu;
  std::condition_variable cv;
  std::size_t outstanding = 0;  // enqueued, not yet finalized
  Status status = Status::OK();  // first item failure (DEADLINE_EXCEEDED, ...)
  // pcie_seconds/dma_bytes: contributed unique bytes plus an even slice of
  // each round's fixed transaction cost (dedup-aware attribution).
  CardTotals totals;
  std::uint64_t first_round = 0;
  std::uint64_t last_round = 0;
};

// A CST partition awaiting its device round.
struct DeviceExecutor::WorkItem {
  std::shared_ptr<DeviceQuery> query;
  Cst cst;
  std::size_t part_index = 0;  // emission order within the query's plan
  std::size_t wire_bytes = 0;  // CstWireBytes(cst), cached at enqueue
};

// Per-queue-key scheduler state, guarded by DeviceExecutor::mu_. Fairness
// state lives in the shared WRR helper (util/wrr.h) — the same discipline
// tenant::TenantRouter dispatches with.
struct DeviceExecutor::Queue {
  std::deque<WorkItem> items;
  WrrQueueState wrr;
};

std::string DeviceStats::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "rounds=%llu items/round=%.2f queries/round=%.2f "
                "wire=%.1fKiB dedup_saved=%.1fKiB cancelled=%llu failed=%llu "
                "pcie(sim)=%.3fms kernel(sim)=%.3fms",
                static_cast<unsigned long long>(rounds), ItemsPerRound(),
                QueriesPerRound(), static_cast<double>(wire_bytes) / 1024.0,
                static_cast<double>(dedup_bytes_saved) / 1024.0,
                static_cast<unsigned long long>(cancelled_items),
                static_cast<unsigned long long>(failed_items),
                pcie_seconds * 1e3, kernel_seconds * 1e3);
  return buf;
}

DeviceExecutor::DeviceExecutor(DeviceOptions options)
    : options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* m = options_.metrics;
    rounds_counter_ =
        m->GetCounter("fast_device_rounds_total", "Device rounds executed");
    items_counter_ = m->GetCounter("fast_device_items_total",
                                   "CST partitions matched on the device");
    cancelled_counter_ = m->GetCounter("fast_device_cancelled_items_total",
                                       "Items skipped/aborted by a deadline");
    failed_counter_ = m->GetCounter("fast_device_failed_items_total",
                                    "Items failed by kernel/pipeline errors");
    payload_bytes_counter_ = m->GetCounter("fast_device_payload_bytes_total",
                                           "Unique image bytes transferred");
    wire_bytes_counter_ = m->GetCounter(
        "fast_device_wire_bytes_total", "Payload + per-round transaction cost");
    dedup_saved_counter_ = m->GetCounter("fast_device_dedup_bytes_saved_total",
                                         "Duplicate image bytes that rode free");
    queue_depth_gauge_ = m->GetGauge("fast_device_queue_depth",
                                     "Items queued for a device round");
    occupancy_gauge_ = m->GetGauge(
        "fast_device_occupancy", "Live items in the last round / max batch");
  }
  device_ = std::thread([this] { DeviceLoop(); });
}

DeviceExecutor::~DeviceExecutor() { Shutdown(); }

void DeviceExecutor::SetQueueWeight(const std::string& key,
                                    std::uint32_t weight) {
  std::lock_guard<util::ProfiledMutex> lock(mu_);
  std::shared_ptr<Queue>& q = queues_[key];
  if (q == nullptr) q = std::make_shared<Queue>();
  q->wrr.weight = std::max<std::uint32_t>(1, weight);
}

void DeviceExecutor::DropQueue(const std::string& key) {
  std::lock_guard<util::ProfiledMutex> lock(mu_);
  auto it = queues_.find(key);
  if (it != queues_.end() && it->second->items.empty() &&
      !it->second->wrr.in_active) {
    queues_.erase(it);
  }
}

Status DeviceExecutor::Enqueue(const std::shared_ptr<DeviceQuery>& query,
                               Cst part) {
  WorkItem item;
  item.query = query;
  item.wire_bytes = CstWireBytes(part);
  item.cst = std::move(part);
  {
    std::unique_lock<util::ProfiledMutex> lock(mu_);
    // Back-pressure, not rejection: dropping one partition of a query would
    // silently lose embeddings. The device drains independently of any
    // worker, so this wait always makes progress. 0 = unbounded, matching
    // the other 0-disables knobs.
    space_cv_.wait(lock, [&] {
      return stopping_ || options_.max_queued_items == 0 ||
             total_queued_ < options_.max_queued_items;
    });
    if (stopping_) {
      return Status::FailedPrecondition("device executor is shut down");
    }
    item.part_index = query->parts++;
    std::shared_ptr<Queue>& q = queues_[query->queue_key];
    if (q == nullptr) q = std::make_shared<Queue>();
    {
      std::lock_guard<std::mutex> qlock(query->mu);
      ++query->outstanding;
    }
    q->items.push_back(std::move(item));
    ++total_queued_;
    if (queue_depth_gauge_ != nullptr) {
      queue_depth_gauge_->Set(static_cast<double>(total_queued_));
    }
    WrrActivate(active_, q);
  }
  cv_.notify_one();
  return Status::OK();
}

void DeviceExecutor::Shutdown() {
  {
    std::lock_guard<util::ProfiledMutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  space_cv_.notify_all();
  if (device_.joinable()) device_.join();
}

void DeviceExecutor::DeviceLoop() {
  obs::Profiler::RegisterCurrentThread("device", obs::ThreadKind::kDevice);
  while (true) {
    std::vector<WorkItem> round;
    {
      FAST_PROF_STAGE("pop_round");
      round = PopRound();
    }
    if (round.empty()) return;  // stopping and drained
    FAST_PROF_STAGE("round");
    RunRound(std::move(round));
  }
}

std::vector<DeviceExecutor::WorkItem> DeviceExecutor::PopRound() {
  std::unique_lock<util::ProfiledMutex> lock(mu_);
  cv_.wait(lock, [&] { return stopping_ || total_queued_ > 0; });
  if (total_queued_ == 0) return {};
  const std::size_t max_batch = std::max<std::size_t>(1, options_.max_batch_items);
  // Hold the batch open for stragglers from other in-flight queries — this
  // window is what turns light concurrent load into >1 query per round.
  // Skipped when stopping: drain as fast as possible.
  if (!stopping_ && options_.batch_window_seconds > 0.0 &&
      total_queued_ < max_batch) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(options_.batch_window_seconds));
    while (!stopping_ && total_queued_ < max_batch) {
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) break;
    }
  }
  // Deficit-weighted round robin over the backlogged queues — the shared
  // discipline of util/wrr.h, exactly as TenantRouter dispatches requests.
  std::vector<WorkItem> round;
  round.reserve(std::min(max_batch, total_queued_));
  while (round.size() < max_batch && total_queued_ > 0) {
    FAST_CHECK(!active_.empty());
    round.push_back(WrrPop(
        active_,
        [](Queue& q) {
          FAST_CHECK(!q.items.empty());
          WorkItem item = std::move(q.items.front());
          q.items.pop_front();
          return item;
        },
        [](const Queue& q) { return q.items.empty(); }));
    --total_queued_;
  }
  if (queue_depth_gauge_ != nullptr) {
    queue_depth_gauge_->Set(static_cast<double>(total_queued_));
  }
  space_cv_.notify_all();
  return round;
}

void DeviceExecutor::RunRound(std::vector<WorkItem> round) {
  const FpgaConfig& fpga = options_.fpga;
  const double round_start = obs::ProcessUptimeSeconds();
  Timer round_timer;

  // --- Mid-batch cancellation probe: an item whose token tripped (or whose
  // query already failed) is skipped before it costs any transfer bytes. ---
  std::vector<bool> live(round.size(), false);
  std::size_t n_live = 0;
  for (std::size_t i = 0; i < round.size(); ++i) {
    DeviceQuery& q = *round[i].query;
    bool query_ok;
    {
      std::lock_guard<std::mutex> qlock(q.mu);
      query_ok = q.status.ok();
    }
    if (query_ok && (q.cancel == nullptr || !q.cancel->Cancelled())) {
      live[i] = true;
      ++n_live;
    }
  }

  // --- Transfer phase: ONE DMA transaction for the whole round. Identical
  // images (same queue key, epoch, plan and partition index → bit-identical
  // CSTs) cross the bus once; duplicates ride free. ---
  std::uint64_t payload = 0;
  std::uint64_t saved = 0;
  std::vector<std::size_t> contributed(round.size(), 0);
  std::set<std::tuple<std::string_view, std::uint64_t, std::string_view,
                      std::size_t>>
      seen;
  for (std::size_t i = 0; i < round.size(); ++i) {
    if (!live[i]) continue;
    const DeviceQuery& q = *round[i].query;
    const auto key = std::make_tuple(std::string_view(q.queue_key), q.epoch,
                                     std::string_view(q.plan_key),
                                     round[i].part_index);
    if (seen.insert(key).second) {
      payload += round[i].wire_bytes;
      contributed[i] = round[i].wire_bytes;
    } else {
      saved += round[i].wire_bytes;
    }
  }
  std::uint64_t wire = 0;
  double pcie_s = 0.0;
  if (n_live > 0) {
    wire = payload + options_.transfer_overhead_bytes;
    pcie_s = fpga.PcieSeconds(static_cast<double>(wire));
  }
  const double overhead_share =
      n_live > 0 ? static_cast<double>(options_.transfer_overhead_bytes) /
                       static_cast<double>(n_live)
                 : 0.0;

  const std::uint64_t round_id = n_live > 0 ? ++round_seq_ : round_seq_;

  // --- Matching phase: items run back to back on the one simulated card.
  // Outcomes are staged locally so the round's stats publish BEFORE any
  // query is notified: a caller returning from Finish must already see
  // its rounds in stats(). ---
  struct ItemOutcome {
    Status status = Status::OK();
    KernelRunResult run;
    double kernel_seconds = 0.0;
  };
  std::vector<ItemOutcome> outcomes(round.size());
  std::set<const DeviceQuery*> round_queries;
  double round_kernel = 0.0;
  std::uint64_t executed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t failed = 0;
  std::vector<RoundWork> trace;
  // Stage scopes held in an optional so "kernel" closes before "reassembly"
  // opens without re-nesting the two big loops below.
  std::optional<obs::StageScope> prof_stage;
  prof_stage.emplace("kernel");
  for (std::size_t i = 0; i < round.size(); ++i) {
    WorkItem& item = round[i];
    DeviceQuery& q = *item.query;

    Status item_status = Status::OK();
    KernelRunResult run;
    double kernel_s = 0.0;
    if (!live[i]) {
      item_status =
          Status::DeadlineExceeded("device work item cancelled before matching");
    } else {
      trace.clear();
      StatusOr<KernelRunResult> r =
          RunKernel(item.cst, q.order, fpga, q.collector, &trace, q.cancel);
      if (!r.ok()) {
        item_status = r.status();
      } else {
        run = std::move(*r);
        // Matching-phase cycles come from the cycle-stepped pipeline
        // simulation over the recorded round trace (fpga/pipeline_sim.h),
        // which sees FIFO back-pressure the closed forms do not.
        StatusOr<PipelineSimResult> sim =
            SimulatePipeline(fpga, options_.variant, trace, q.cancel);
        if (!sim.ok()) {
          item_status = sim.status();
        } else {
          // The image sits in card DRAM after the shared transfer; each
          // matching pass still DMAs it into BRAM (dedup shares the PCIe
          // hop, not the BRAM load), which the price includes.
          kernel_s = PartitionKernelSeconds(fpga, options_.variant, sim->cycles,
                                            run.embeddings, item.cst.SizeWords(),
                                            item.cst.NumQueryVertices());
        }
      }
    }

    outcomes[i].status = std::move(item_status);
    outcomes[i].run = std::move(run);
    outcomes[i].kernel_seconds = kernel_s;
    if (outcomes[i].status.ok()) {
      ++executed;
      round_queries.insert(&q);
      round_kernel += kernel_s;
    } else if (outcomes[i].status.code() == StatusCode::kDeadlineExceeded) {
      ++cancelled;
    } else {
      // A genuine kernel/pipeline error, not a deadline: keep it out of the
      // cancellation count so Summary() does not mask device failures.
      ++failed;
    }
  }

  prof_stage.reset();

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.rounds = round_seq_;
    if (n_live > 0) {
      obs::TimelineRound tr;
      tr.round = round_id;
      tr.start_seconds = round_start;
      tr.duration_seconds = round_timer.ElapsedSeconds();
      tr.pcie_sim_seconds = pcie_s;
      tr.kernel_sim_seconds = round_kernel;
      tr.items = executed;
      tr.queries = round_queries.size();
      tr.wire_bytes = wire;
      recent_rounds_.push_back(tr);
      while (recent_rounds_.size() > kRecentRoundsCapacity) {
        recent_rounds_.pop_front();
      }
    }
    stats_.items += executed;
    stats_.cancelled_items += cancelled;
    stats_.failed_items += failed;
    stats_.payload_bytes += payload;
    stats_.wire_bytes += wire;
    stats_.dedup_bytes_saved += saved;
    if (executed > 0) {
      stats_.sum_round_queries += round_queries.size();
      stats_.max_items_per_round =
          std::max(stats_.max_items_per_round, executed);
      stats_.max_queries_per_round = std::max<std::uint64_t>(
          stats_.max_queries_per_round, round_queries.size());
    }
    stats_.pcie_seconds += pcie_s;
    stats_.kernel_seconds += round_kernel;
  }

  // Mirror the round into the process-wide registry (relaxed atomics; no
  // lock shared with the stats block above).
  if (items_counter_ != nullptr) {
    if (n_live > 0) rounds_counter_->Increment();
    items_counter_->Increment(executed);
    cancelled_counter_->Increment(cancelled);
    failed_counter_->Increment(failed);
    payload_bytes_counter_->Increment(payload);
    wire_bytes_counter_->Increment(wire);
    dedup_saved_counter_->Increment(saved);
    occupancy_gauge_->Set(
        static_cast<double>(executed) /
        static_cast<double>(std::max<std::size_t>(1, options_.max_batch_items)));
  }

  // --- Reassembly: fold each item into its query and release waiters. ---
  prof_stage.emplace("reassembly");
  for (std::size_t i = 0; i < round.size(); ++i) {
    DeviceQuery& q = *round[i].query;
    ItemOutcome& out = outcomes[i];
    const double pcie_share =
        wire > 0 && out.status.ok()
            ? pcie_s *
                  ((static_cast<double>(contributed[i]) + overhead_share) /
                   static_cast<double>(wire))
            : 0.0;
    {
      std::lock_guard<std::mutex> qlock(q.mu);
      if (!out.status.ok()) {
        // First failure wins; an already-failed query's later items were
        // skipped above and keep the original status.
        if (q.status.ok()) q.status = std::move(out.status);
      } else {
        q.totals.counters += out.run.counters;
        q.totals.embeddings += out.run.embeddings;
        q.totals.kernel_seconds += out.kernel_seconds;
        q.totals.pcie_seconds += pcie_share;
        q.totals.dma_bytes += contributed[i] +
                              static_cast<std::uint64_t>(overhead_share);
        ++q.totals.partitions;
        if (q.first_round == 0) q.first_round = round_id;
        q.last_round = round_id;
      }
      --q.outstanding;
      if (q.outstanding == 0) q.cv.notify_all();
    }
  }
}

DeviceStats DeviceExecutor::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

std::size_t DeviceExecutor::queue_depth() const {
  std::lock_guard<util::ProfiledMutex> lock(mu_);
  return total_queued_;
}

std::vector<obs::TimelineRound> DeviceExecutor::recent_rounds() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return {recent_rounds_.begin(), recent_rounds_.end()};
}

DeviceSession::DeviceSession(DeviceExecutor& device, std::string queue_key,
                             std::uint64_t epoch, std::string plan_key)
    : device_(device), query_(std::make_shared<DeviceQuery>()) {
  query_->queue_key = std::move(queue_key);
  query_->epoch = epoch;
  query_->plan_key = std::move(plan_key);
}

DeviceSession::~DeviceSession() {
  // The device thread borrows the collector and cancel token until the
  // session's last item is finalized.
  std::unique_lock<std::mutex> lock(query_->mu);
  query_->cv.wait(lock, [&] { return query_->outstanding == 0; });
}

void DeviceSession::Open(const MatchingOrder& order, ResultCollector* collector,
                         const CancelToken* cancel) {
  query_->order = order;
  query_->collector = collector;
  query_->cancel = cancel;
}

Status DeviceSession::Submit(Cst part) {
  return device_.Enqueue(query_, std::move(part));
}

StatusOr<CardTotals> DeviceSession::Finish() {
  std::unique_lock<std::mutex> lock(query_->mu);
  query_->cv.wait(lock, [&] { return query_->outstanding == 0; });
  {
    std::lock_guard<std::mutex> stats_lock(device_.stats_mu_);
    ++device_.stats_.queries;
  }
  if (!query_->status.ok()) return query_->status;
  return query_->totals;
}

std::pair<std::uint64_t, std::uint64_t> DeviceSession::rounds() const {
  std::lock_guard<std::mutex> lock(query_->mu);
  return {query_->first_round, query_->last_round};
}

}  // namespace fast::device
