#include "core/driver.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "core/cpu_matcher.h"
#include "cst/cst_serialize.h"
#include "cst/workload.h"
#include "obs/profiler.h"
#include "util/logging.h"
#include "util/timer.h"

namespace fast {

PartitionConfig DerivePartitionConfig(const FpgaConfig& fpga, std::size_t query_size,
                                      const PartitionConfig& requested) {
  PartitionConfig config = requested;
  if (config.max_size_words == 0) {
    const std::size_t buffer_words = PartialBufferWords(fpga, query_size);
    // Leave 10% headroom for control logic and FIFOs.
    const auto budget = static_cast<std::size_t>(
        0.9 * static_cast<double>(fpga.bram_words));
    config.max_size_words =
        budget > buffer_words ? budget - buffer_words : fpga.bram_words / 2;
  }
  if (config.max_degree == 0) config.max_degree = fpga.port_max;
  return config;
}

namespace {

// N private inline cards (one by default): each partition matches on the
// calling thread and pays its own PCIe transfer, priced here — the one copy
// of inline pricing, accumulated per partition in emission order. With
// N > 1 (RunMultiFpga, Sec. VII-E) a partition goes to the card with the
// least accumulated estimated workload, and the busiest card's simulated
// seconds are the run's critical path.
class InlineCards final : public Card {
 public:
  InlineCards(std::size_t n, const FpgaConfig& fpga, FastVariant variant)
      : fpga_(fpga), variant_(variant), busy_(n), workload_(n, 0.0) {}

  void Open(const MatchingOrder& order, ResultCollector* collector,
            const CancelToken* cancel) override {
    order_ = &order;
    collector_ = collector;
    cancel_ = cancel;
  }

  Status Submit(Cst part) override {
    std::size_t d = 0;
    if (busy_.size() > 1) {
      d = std::min_element(workload_.begin(), workload_.end()) - workload_.begin();
      workload_[d] += EstimateWorkload(part);
    }
    FAST_ASSIGN_OR_RETURN(KernelRunResult run,
                          RunKernel(part, *order_, fpga_, collector_,
                                    /*round_trace=*/nullptr, cancel_));
    totals_.counters += run.counters;
    totals_.embeddings += run.embeddings;
    ++totals_.partitions;
    const std::uint64_t bytes = CstWireBytes(part);
    totals_.dma_bytes += bytes;
    busy_[d].kernel_seconds += SimulatedKernelSeconds(
        fpga_, variant_, run, part.SizeWords(), part.NumQueryVertices());
    busy_[d].pcie_seconds += fpga_.PcieSeconds(static_cast<double>(bytes));
    return Status::OK();
  }

  StatusOr<CardTotals> Finish() override {
    const CardTotals& busiest = *std::max_element(
        busy_.begin(), busy_.end(), [](const CardTotals& a, const CardTotals& b) {
          return BusySeconds(a) < BusySeconds(b);
        });
    CardTotals totals = totals_;
    totals.kernel_seconds = busiest.kernel_seconds;
    totals.pcie_seconds = busiest.pcie_seconds;
    return totals;
  }

  std::vector<double> DeviceSeconds() const {
    std::vector<double> seconds;
    for (const CardTotals& b : busy_) seconds.push_back(BusySeconds(b));
    return seconds;
  }

 private:
  static double BusySeconds(const CardTotals& t) {
    return t.kernel_seconds + t.pcie_seconds;
  }

  FpgaConfig fpga_;
  FastVariant variant_;
  const MatchingOrder* order_ = nullptr;
  ResultCollector* collector_ = nullptr;
  const CancelToken* cancel_ = nullptr;
  CardTotals totals_;             // counts and bytes over all cards
  std::vector<CardTotals> busy_;  // per card: the simulated seconds
  std::vector<double> workload_;  // per card: accumulated estimated workload
};

Status ValidateRunOptions(const FastRunOptions& options) {
  FAST_RETURN_IF_ERROR(options.fpga.Validate());
  if (options.cpu_share_delta < 0.0 || options.cpu_share_delta >= 1.0) {
    return Status::InvalidArgument("cpu_share_delta must be in [0, 1)");
  }
  return Status::OK();
}

}  // namespace

StatusOr<FastRunResult> RunFast(const QueryGraph& q, const Graph& g,
                                const FastRunOptions& options, Card* card) {
  // Reject invalid configs before paying for order computation and CST
  // construction (RunFastWithCst re-checks for its direct callers).
  FAST_RETURN_IF_ERROR(ValidateRunOptions(options));

  // --- Matching order. ---
  MatchingOrder order;
  if (options.explicit_order.has_value()) {
    FAST_RETURN_IF_ERROR(ValidateOrder(q, options.explicit_order->order));
    order = *options.explicit_order;
  } else {
    FAST_ASSIGN_OR_RETURN(order, ComputeMatchingOrder(q, g, options.order_policy));
  }

  // --- (1) CST construction. ---
  // Probe between phases: a deadline that expired during order computation
  // skips the (often dominant) CST build entirely.
  if (options.cancel != nullptr && options.cancel->Cancelled()) {
    return Status::DeadlineExceeded("run cancelled before CST build");
  }
  Timer build_timer;
  FAST_ASSIGN_OR_RETURN(Cst cst, BuildCst(q, g, order.root, options.cst_build));
  return RunFastWithCst(cst, order, options, build_timer.ElapsedSeconds(), card);
}

StatusOr<FastRunResult> RunFastWithCst(const Cst& cst, const MatchingOrder& order,
                                       const FastRunOptions& options,
                                       double build_seconds, Card* card) {
  FAST_RETURN_IF_ERROR(ValidateRunOptions(options));
  InlineCards private_card(1, options.fpga, options.variant);
  if (card == nullptr) card = &private_card;
  FAST_PROF_STAGE(card->shared() ? "device_wait" : "match");

  FastRunResult result;
  result.order = order;
  result.build_seconds = build_seconds;

  ResultCollector collector(options.store_limit);
  if (options.embedding_callback) collector.SetCallback(options.embedding_callback);
  card->Open(result.order, &collector, options.cancel);

  // One wall span covers partitioning, matching and the CPU share: `match`
  // on a private card, `device_wait` (streaming partitions and blocking on
  // device rounds) on a shared one. Host time, as opposed to the simulated
  // dma/kernel durations recorded below.
  std::optional<obs::ScopedSpan> wait_span(
      std::in_place, options.trace,
      card->shared() ? obs::Span::kDeviceWait : obs::Span::kMatch);

  // --- (2)+(3)+(4) Partition, transfer, and match. ---
  double w_cpu = 0.0;    // W_C: estimated workload kept on the host
  double w_fpga = 0.0;   // W_F: estimated workload sent to the card
  std::vector<Cst> cpu_queue;
  Status partition_status;
  if (options.variant == FastVariant::kDram) {
    // FAST-DRAM strawman: no partitioning, the whole CST stays in card DRAM.
    result.partition_stats.num_partitions = 1;
    result.partition_stats.total_size_words = cst.SizeWords();
    partition_status = card->Submit(cst);
  } else {
    const PartitionConfig pconfig = DerivePartitionConfig(
        options.fpga, cst.NumQueryVertices(), options.partition);
    // Partitions go to the card as Alg. 2 emits them, so matching overlaps
    // the remainder of partitioning.
    const auto fpga_sink = [&](Cst part) -> Status {
      w_fpga += EstimateWorkload(part);
      return card->Submit(std::move(part));
    };
    Timer partition_timer;
    if (options.cpu_share_delta > 0.0) {
      // Alg. 3: the host keeps a CST while its share of the total estimated
      // workload stays below δ. Crucially this is consulted *during*
      // partitioning, so the host can absorb oversized CSTs instead of
      // recursing on them (Sec. VII-B's FAST-SHARE saving).
      const auto try_cpu = [&](Cst& part) -> bool {
        const double w = EstimateWorkload(part);
        if (w_cpu + w >= options.cpu_share_delta * (w_cpu + w_fpga + w)) {
          return false;
        }
        w_cpu += w;
        cpu_queue.push_back(std::move(part));
        return true;
      };
      partition_status = PartitionCstWithOffload(cst, result.order, pconfig, fpga_sink,
                                                 try_cpu, &result.partition_stats);
    } else {
      partition_status = PartitionCst(cst, result.order, pconfig, fpga_sink,
                                      &result.partition_stats);
    }
    result.partition_seconds = partition_timer.ElapsedSeconds();
  }
  // Reap before propagating a partitioning error: partitions already on the
  // card must be accounted for even when a later submit failed.
  StatusOr<CardTotals> totals = card->Finish();
  FAST_RETURN_IF_ERROR(partition_status);
  FAST_RETURN_IF_ERROR(totals.status());

  // --- (5) CPU share runs after partitioning (Sec. V-C) and after the card
  // finished, so the collector has one writer at a time. ---
  Timer share_timer;
  std::uint64_t cpu_embeddings = 0;
  for (const Cst& part : cpu_queue) {
    FAST_ASSIGN_OR_RETURN(std::uint64_t found,
                          MatchCstOnCpu(part, result.order, &collector,
                                        options.cancel));
    cpu_embeddings += found;
  }
  result.cpu_partitions = cpu_queue.size();
  result.cpu_share_seconds = cpu_queue.empty() ? 0.0 : share_timer.ElapsedSeconds();
  const double w_total = w_cpu + w_fpga;
  result.cpu_share_fraction = w_total > 0.0 ? w_cpu / w_total : 0.0;
  wait_span.reset();
  if (options.trace != nullptr) {
    options.trace->RecordSimulated(obs::Span::kDma, totals->pcie_seconds);
    options.trace->RecordSimulated(obs::Span::kKernel, totals->kernel_seconds);
  }

  // --- (6) Composition: the card overlaps host partitioning; the CPU share
  // extends the host path. ---
  std::optional<obs::ScopedSpan> reassembly_span;
  if (card->shared()) reassembly_span.emplace(options.trace, obs::Span::kReassembly);
  result.counters = totals->counters;
  result.embeddings = totals->embeddings + cpu_embeddings;
  result.kernel_seconds = totals->kernel_seconds;
  result.pcie_seconds = totals->pcie_seconds;
  result.dma_bytes = totals->dma_bytes;
  result.fpga_partitions = totals->partitions;
  result.total_seconds =
      result.build_seconds +
      std::max(result.partition_seconds + result.cpu_share_seconds,
               result.pcie_seconds + result.kernel_seconds);
  result.sample_embeddings = collector.stored();
  return result;
}

StatusOr<MultiFpgaResult> RunMultiFpga(const QueryGraph& q, const Graph& g,
                                       std::size_t num_devices,
                                       const FastRunOptions& options) {
  if (num_devices == 0) {
    return Status::InvalidArgument("num_devices must be positive");
  }
  InlineCards cards(num_devices, options.fpga, options.variant);
  FAST_ASSIGN_OR_RETURN(FastRunResult run, RunFast(q, g, options, &cards));
  return MultiFpgaResult{.embeddings = run.embeddings,
                         .num_partitions = run.fpga_partitions,
                         .device_seconds = cards.DeviceSeconds(),
                         .makespan_seconds = run.total_seconds,
                         .build_seconds = run.build_seconds,
                         .partition_seconds = run.partition_seconds};
}

}  // namespace fast
