#ifndef FAST_CORE_DRIVER_H_
#define FAST_CORE_DRIVER_H_

// Host-side driver: the end-to-end CPU-FPGA flow of Fig. 2.
//
//  (1) build the CST on the CPU (Alg. 1)
//  (2) partition it to fit BRAM (Alg. 2)
//  (3) stream partitions over PCIe to card DRAM
//  (4) the kernel loads each partition into BRAM and matches it (Algs. 4-8)
//  (5) optionally keep a δ-share of the workload on the CPU (Alg. 3)
//  (6) collect results
//
// Host-side times (CST construction, partitioning, CPU share) are measured
// wall-clock; kernel and PCIe times are simulated by the device model. The
// paper overlaps partitioning with kernel execution, and the CPU share runs
// after partitioning finishes, so:
//
//   total = build + max(partition + cpu_share, pcie + kernel)

#include <cstdint>
#include <functional>
#include <optional>
#include <span>

#include "cst/cst.h"
#include "cst/partition.h"
#include "core/kernel.h"
#include "core/result_collector.h"
#include "fpga/config.h"
#include "fpga/cycle_model.h"
#include "ldbc/ldbc.h"
#include "obs/trace.h"
#include "query/matching_order.h"
#include "util/cancel.h"
#include "util/status.h"

namespace fast {

struct FastRunOptions {
  FastVariant variant = FastVariant::kSep;

  // FAST-SHARE: let the CPU take up to a δ fraction of the estimated
  // workload (Alg. 3). delta = 0 disables sharing.
  double cpu_share_delta = 0.0;

  FpgaConfig fpga = AlveoU200Config();

  // Partition thresholds; if max_size_words is 0 they are derived from the
  // device: δ_S = BRAM words minus the partial-result buffer, δ_D = Port_max.
  PartitionConfig partition{.max_size_words = 0, .max_degree = 0, .fixed_k = 0};

  OrderPolicy order_policy = OrderPolicy::kPathBased;
  // Overrides order_policy when set (Fig. 15 sweeps).
  std::optional<MatchingOrder> explicit_order;

  CstBuildOptions cst_build;

  // Store up to this many embeddings in the result (0 = count only).
  std::size_t store_limit = 0;

  // Streaming per-embedding callback, invoked from the matching thread as
  // results are found (before storage). Independent of store_limit.
  std::function<void(std::span<const VertexId>)> embedding_callback;

  // Cooperative cancellation (util/cancel.h): probed between pipeline phases
  // and inside the matching loops (once per kernel round, every few hundred
  // CPU-side expansions). A tripped token makes the run return
  // DEADLINE_EXCEEDED instead of finishing. Non-owning; the caller keeps the
  // token alive for the duration of the run. nullptr = never cancelled.
  const CancelToken* cancel = nullptr;

  // Optional per-request span recorder (obs/trace.h). RunFastWithCst records
  // a wall `match` span over partition + matching + CPU share (`device_wait`
  // then `reassembly` on a shared card), plus the simulated `dma`/`kernel`
  // durations from the device model. The service layers record the
  // surrounding spans (queue, snapshot, cst_build, remap).
  // Non-owning; single-threaded like the run itself. nullptr = no tracing.
  obs::RequestTrace* trace = nullptr;
};

struct FastRunResult {
  std::uint64_t embeddings = 0;
  MatchingOrder order;

  PartitionStats partition_stats;
  KernelCounters counters;

  // Measured host times (seconds).
  double build_seconds = 0;
  double partition_seconds = 0;
  double cpu_share_seconds = 0;

  // Simulated device times (seconds).
  double kernel_seconds = 0;
  double pcie_seconds = 0;
  // Simulated bytes this run pushed across PCIe. In shared-device mode this
  // is the dedup-aware attribution: a query whose CST image was deduplicated
  // against a round-mate's transfer is charged only its share of the round's
  // fixed transaction overhead. Feeds per-tenant accounting (obs/accounting.h).
  std::uint64_t dma_bytes = 0;

  // Composed end-to-end time (see header comment).
  double total_seconds = 0;

  // Achieved CPU share W_C / (W_C + W_F).
  double cpu_share_fraction = 0;
  std::size_t cpu_partitions = 0;
  std::size_t fpga_partitions = 0;

  // First `store_limit` embeddings, if requested.
  std::vector<Embedding> sample_embeddings;
};

// Device-side totals of one run's partitions, reaped from a Card.
struct CardTotals {
  KernelCounters counters;
  std::uint64_t embeddings = 0;
  std::size_t partitions = 0;
  double kernel_seconds = 0;  // simulated, on the run's critical path
  double pcie_seconds = 0;
  std::uint64_t dma_bytes = 0;  // see FastRunResult::dma_bytes
};

// Where the pipeline matches the partitions Alg. 2 emits (steps (3)-(4)).
// RunFastWithCst opens a card, submits every partition in emission order and
// finishes it exactly once, also after a failed submit. The cards: the
// private inline card (the default; each partition matches on the calling
// thread and pays its own PCIe transfer), RunMultiFpga's N of them, and
// device::DeviceSession on the shared device executor.
class Card {
 public:
  Card() = default;
  Card(const Card&) = delete;
  Card& operator=(const Card&) = delete;
  virtual ~Card() = default;

  // Partitions match under `order`, report to `collector` and probe
  // `cancel` (nullable); both are borrowed until Finish returns.
  virtual void Open(const MatchingOrder& order, ResultCollector* collector,
                    const CancelToken* cancel) = 0;
  // Matches, or queues for matching, one partition.
  virtual Status Submit(Cst part) = 0;
  // Blocks until every submitted partition has matched; the first failure
  // (DEADLINE_EXCEEDED, ...) wins.
  virtual StatusOr<CardTotals> Finish() = 0;
  // A card shared across requests: the run records a wall `device_wait`
  // span and then `reassembly`, instead of one wall `match` span.
  virtual bool shared() const { return false; }
};

// Runs the full FAST pipeline for query q over data graph g, matching the
// partitions on `card` (null = a private inline card).
//
// Reentrancy: RunFast keeps all state on the stack (no globals, no shared
// mutable caches), so concurrent calls over the same immutable Graph are
// safe. The service layer (src/service/) relies on this.
StatusOr<FastRunResult> RunFast(const QueryGraph& q, const Graph& g,
                                const FastRunOptions& options = {},
                                Card* card = nullptr);

// Runs steps (2)-(6) of the pipeline from a prebuilt CST and matching order,
// skipping order computation and CST construction. This is the cache-hit
// path of the service layer: a deserialized CST image re-enters the pipeline
// here. `order` must be tree-connected with order.root equal to the CST's
// BFS-tree root. `build_seconds` is reported in the result (pass the
// measured construction time, or 0 when the CST came from a cache).
// `options.explicit_order` and `options.order_policy` are ignored.
//
// The one place the pipeline partitions (Alg. 2), keeps the δ-share on the
// host (Alg. 3, after the card finishes) and composes the total. FAST-DRAM
// skips Alg. 2 and submits the whole CST (partition_seconds stays 0).
// `card` null simulates a device PRIVATE to the request, matching inline.
StatusOr<FastRunResult> RunFastWithCst(const Cst& cst, const MatchingOrder& order,
                                       const FastRunOptions& options = {},
                                       double build_seconds = 0.0,
                                       Card* card = nullptr);

// Effective partition thresholds for a device (δ_S, δ_D derivation).
PartitionConfig DerivePartitionConfig(const FpgaConfig& fpga, std::size_t query_size,
                                      const PartitionConfig& requested);

// Multi-FPGA extension (Sec. VII-E): RunFast over N private cards, each
// partition going to the card with the minimum accumulated estimated
// workload. The makespan is RunFast's total over the busiest card.
struct MultiFpgaResult {
  std::uint64_t embeddings = 0;
  std::size_t num_partitions = 0;
  std::vector<double> device_seconds;  // simulated busy time per device
  double makespan_seconds = 0;
  double build_seconds = 0;
  double partition_seconds = 0;
};

StatusOr<MultiFpgaResult> RunMultiFpga(const QueryGraph& q, const Graph& g,
                                       std::size_t num_devices,
                                       const FastRunOptions& options = {});

}  // namespace fast

#endif  // FAST_CORE_DRIVER_H_
