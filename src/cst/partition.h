#ifndef FAST_CST_PARTITION_H_
#define FAST_CST_PARTITION_H_

// CST partitioning (paper Alg. 2, Sec. V-B).
//
// BRAM is small (δ_S words) and the array-partitioned edge validator bounds
// the adjacency fan-out (δ_D = Port_max), so a CST exceeding either threshold
// is split: the candidate set of the current matching-order vertex is divided
// into k parts (k = max(|CST|/δ_S, D_CST/δ_D) under the paper's greedy rule,
// or a fixed k for the Fig. 8 sweep), each part's CST is rebuilt with only
// the candidates that can reach the part, and oversized parts recurse on the
// next order vertex. Partitions have pairwise-disjoint search spaces, so
// results are emitted exactly once (Example 3).

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "cst/cst.h"
#include "query/matching_order.h"

namespace fast {

struct PartitionConfig {
  // δ_S: maximum CST size in 32-bit words. Default corresponds to filling
  // ~half of a 35 MB BRAM budget (Alveo U200), leaving room for the
  // intermediate-result buffer.
  std::size_t max_size_words = (35u << 20) / 2 / 4;
  // δ_D: maximum candidate adjacency degree (Port_max of Sec. VI-A).
  std::uint32_t max_degree = 512;
  // 0 = greedy k (paper's strategy); otherwise the fixed k of Fig. 8.
  int fixed_k = 0;
  // Also prune candidates of vertices *preceding* the split vertex once
  // C(u) is restricted. Alg. 2 copies preceding candidate sets verbatim
  // (lines 7-8); pruning them is sound (a preceding candidate that cannot
  // reach the kept part of C(u) through t_q cannot appear in any embedding
  // of this partition) and keeps Σ|CST_i| near |CST| instead of blowing up
  // multiplicatively on deep recursions. Disable for Alg. 2-literal
  // behaviour.
  bool prune_preceding = true;
};

struct PartitionStats {
  std::size_t num_partitions = 0;        // emitted to the FPGA sink
  std::size_t num_recursive_calls = 0;
  std::size_t total_size_words = 0;      // Σ|CST_i| (Fig. 9's S_CST)
  std::size_t max_partition_words = 0;
  // Partitions that exhausted every order vertex and still exceed a
  // threshold (singleton candidates everywhere): emitted with a warning.
  std::size_t num_oversized = 0;
  // CSTs the host kept via the FAST-SHARE offload path.
  std::size_t num_cpu_offloaded = 0;

  bool operator==(const PartitionStats&) const = default;
};

// Alg. 2's output for one CST and config, kept so that the partitions can be
// rebuilt without re-running Alg. 2 (the service's plan cache keeps one per
// cached CST). Every partition Alg. 2 emits is the root CST's induced sub-CST
// on the partition's candidate sets (see SubsetCst), so a partition is
// recorded as one bitset per query vertex over the root's C(u), in the packed
// layout of CandidateBitsOffsets(root), and rebuilt with
// SubsetCst(root, Partition(i)).
struct PartitionPlan {
  std::size_t words_per_partition = 0;  // CandidateBitsOffsets(root).back()
  std::vector<std::uint64_t> bits;      // size() blocks of words_per_partition
  std::vector<char> on_cpu;  // per partition, in emission order: kept by Alg. 3
  PartitionStats stats;      // of the recorded run
  // W_C and W_F: estimated workload kept on the host and sent to the card.
  double w_cpu = 0.0;
  double w_fpga = 0.0;

  std::size_t size() const { return on_cpu.size(); }
  std::span<const std::uint64_t> Partition(std::size_t i) const {
    return std::span<const std::uint64_t>(bits).subspan(i * words_per_partition,
                                                        words_per_partition);
  }
  // What a plan cache charges for it: the bitset bytes.
  std::size_t Bytes() const { return bits.size() * sizeof(std::uint64_t); }
};

// Streams every satisfying partition to `sink` in deterministic order, as
// soon as it is valid — mirroring the paper's "offloaded to FPGA
// immediately". Stops early if the sink returns an error.
Status PartitionCst(const Cst& cst, const MatchingOrder& order,
                    const PartitionConfig& config,
                    const std::function<Status(Cst)>& sink,
                    PartitionStats* stats = nullptr);

// Partitioning with a CPU-offload escape hatch (the FAST-SHARE mechanism of
// Sec. VII-B: "in FAST-SHARE we may directly assign [a CST that cannot be
// fully loaded into BRAM] to CPU, reducing the cost of partitioning").
//
// Before splitting an oversized CST — and before emitting a fitting one to
// the FPGA — `try_cpu` is consulted; returning true means the host keeps the
// CST (no further partitioning) and it is NOT sent to `fpga_sink`. The CPU
// has no BRAM constraint, so oversized CSTs are legal there.
// `try_cpu` may move from its argument only when it returns true. An empty
// `try_cpu` keeps nothing on the host. When `try_cpu` is set, every CST
// reaching `fpga_sink` is the one `try_cpu` declined last.
//
// A non-null `record` receives the run as a PartitionPlan: every CST kept by
// `try_cpu` or sent to `fpga_sink`, in that order, and the stats (W_C and
// W_F are the caller's to fill in). The positions are carried through the
// recursion, filtered by the same masks as each sub-CST.
Status PartitionCstWithOffload(const Cst& cst, const MatchingOrder& order,
                               const PartitionConfig& config,
                               const std::function<Status(Cst)>& fpga_sink,
                               const std::function<bool(Cst&)>& try_cpu,
                               PartitionStats* stats = nullptr,
                               PartitionPlan* record = nullptr);

// Convenience wrapper collecting all partitions into a vector.
StatusOr<std::vector<Cst>> PartitionCstToVector(const Cst& cst,
                                                const MatchingOrder& order,
                                                const PartitionConfig& config,
                                                PartitionStats* stats = nullptr);

}  // namespace fast

#endif  // FAST_CST_PARTITION_H_
