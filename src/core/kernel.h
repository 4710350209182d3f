#ifndef FAST_CORE_KERNEL_H_
#define FAST_CORE_KERNEL_H_

// The FAST matching kernel (paper Algs. 4-8, Sec. VI).
//
// The kernel decomposes backtracking into four data-parallel stages --
// Generator, Visited Validator, Edge Validator, Synchronizer -- and pushes
// batches of up to N_o partial results through them per round, which is what
// lets every stage run as a fully pipelined loop on the FPGA. This module
// executes those stages *functionally* (bit-exact embeddings) while counting
// the workload quantities N, M, rounds and buffer occupancy that the cycle
// model (fpga/cycle_model.h) converts into simulated kernel time per variant.
//
// The intermediate-result buffer P is BRAM-only: partial results are grouped
// by depth and the deepest level is always expanded first, which bounds every
// level at N_o entries and the whole buffer at (|V(q)|-1)*N_o (Sec. VI-B).

#include <cstdint>

#include "cst/cst.h"
#include "core/result_collector.h"
#include "fpga/config.h"
#include "fpga/cycle_model.h"
#include "fpga/pipeline_sim.h"
#include "query/matching_order.h"
#include "util/cancel.h"
#include "util/status.h"

namespace fast {

struct KernelRunResult {
  KernelCounters counters;
  std::uint64_t embeddings = 0;
};

// Runs the matching kernel over one CST partition.
//
// `order` must be a tree-connected matching order whose root equals the CST's
// BFS-tree root. Results are reported to `collector` (may be null to count
// only within the returned counters). When `round_trace` is non-null, one
// RoundWork entry is appended per Generator round, suitable for the
// cycle-stepped pipeline simulation (fpga/pipeline_sim.h). A non-null
// `cancel` token is probed once per Generator round; a tripped token aborts
// the run with DEADLINE_EXCEEDED (partial counters are discarded).
StatusOr<KernelRunResult> RunKernel(const Cst& cst, const MatchingOrder& order,
                                    const FpgaConfig& config,
                                    ResultCollector* collector,
                                    std::vector<RoundWork>* round_trace = nullptr,
                                    const CancelToken* cancel = nullptr);

// Simulated kernel seconds for one partition under `variant` from its
// matching-phase cycles (closed-form inline, cycle-stepped on the shared
// device): matching + result flush + CST DMA load (absent for FAST-DRAM).
double PartitionKernelSeconds(const FpgaConfig& config, FastVariant variant,
                              double matching_cycles, std::uint64_t embeddings,
                              std::size_t cst_words, std::size_t query_size);

// PartitionKernelSeconds with the closed-form matching cycles (Eqs. 1-4).
double SimulatedKernelSeconds(const FpgaConfig& config, FastVariant variant,
                              const KernelRunResult& run, std::size_t cst_words,
                              std::size_t query_size);

}  // namespace fast

#endif  // FAST_CORE_KERNEL_H_
