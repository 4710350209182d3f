#ifndef PERFBENCH_RECOMPOSE_H_
#define PERFBENCH_RECOMPOSE_H_

// RunFast re-composed from its public steps, with a span around each call:
//
//   query.order    ComputeMatchingOrder
//   cst.build      BuildCst
//   cst.partition  PartitionCst[WithOffload]          (parent span)
//     cst.estimate   EstimateWorkload, in the sink and in the CPU test
//     core.kernel_emu  RunKernel + its simulated pricing, in the sink
//   core.cpu_share MatchCstOnCpu over the CSTs the host kept
//
// A layer's self time is its span minus its children; only cst.partition
// has children. The outcome must equal RunFast's exactly (SameOutcome).

#include <string>

#include "core/driver.h"

namespace perfbench {

struct LayerTimes {
  double order_s = 0.0;
  double build_s = 0.0;
  double partition_span_s = 0.0;
  double estimate_s = 0.0;
  double emu_s = 0.0;
  double cpu_share_s = 0.0;

  double PartitionSelf() const { return partition_span_s - estimate_s - emu_s; }
  double SelfSum() const {
    return order_s + build_s + PartitionSelf() + estimate_s + emu_s + cpu_share_s;
  }
  LayerTimes& operator+=(const LayerTimes& o);
};

struct Recomposed {
  fast::FastRunResult run;
  LayerTimes t;
  std::size_t cst_words = 0;  // the unpartitioned CST
};

// Steps (order) + (1) + RecomposeFromCst.
Recomposed Recompose(const fast::QueryGraph& q, const fast::Graph& g,
                     const fast::FastRunOptions& options);

// Steps (2)-(6) of RunFastWithCst from a built CST and order.
Recomposed RecomposeFromCst(const fast::Cst& cst, const fast::MatchingOrder& order,
                            const fast::FastRunOptions& options);

// Empty when the two runs agree exactly on embeddings, kernel counters and
// partition statistics and, with `pricing`, on simulated kernel/PCIe seconds
// and DMA bytes; otherwise names the first field that differs. The shared
// device prices partitions by its own model and amortizes transfers across
// round-mates, so device-mode results compare without pricing.
std::string Mismatch(const fast::FastRunResult& a, const fast::FastRunResult& b,
                     bool pricing = true);

}  // namespace perfbench

#endif  // PERFBENCH_RECOMPOSE_H_
