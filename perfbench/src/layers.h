#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// The per-layer metric set every traced run prints (BENCHMARK.json
// "per_layer"). A workload fills what its path runs; a layer that is not on
// its path reads 0 (METRICS.md, per-layer table).

#include <cstdint>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "core/driver.h"
#include "recompose.h"

namespace perfbench {

struct LayerMetrics {
  // Host layer times per pass over q0-q8, reference-scaled, in ms.
  double order_ms = 0, build_ms = 0, partition_ms = 0, estimate_ms = 0;
  double kernel_emu_ms = 0, cpu_share_ms = 0;
  double emu_ns_per_partial = 0;
  double decode_us_p50 = 0;
  // Service spans (serve-*), reference-scaled.
  double queue_ms_p50 = 0, plan_lookup_us_p50 = 0, remap_us_p50 = 0;
  double unattributed_us_p50 = 0;
  double hit_ratio = 0, invalidations = 0;
  double apply_delta_ms_p50 = 0, swaps = 0;
  double device_wait_ms_p50 = 0, device_rounds = 0, items_per_round = 0;
  double ref_ms = 0, trace_overhead_pct = 0;
};

// Exact per-pass counts of one q0-q8 pass on one graph state, from the
// per-query results (index = query).
struct PassCounts {
  double partitions = 0, words = 0, blowup = 0;
  double partial_results = 0, edge_tasks = 0, rounds = 0;
  double kernel_sim_ms = 0, pcie_sim_ms = 0, dma_bytes = 0;
};
PassCounts CountPass(const std::vector<fast::FastRunResult>& per_query,
                     const std::vector<std::size_t>& cst_words);

std::vector<Metric> LayerMetricList(const LayerMetrics& l, const PassCounts& c);

// Adds <prefix>q<i>.<field> exact counts of one query's result to `exact`.
void AddExactCounts(const std::string& prefix, std::size_t query,
                    const fast::FastRunResult& r, std::map<std::string, std::uint64_t>* exact);


}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
