#include "layers.h"

namespace perfbench {

PassCounts CountPass(const std::vector<fast::FastRunResult>& per_query,
                     const std::vector<std::size_t>& cst_words) {
  PassCounts c;
  double unpartitioned = 0;
  for (std::size_t i = 0; i < per_query.size(); ++i) {
    const fast::FastRunResult& r = per_query[i];
    c.partitions += static_cast<double>(r.partition_stats.num_partitions);
    c.words += static_cast<double>(r.partition_stats.total_size_words);
    unpartitioned += static_cast<double>(cst_words[i]);
    c.partial_results += static_cast<double>(r.counters.partial_results);
    c.edge_tasks += static_cast<double>(r.counters.edge_tasks);
    c.rounds += static_cast<double>(r.counters.rounds);
    c.kernel_sim_ms += r.kernel_seconds * 1e3;
    c.pcie_sim_ms += r.pcie_seconds * 1e3;
    c.dma_bytes += static_cast<double>(r.dma_bytes);
  }
  c.blowup = unpartitioned > 0 ? c.words / unpartitioned : 0.0;
  return c;
}

std::vector<Metric> LayerMetricList(const LayerMetrics& l, const PassCounts& c) {
  return {
      Plain("query.order_ms", "ms", l.order_ms),
      Plain("cst.build_ms", "ms", l.build_ms),
      Plain("cst.partition_ms", "ms", l.partition_ms),
      Plain("cst.estimate_ms", "ms", l.estimate_ms),
      Plain("cst.partitions", "count", c.partitions),
      Plain("cst.words", "count", c.words),
      Plain("cst.partition_blowup", "ratio", c.blowup),
      Plain("cst.decode_us_p50", "us", l.decode_us_p50),
      Plain("core.kernel_emu_ms", "ms", l.kernel_emu_ms),
      Plain("core.emu_ns_per_partial", "ns", l.emu_ns_per_partial),
      Plain("core.partial_results", "count", c.partial_results),
      Plain("core.edge_tasks", "count", c.edge_tasks),
      Plain("core.rounds", "count", c.rounds),
      Plain("core.cpu_share_ms", "ms", l.cpu_share_ms),
      Plain("fpga.kernel_sim_ms", "ms", c.kernel_sim_ms),
      Plain("fpga.pcie_sim_ms", "ms", c.pcie_sim_ms),
      Plain("fpga.dma_bytes", "bytes", c.dma_bytes),
      Plain("service.queue_ms_p50", "ms", l.queue_ms_p50),
      Plain("service.plan_lookup_us_p50", "us", l.plan_lookup_us_p50),
      Plain("service.remap_us_p50", "us", l.remap_us_p50),
      Plain("service.unattributed_us_p50", "us", l.unattributed_us_p50),
      Plain("plan_cache.hit_ratio", "ratio", l.hit_ratio),
      Plain("plan_cache.invalidations", "count", l.invalidations),
      Plain("graph.apply_delta_ms_p50", "ms", l.apply_delta_ms_p50),
      Plain("graph.swaps", "count", l.swaps),
      Plain("device.wait_ms_p50", "ms", l.device_wait_ms_p50),
      Plain("device.rounds", "count", l.device_rounds),
      Plain("device.items_per_round", "count", l.items_per_round),
      Plain("host.ref_ms", "ms", l.ref_ms),
      Plain("obs.trace_overhead_pct", "%", l.trace_overhead_pct),
  };
}

void AddExactCounts(const std::string& prefix, std::size_t query,
                    const fast::FastRunResult& r, std::map<std::string, std::uint64_t>* exact) {
  const std::string q = prefix + "q" + std::to_string(query) + ".";
  (*exact)[q + "embeddings"] = r.embeddings;
  (*exact)[q + "partial_results"] = r.counters.partial_results;
  (*exact)[q + "edge_tasks"] = r.counters.edge_tasks;
  (*exact)[q + "rounds"] = r.counters.rounds;
  (*exact)[q + "partitions"] = r.partition_stats.num_partitions;
  (*exact)[q + "partition_words"] = r.partition_stats.total_size_words;
}

}  // namespace perfbench
