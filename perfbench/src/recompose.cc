#include "recompose.h"

#include <algorithm>
#include <chrono>

#include "bench.h"
#include "core/cpu_matcher.h"
#include "cst/cst_serialize.h"
#include "cst/workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

template <typename T>
T OrFail(fast::StatusOr<T> r, const char* step) {
  if (!r.ok()) Fail(std::string(step) + ": " + r.status().ToString());
  return std::move(*r);
}

}  // namespace

LayerTimes& LayerTimes::operator+=(const LayerTimes& o) {
  order_s += o.order_s;
  build_s += o.build_s;
  partition_span_s += o.partition_span_s;
  estimate_s += o.estimate_s;
  emu_s += o.emu_s;
  cpu_share_s += o.cpu_share_s;
  return *this;
}

Recomposed Recompose(const fast::QueryGraph& q, const fast::Graph& g,
                     const fast::FastRunOptions& options) {
  Clock::time_point start = Clock::now();
  const fast::MatchingOrder order =
      OrFail(fast::ComputeMatchingOrder(q, g, options.order_policy), "ComputeMatchingOrder");
  const double order_s = Since(start);
  start = Clock::now();
  const fast::Cst cst = OrFail(fast::BuildCst(q, g, order.root, options.cst_build), "BuildCst");
  const double build_s = Since(start);

  Recomposed out = RecomposeFromCst(cst, order, options);
  out.t.order_s = order_s;
  out.t.build_s = build_s;
  out.run.build_seconds = build_s;
  out.run.total_seconds += build_s;
  return out;
}

Recomposed RecomposeFromCst(const fast::Cst& cst, const fast::MatchingOrder& order,
                            const fast::FastRunOptions& options) {
  if (options.variant == fast::FastVariant::kDram) Fail("FAST-DRAM is not re-composed");
  Recomposed out;
  out.cst_words = cst.SizeWords();
  fast::FastRunResult& result = out.run;
  LayerTimes& t = out.t;
  result.order = order;
  const fast::QueryGraph& q = cst.layout().query();
  const fast::PartitionConfig pconfig =
      fast::DerivePartitionConfig(options.fpga, q.NumVertices(), options.partition);
  fast::ResultCollector collector(options.store_limit);

  double w_cpu = 0.0;
  double w_fpga = 0.0;
  std::vector<fast::Cst> cpu_queue;
  const auto fpga_sink = [&](fast::Cst part) -> fast::Status {
    Clock::time_point start = Clock::now();
    w_fpga += fast::EstimateWorkload(part);
    t.estimate_s += Since(start);
    start = Clock::now();
    FAST_ASSIGN_OR_RETURN(fast::KernelRunResult run,
                          fast::RunKernel(part, result.order, options.fpga, &collector));
    result.counters += run.counters;
    result.embeddings += run.embeddings;
    result.kernel_seconds += fast::SimulatedKernelSeconds(
        options.fpga, options.variant, run, part.SizeWords(), q.NumVertices());
    const std::uint64_t part_bytes = fast::CstWireBytes(part);
    result.dma_bytes += part_bytes;
    result.pcie_seconds += options.fpga.PcieSeconds(static_cast<double>(part_bytes));
    ++result.fpga_partitions;
    t.emu_s += Since(start);
    return fast::Status::OK();
  };

  const Clock::time_point partition_start = Clock::now();
  fast::Status status;
  if (options.cpu_share_delta > 0.0) {
    const auto try_cpu = [&](fast::Cst& part) -> bool {
      const Clock::time_point start = Clock::now();
      const double w = fast::EstimateWorkload(part);
      t.estimate_s += Since(start);
      if (w_cpu + w >= options.cpu_share_delta * (w_cpu + w_fpga + w)) return false;
      w_cpu += w;
      cpu_queue.push_back(std::move(part));
      return true;
    };
    status = fast::PartitionCstWithOffload(cst, result.order, pconfig, fpga_sink, try_cpu,
                                           &result.partition_stats);
  } else {
    status = fast::PartitionCst(cst, result.order, pconfig, fpga_sink, &result.partition_stats);
  }
  t.partition_span_s = Since(partition_start);
  if (!status.ok()) Fail("PartitionCst: " + status.ToString());

  const Clock::time_point share_start = Clock::now();
  for (const fast::Cst& part : cpu_queue) {
    result.embeddings +=
        OrFail(fast::MatchCstOnCpu(part, result.order, &collector), "MatchCstOnCpu");
  }
  t.cpu_share_s = cpu_queue.empty() ? 0.0 : Since(share_start);
  result.cpu_partitions = cpu_queue.size();

  result.partition_seconds = t.partition_span_s;
  result.cpu_share_seconds = t.cpu_share_s;
  result.total_seconds = std::max(result.partition_seconds + result.cpu_share_seconds,
                                  result.pcie_seconds + result.kernel_seconds);
  return out;
}

std::string Mismatch(const fast::FastRunResult& a, const fast::FastRunResult& b,
                     bool pricing) {
  const fast::KernelCounters& ca = a.counters;
  const fast::KernelCounters& cb = b.counters;
  const fast::PartitionStats& pa = a.partition_stats;
  const fast::PartitionStats& pb = b.partition_stats;
  if (a.embeddings != b.embeddings) return "embeddings";
  if (ca.partial_results != cb.partial_results) return "counters.partial_results";
  if (ca.edge_tasks != cb.edge_tasks) return "counters.edge_tasks";
  if (ca.visited_tasks != cb.visited_tasks) return "counters.visited_tasks";
  if (ca.rounds != cb.rounds) return "counters.rounds";
  if (ca.results != cb.results) return "counters.results";
  if (ca.max_buffer_entries != cb.max_buffer_entries) return "counters.max_buffer_entries";
  if (pa.num_partitions != pb.num_partitions) return "partitions";
  if (pa.num_recursive_calls != pb.num_recursive_calls) return "recursive_calls";
  if (pa.total_size_words != pb.total_size_words) return "partition_words";
  if (pa.max_partition_words != pb.max_partition_words) return "max_partition_words";
  if (pa.num_oversized != pb.num_oversized) return "oversized";
  if (pa.num_cpu_offloaded != pb.num_cpu_offloaded) return "cpu_offloaded";
  if (a.fpga_partitions != b.fpga_partitions) return "fpga_partitions";
  if (a.cpu_partitions != b.cpu_partitions) return "cpu_partitions";
  if (!pricing) return "";
  if (a.kernel_seconds != b.kernel_seconds) return "kernel_seconds";
  if (a.pcie_seconds != b.pcie_seconds) return "pcie_seconds";
  if (a.dma_bytes != b.dma_bytes) return "dma_bytes";
  return "";
}

}  // namespace perfbench
