#include "core/driver.h"

#include <gtest/gtest.h>

#include "cst/workload.h"
#include "device/device_executor.h"
#include "test_util.h"
#include "util/cancel.h"

namespace fast {
namespace {

using testing::BruteForceCount;
using testing::PaperDataGraph;
using testing::PaperQuery;
using testing::SmallLdbcGraph;

TEST(DriverTest, PaperExampleEndToEnd) {
  QueryGraph q = PaperQuery();
  Graph g = PaperDataGraph();
  auto result = RunFast(q, g).value();
  EXPECT_EQ(result.embeddings, 2u);
  EXPECT_GT(result.total_seconds, 0.0);
  EXPECT_GT(result.kernel_seconds, 0.0);
  EXPECT_GE(result.partition_stats.num_partitions, 1u);
}

TEST(DriverTest, StoresSampleEmbeddings) {
  QueryGraph q = PaperQuery();
  Graph g = PaperDataGraph();
  FastRunOptions options;
  options.store_limit = 10;
  auto result = RunFast(q, g, options).value();
  EXPECT_EQ(result.sample_embeddings.size(), 2u);
}

TEST(DriverTest, RejectsBadDelta) {
  QueryGraph q = PaperQuery();
  Graph g = PaperDataGraph();
  FastRunOptions options;
  options.cpu_share_delta = 1.5;
  EXPECT_FALSE(RunFast(q, g, options).ok());
  options.cpu_share_delta = -0.1;
  EXPECT_FALSE(RunFast(q, g, options).ok());
}

TEST(DriverTest, RejectsInvalidFpgaConfig) {
  QueryGraph q = PaperQuery();
  Graph g = PaperDataGraph();
  FastRunOptions options;
  options.fpga.clock_mhz = -1;
  EXPECT_FALSE(RunFast(q, g, options).ok());
}

TEST(DriverTest, ExplicitOrderIsUsed) {
  QueryGraph q = PaperQuery();
  Graph g = PaperDataGraph();
  FastRunOptions options;
  MatchingOrder order;
  order.root = 0;
  order.order = {0, 2, 1, 3};
  options.explicit_order = order;
  auto result = RunFast(q, g, options).value();
  EXPECT_EQ(result.order.order, order.order);
  EXPECT_EQ(result.embeddings, 2u);
}

TEST(DriverTest, RejectsInvalidExplicitOrder) {
  QueryGraph q = PaperQuery();
  Graph g = PaperDataGraph();
  FastRunOptions options;
  MatchingOrder order;
  order.root = 0;
  order.order = {0, 3, 2, 1};  // u3 before its parent u1
  options.explicit_order = order;
  EXPECT_FALSE(RunFast(q, g, options).ok());
}

class DriverVariantTest : public ::testing::TestWithParam<FastVariant> {};

TEST_P(DriverVariantTest, AllVariantsProduceExactCounts) {
  Graph g = SmallLdbcGraph();
  for (int qi : {0, 2, 5, 8}) {
    QueryGraph q = LdbcQuery(qi).value();
    FastRunOptions options;
    options.variant = GetParam();
    auto result = RunFast(q, g, options).value();
    EXPECT_EQ(result.embeddings, BruteForceCount(q, g)) << q.name();
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, DriverVariantTest,
                         ::testing::Values(FastVariant::kDram, FastVariant::kBasic,
                                           FastVariant::kTask, FastVariant::kSep),
                         [](const auto& info) {
                           std::string n = FastVariantName(info.param);
                           return n.substr(n.find('-') + 1);
                         });

TEST(DriverTest, DramVariantSkipsPartitioning) {
  QueryGraph q = PaperQuery();
  Graph g = PaperDataGraph();
  FastRunOptions options;
  options.variant = FastVariant::kDram;
  auto result = RunFast(q, g, options).value();
  EXPECT_EQ(result.partition_stats.num_partitions, 1u);
  EXPECT_EQ(result.embeddings, 2u);
}

// FAST-DRAM's one partition is the whole CST, inline and on a shared device.
TEST(DriverTest, DramPartitionStatsDescribeTheWholeCst) {
  const Graph g = SmallLdbcGraph(0.1);
  const QueryGraph q = LdbcQuery(8).value();
  FastRunOptions options;
  options.variant = FastVariant::kDram;
  const auto check = [](const FastRunResult& r, const char* where) {
    const PartitionStats& ps = r.partition_stats;
    EXPECT_EQ(ps.num_partitions, 1u) << where;
    EXPECT_EQ(ps.num_recursive_calls, 0u) << where;
    EXPECT_GT(ps.total_size_words, 0u) << where;
    EXPECT_EQ(ps.max_partition_words, ps.total_size_words) << where;
  };
  const FastRunResult inline_run = RunFast(q, g, options).value();
  check(inline_run, "inline");

  device::DeviceOptions dopts;
  dopts.fpga = options.fpga;
  dopts.variant = options.variant;
  device::DeviceExecutor device(dopts);
  device::DeviceSession session(device, "t0", 1, "dram-q8");
  const FastRunResult device_run = RunFast(q, g, options, &session).value();
  check(device_run, "device");
  EXPECT_EQ(device_run.partition_stats, inline_run.partition_stats);
  EXPECT_EQ(device_run.embeddings, inline_run.embeddings);
}

TEST(DriverTest, DramSlowerThanBasicOnSameWorkload) {
  Graph g = SmallLdbcGraph(0.2);
  QueryGraph q = LdbcQuery(8).value();
  FastRunOptions options;
  options.variant = FastVariant::kDram;
  const double dram = RunFast(q, g, options).value().kernel_seconds;
  options.variant = FastVariant::kBasic;
  const double basic = RunFast(q, g, options).value().kernel_seconds;
  EXPECT_GT(dram, basic);
}

TEST(DriverTest, CpuShareProducesSameCountAndNonzeroShare) {
  Graph g = SmallLdbcGraph(0.2);
  QueryGraph q = LdbcQuery(2).value();

  FastRunOptions no_share;
  // Force many partitions so sharing has something to split.
  no_share.partition.max_size_words = 2048;
  no_share.partition.max_degree = 64;
  const auto base = RunFast(q, g, no_share).value();

  FastRunOptions share = no_share;
  share.cpu_share_delta = 0.2;
  const auto shared = RunFast(q, g, share).value();

  EXPECT_EQ(shared.embeddings, base.embeddings);
  if (shared.partition_stats.num_partitions > 1) {
    EXPECT_GT(shared.cpu_partitions, 0u);
    EXPECT_GT(shared.cpu_share_fraction, 0.0);
    EXPECT_LE(shared.cpu_share_fraction, 0.5);
  }
  EXPECT_EQ(shared.fpga_partitions, shared.partition_stats.num_partitions);
  EXPECT_EQ(shared.cpu_partitions, shared.partition_stats.num_cpu_offloaded);
}

TEST(DriverTest, SmallBramForcesMultiplePartitions) {
  Graph g = SmallLdbcGraph(0.2);
  QueryGraph q = LdbcQuery(2).value();
  FastRunOptions options;
  options.partition.max_size_words = 1024;
  options.partition.max_degree = 64;
  auto result = RunFast(q, g, options).value();
  EXPECT_GT(result.partition_stats.num_partitions, 1u);
  EXPECT_EQ(result.embeddings, BruteForceCount(q, g));
}

// A replay of a recorded Alg. 2 run is that run, bit for bit: the same
// partitions in the same order on the card and on the host, so the same
// counters, prices, share and ordered embeddings. Recording changes nothing.
TEST(DriverTest, ReplayReproducesTheRecordedRunBitForBit) {
  const Graph g = SmallLdbcGraph(0.1);
  for (int qi = 0; qi < kNumLdbcQueries; ++qi) {
    const QueryGraph q = LdbcQuery(qi).value();
    const MatchingOrder order = ComputeMatchingOrder(q, g, OrderPolicy::kPathBased).value();
    const Cst cst = BuildCst(q, g, order.root).value();
    for (const double delta : {0.0, 0.3}) {
      SCOPED_TRACE(q.name() + " delta=" + std::to_string(delta));
      FastRunOptions options;
      options.partition.max_size_words = std::max<std::size_t>(cst.SizeWords() / 6, 64);
      options.cpu_share_delta = delta;
      options.store_limit = 1 << 20;
      const FastRunResult plain = RunFastWithCst(cst, order, options).value();
      PartitionPlan plan;
      const FastRunResult recorded =
          RunFastWithCst(cst, order, options, 0.0, nullptr, nullptr, &plan).value();
      const FastRunResult replayed =
          RunFastWithCst(cst, order, options, 0.0, nullptr, &plan, nullptr).value();
      ASSERT_GT(plan.size(), 1u);
      EXPECT_EQ(plan.stats, recorded.partition_stats);
      for (const FastRunResult* r : {&recorded, &replayed}) {
        EXPECT_EQ(r->embeddings, plain.embeddings);
        EXPECT_EQ(r->counters, plain.counters);
        EXPECT_EQ(r->partition_stats, plain.partition_stats);
        EXPECT_EQ(r->fpga_partitions, plain.fpga_partitions);
        EXPECT_EQ(r->cpu_partitions, plain.cpu_partitions);
        EXPECT_EQ(r->cpu_share_fraction, plain.cpu_share_fraction);
        EXPECT_EQ(r->kernel_seconds, plain.kernel_seconds);
        EXPECT_EQ(r->pcie_seconds, plain.pcie_seconds);
        EXPECT_EQ(r->dma_bytes, plain.dma_bytes);
        EXPECT_EQ(r->sample_embeddings, plain.sample_embeddings);
      }
    }
  }
}

// Alg. 3's workload estimates: none at δ = 0 (nothing can be kept on the
// host), and at δ > 0 W_F is the estimates of exactly the card's partitions.
TEST(DriverTest, WorkloadIsEstimatedOnlyForTheShare) {
  const Graph g = SmallLdbcGraph(0.1);
  const QueryGraph q = LdbcQuery(2).value();
  const MatchingOrder order = ComputeMatchingOrder(q, g, OrderPolicy::kPathBased).value();
  const Cst cst = BuildCst(q, g, order.root).value();
  FastRunOptions options;
  options.partition.max_size_words = cst.SizeWords() / 6;
  PartitionPlan plan;
  const FastRunResult none =
      RunFastWithCst(cst, order, options, 0.0, nullptr, nullptr, &plan).value();
  ASSERT_GT(plan.size(), 1u);
  EXPECT_EQ(plan.w_cpu, 0.0);
  EXPECT_EQ(plan.w_fpga, 0.0);
  EXPECT_EQ(none.cpu_share_fraction, 0.0);

  options.cpu_share_delta = 0.3;
  const FastRunResult shared =
      RunFastWithCst(cst, order, options, 0.0, nullptr, nullptr, &plan).value();
  double w_cpu = 0.0;
  double w_fpga = 0.0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const double w = EstimateWorkload(SubsetCst(cst, plan.Partition(i)).value());
    (plan.on_cpu[i] ? w_cpu : w_fpga) += w;
  }
  ASSERT_GT(shared.cpu_partitions, 0u);
  EXPECT_EQ(plan.w_cpu, w_cpu);
  EXPECT_EQ(plan.w_fpga, w_fpga);
  EXPECT_EQ(shared.cpu_share_fraction, w_cpu / (w_cpu + w_fpga));
}

TEST(DriverTest, DramRecordsNoPartitionPlan) {
  const Graph g = PaperDataGraph();
  const QueryGraph q = PaperQuery();
  const MatchingOrder order = ComputeMatchingOrder(q, g, OrderPolicy::kPathBased).value();
  const Cst cst = BuildCst(q, g, order.root).value();
  FastRunOptions options;
  options.variant = FastVariant::kDram;
  PartitionPlan plan;
  const FastRunResult r =
      RunFastWithCst(cst, order, options, 0.0, nullptr, nullptr, &plan).value();
  EXPECT_EQ(r.embeddings, BruteForceCount(q, g));
  EXPECT_EQ(plan.size(), 0u);
}

TEST(DerivePartitionConfigTest, DerivesFromDeviceWhenUnset) {
  FpgaConfig fpga;
  PartitionConfig requested{.max_size_words = 0, .max_degree = 0, .fixed_k = 0};
  PartitionConfig derived = DerivePartitionConfig(fpga, 5, requested);
  EXPECT_GT(derived.max_size_words, 0u);
  EXPECT_LT(derived.max_size_words, fpga.bram_words);
  EXPECT_EQ(derived.max_degree, fpga.port_max);
}

TEST(DerivePartitionConfigTest, ExplicitValuesPassThrough) {
  FpgaConfig fpga;
  PartitionConfig requested{.max_size_words = 777, .max_degree = 33, .fixed_k = 4};
  PartitionConfig derived = DerivePartitionConfig(fpga, 5, requested);
  EXPECT_EQ(derived.max_size_words, 777u);
  EXPECT_EQ(derived.max_degree, 33u);
  EXPECT_EQ(derived.fixed_k, 4);
}

// ---- Multi-FPGA (Sec. VII-E) ----

TEST(MultiFpgaTest, RejectsZeroDevices) {
  EXPECT_FALSE(RunMultiFpga(PaperQuery(), PaperDataGraph(), 0).ok());
}

TEST(MultiFpgaTest, SingleDeviceMatchesSingleRunCount) {
  Graph g = SmallLdbcGraph();
  QueryGraph q = LdbcQuery(2).value();
  auto single = RunMultiFpga(q, g, 1).value();
  EXPECT_EQ(single.embeddings, BruteForceCount(q, g));
  EXPECT_EQ(single.device_seconds.size(), 1u);
}

TEST(MultiFpgaTest, MoreDevicesNeverSlower) {
  Graph g = SmallLdbcGraph(0.2);
  QueryGraph q = LdbcQuery(8).value();
  FastRunOptions options;
  options.partition.max_size_words = 1024;
  options.partition.max_degree = 64;
  auto one = RunMultiFpga(q, g, 1, options).value();
  auto four = RunMultiFpga(q, g, 4, options).value();
  EXPECT_EQ(one.embeddings, four.embeddings);
  ASSERT_EQ(four.device_seconds.size(), 4u);
  const double busiest1 =
      *std::max_element(one.device_seconds.begin(), one.device_seconds.end());
  const double busiest4 =
      *std::max_element(four.device_seconds.begin(), four.device_seconds.end());
  EXPECT_LE(busiest4, busiest1 + 1e-12);
}

TEST(MultiFpgaTest, RejectsInvalidExplicitOrder) {
  FastRunOptions options;
  MatchingOrder order;
  order.root = 0;
  order.order = {0, 3, 2, 1};  // u3 before its parent u1
  options.explicit_order = order;
  EXPECT_FALSE(RunMultiFpga(PaperQuery(), PaperDataGraph(), 2, options).ok());
}

TEST(MultiFpgaTest, TrippedTokenReturnsDeadlineExceeded) {
  CancelToken cancelled;
  cancelled.Cancel();
  FastRunOptions options;
  options.cancel = &cancelled;
  auto r = RunMultiFpga(PaperQuery(), PaperDataGraph(), 2, options);
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

// The makespan is RunFast's composed total over the busiest card, and one
// card prices exactly as the private inline card.
TEST(MultiFpgaTest, OneDevicePricesLikeTheInlineCard) {
  Graph g = SmallLdbcGraph(0.2);
  QueryGraph q = LdbcQuery(8).value();
  FastRunOptions options;
  options.partition.max_size_words = 1024;
  options.partition.max_degree = 64;
  auto inline_r = RunFast(q, g, options).value();
  auto multi = RunMultiFpga(q, g, 1, options).value();
  ASSERT_GT(inline_r.fpga_partitions, 1u);
  EXPECT_EQ(multi.num_partitions, inline_r.fpga_partitions);
  EXPECT_EQ(multi.embeddings, inline_r.embeddings);
  ASSERT_EQ(multi.device_seconds.size(), 1u);
  EXPECT_EQ(multi.device_seconds[0],
            inline_r.kernel_seconds + inline_r.pcie_seconds);
  EXPECT_GE(multi.makespan_seconds, multi.build_seconds + multi.device_seconds[0]);
}

TEST(MultiFpgaTest, WorkSpreadsAcrossDevices) {
  Graph g = SmallLdbcGraph(0.2);
  QueryGraph q = LdbcQuery(2).value();
  FastRunOptions options;
  options.partition.max_size_words = 1024;
  options.partition.max_degree = 64;
  auto r = RunMultiFpga(q, g, 2, options).value();
  if (r.num_partitions >= 2) {
    EXPECT_GT(r.device_seconds[0], 0.0);
    EXPECT_GT(r.device_seconds[1], 0.0);
  }
}

}  // namespace
}  // namespace fast
