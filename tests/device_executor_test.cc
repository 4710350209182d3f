// Tests for the shared device executor (src/device/): correctness of
// device-routed matching vs the inline driver path (one pipeline, three
// cards), cross-query batch coalescing and transfer dedup, WRR fairness
// between a hot and a cold tenant's partition streams, mid-batch
// cancellation, and shutdown.

#include <atomic>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/driver.h"
#include "cst/cst.h"
#include "device/device_executor.h"
#include "ldbc/ldbc.h"
#include "query/matching_order.h"
#include "tests/test_util.h"
#include "util/cancel.h"

namespace fast {
namespace {

using device::DeviceExecutor;
using device::DeviceOptions;
using device::DeviceSession;
using device::DeviceStats;
using testing::BruteForceCount;
using testing::PaperDataGraph;
using testing::PaperQuery;

// A device model small enough that tests run instantly; matches the serve
// benches' scaled-down card.
DeviceOptions SmallDeviceOptions() {
  DeviceOptions opts;
  opts.fpga.bram_words = 128 * 1024;
  opts.fpga.port_max = 65536;
  opts.fpga.max_new_partials = 1024;
  return opts;
}

struct Plan {
  MatchingOrder order;
  Cst cst;
};

Plan BuildPlan(const QueryGraph& q, const Graph& g) {
  auto order = ComputeMatchingOrder(q, g, OrderPolicy::kPathBased);
  FAST_CHECK(order.ok());
  auto cst = BuildCst(q, g, order->root, {});
  FAST_CHECK(cst.ok());
  return {*std::move(order), *std::move(cst)};
}

// The pipeline on a fresh session of `device`.
StatusOr<FastRunResult> RunOnDevice(DeviceExecutor& device, const Plan& plan,
                                    const FastRunOptions& run,
                                    const std::string& queue_key,
                                    std::uint64_t epoch,
                                    const std::string& plan_key) {
  DeviceSession session(device, queue_key, epoch, plan_key);
  return RunFastWithCst(plan.cst, plan.order, run, /*build_seconds=*/0.0,
                        &session);
}

TEST(DeviceExecutorTest, DeviceRoutedRunMatchesInlineDriver) {
  const Graph g = PaperDataGraph();
  const QueryGraph q = PaperQuery();
  const Plan plan = BuildPlan(q, g);

  FastRunOptions run;
  run.fpga = SmallDeviceOptions().fpga;
  run.store_limit = 16;
  auto inline_result = RunFastWithCst(plan.cst, plan.order, run);
  ASSERT_TRUE(inline_result.ok());

  DeviceExecutor device(SmallDeviceOptions());
  auto device_result = RunOnDevice(device, plan, run, "t0", 1, "paper-q");
  ASSERT_TRUE(device_result.ok());

  EXPECT_EQ(device_result->embeddings, BruteForceCount(q, g));
  EXPECT_EQ(device_result->embeddings, inline_result->embeddings);
  EXPECT_EQ(testing::ToSet(device_result->sample_embeddings),
            testing::ToSet(inline_result->sample_embeddings));
  EXPECT_GE(device_result->fpga_partitions, 1u);
  EXPECT_GT(device_result->pcie_seconds, 0.0);
  EXPECT_GT(device_result->kernel_seconds, 0.0);

  const DeviceStats stats = device.stats();
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_GE(stats.rounds, 1u);
  EXPECT_EQ(stats.items, device_result->fpga_partitions);
  EXPECT_GT(stats.wire_bytes, stats.payload_bytes);  // per-round DMA overhead
}

TEST(DeviceExecutorTest, BatchCoalescesConcurrentQueriesIntoOneRound) {
  const Graph g = PaperDataGraph();
  const QueryGraph q = PaperQuery();
  const Plan plan = BuildPlan(q, g);

  DeviceOptions opts = SmallDeviceOptions();
  opts.batch_window_seconds = 0.2;  // generous: both submitters land inside
  opts.max_batch_items = 64;
  DeviceExecutor device(opts);

  FastRunOptions run;
  run.fpga = opts.fpga;
  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  for (int i = 0; i < 2; ++i) {
    submitters.emplace_back([&, i] {
      // Distinct tenants, same canonical plan: the batch must mix them.
      auto r = RunOnDevice(device, plan, run, "t" + std::to_string(i), 1,
                           "paper-q");
      if (!r.ok() || r->embeddings != BruteForceCount(q, g)) failures.fetch_add(1);
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(failures.load(), 0);

  const DeviceStats stats = device.stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.rounds, 1u);  // one shared round for both queries
  EXPECT_EQ(stats.max_queries_per_round, 2u);
  EXPECT_GT(stats.QueriesPerRound(), 1.0);
}

TEST(DeviceExecutorTest, IdenticalImagesInOneRoundTransferOnce) {
  const Graph g = PaperDataGraph();
  const QueryGraph q = PaperQuery();
  const Plan plan = BuildPlan(q, g);

  DeviceOptions opts = SmallDeviceOptions();
  opts.batch_window_seconds = 0.2;
  opts.max_batch_items = 64;
  DeviceExecutor device(opts);

  FastRunOptions run;
  run.fpga = opts.fpga;
  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  for (int i = 0; i < 2; ++i) {
    submitters.emplace_back([&] {
      // SAME tenant, epoch and plan key: bit-identical partition images.
      auto r = RunOnDevice(device, plan, run, "t0", 1, "paper-q");
      if (!r.ok() || r->embeddings != BruteForceCount(q, g)) failures.fetch_add(1);
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(failures.load(), 0);

  const DeviceStats stats = device.stats();
  ASSERT_EQ(stats.rounds, 1u);
  // The duplicate query's images rode the first transfer for free.
  EXPECT_GT(stats.dedup_bytes_saved, 0u);
  EXPECT_EQ(stats.dedup_bytes_saved, stats.payload_bytes);
}

// A hot tenant flooding the device queue must not starve a cold tenant's
// partitions. The WRR dequeue interleaves queues per round, so the cold
// query's items land in the first round formed after they arrive — the same
// round structure it gets running solo — instead of queueing behind the
// whole hot backlog.
TEST(DeviceExecutorTest, ColdTenantRidesFirstRoundDespiteHotFlood) {
  const Graph g = PaperDataGraph();
  const QueryGraph q = PaperQuery();
  const Plan plan = BuildPlan(q, g);
  ASSERT_GT(BruteForceCount(q, g), 0u);  // the gate below needs an embedding

  DeviceOptions opts = SmallDeviceOptions();
  opts.batch_window_seconds = 0.2;  // all items below enqueue within this
  opts.max_batch_items = 4;
  constexpr std::size_t kHotItems = 16;
  constexpr std::size_t kColdItems = 2;

  // Solo baseline: the cold tenant alone finishes within its first round.
  std::uint64_t solo_last_round;
  {
    DeviceExecutor device(opts);
    ResultCollector collector;
    DeviceSession cold(device, "cold", 1, "kc");
    cold.Open(plan.order, &collector, nullptr);
    for (std::size_t i = 0; i < kColdItems; ++i) {
      ASSERT_TRUE(cold.Submit(plan.cst).ok());
    }
    auto r = cold.Finish();
    ASSERT_TRUE(r.ok());
    solo_last_round = cold.rounds().second;
    EXPECT_EQ(cold.rounds().first, 1u);
    EXPECT_EQ(r->partitions, kColdItems);
  }

  // Flooded: 16 hot items enqueued BEFORE the cold query's 2. The hot
  // collector's callback runs on the device thread and holds the round in
  // flight until the cold items are queued, so the device cannot drain the
  // hot backlog first however the threads are scheduled.
  DeviceExecutor device(opts);
  std::atomic<bool> cold_queued{false};
  ResultCollector hot_collector;
  hot_collector.SetCallback([&](std::span<const VertexId>) {
    while (!cold_queued.load()) std::this_thread::yield();
  });
  ResultCollector cold_collector;
  DeviceSession hot(device, "hot", 1, "kh");
  hot.Open(plan.order, &hot_collector, nullptr);
  // EXPECT, not ASSERT, from here on: an early return would leave the
  // device thread waiting on the gate.
  for (std::size_t i = 0; i < kHotItems; ++i) {
    EXPECT_TRUE(hot.Submit(plan.cst).ok());
  }
  // Rounds already published, plus at most the one in flight (all hot,
  // popped before the cold items arrived), precede the cold query's round.
  const std::uint64_t rounds_before_cold = device.stats().rounds;
  DeviceSession cold(device, "cold", 1, "kc");
  cold.Open(plan.order, &cold_collector, nullptr);
  for (std::size_t i = 0; i < kColdItems; ++i) {
    EXPECT_TRUE(cold.Submit(plan.cst).ok());
  }
  cold_queued.store(true);
  auto cold_r = cold.Finish();
  auto hot_r = hot.Finish();
  ASSERT_TRUE(cold_r.ok());
  ASSERT_TRUE(hot_r.ok());
  EXPECT_EQ(cold_r->partitions, kColdItems);
  EXPECT_EQ(hot_r->partitions, kHotItems);
  // A/B vs solo: after the round in flight, the cold query needs no more
  // rounds than it does alone — never the 4+ rounds the hot backlog needs.
  EXPECT_LE(cold.rounds().second, rounds_before_cold + 1 + solo_last_round);
  EXPECT_LT(cold.rounds().second, hot.rounds().second);
  EXPECT_GE(hot.rounds().second, 4u);  // 16 items at <= 4 per round
  // Each item of the flood still matched correctly.
  EXPECT_EQ(cold_r->embeddings, kColdItems * BruteForceCount(q, g));
  EXPECT_EQ(hot_r->embeddings, kHotItems * BruteForceCount(q, g));
}

TEST(DeviceExecutorTest, TrippedTokenSkipsItemsMidBatch) {
  const Graph g = PaperDataGraph();
  const QueryGraph q = PaperQuery();
  const Plan plan = BuildPlan(q, g);

  DeviceExecutor device(SmallDeviceOptions());
  CancelToken cancelled;
  cancelled.Cancel();
  ResultCollector collector;
  DeviceSession session(device, "t0", 1, "paper-q");
  session.Open(plan.order, &collector, &cancelled);
  ASSERT_TRUE(session.Submit(plan.cst).ok());
  ASSERT_TRUE(session.Submit(plan.cst).ok());
  auto r = session.Finish();
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(session.rounds().second, 0u);  // no round matched an item
  EXPECT_EQ(collector.count(), 0u);
  const DeviceStats stats = device.stats();
  EXPECT_EQ(stats.cancelled_items, 2u);
  EXPECT_EQ(stats.items, 0u);
  EXPECT_EQ(stats.payload_bytes, 0u);  // skipped items never transfer
}

TEST(DeviceExecutorTest, ShutdownDrainsThenRejectsNewWork) {
  const Graph g = PaperDataGraph();
  const QueryGraph q = PaperQuery();
  const Plan plan = BuildPlan(q, g);

  DeviceExecutor device(SmallDeviceOptions());
  FastRunOptions run;
  run.fpga = device.options().fpga;
  auto before = RunOnDevice(device, plan, run, "t0", 1, "k");
  ASSERT_TRUE(before.ok());

  device.Shutdown();
  ResultCollector collector;
  DeviceSession session(device, "t0", 1, "k");
  session.Open(plan.order, &collector, nullptr);
  EXPECT_EQ(session.Submit(plan.cst).code(), StatusCode::kFailedPrecondition);
  auto after = RunOnDevice(device, plan, run, "t0", 1, "k");
  EXPECT_FALSE(after.ok());
}

// One pipeline, three cards: the private inline card, a one-card
// RunMultiFpga set and a shared-device session match the same partitions
// and return the same answers. A tight partition budget makes most queries
// multi-partition.
TEST(UnifiedPipelineTest, InlineMultiFpgaAndDeviceCardsAgree) {
  const Graph g = testing::SmallLdbcGraph();
  DeviceExecutor device(SmallDeviceOptions());
  FastRunOptions run;
  run.fpga = device.options().fpga;
  run.partition.max_size_words = 1024;
  run.partition.max_degree = 64;
  std::size_t multi_partition_queries = 0;
  for (int qi = 0; qi < 9; ++qi) {
    SCOPED_TRACE("q" + std::to_string(qi));
    const QueryGraph q = LdbcQuery(qi).value();
    const Plan plan = BuildPlan(q, g);
    auto inline_r = RunFastWithCst(plan.cst, plan.order, run);
    auto device_r = RunOnDevice(device, plan, run, "t0", 1, q.name());
    auto multi = RunMultiFpga(q, g, 1, run);
    ASSERT_TRUE(inline_r.ok());
    ASSERT_TRUE(device_r.ok());
    ASSERT_TRUE(multi.ok());
    if (inline_r->fpga_partitions > 1) ++multi_partition_queries;

    EXPECT_EQ(device_r->embeddings, inline_r->embeddings);
    EXPECT_EQ(device_r->counters, inline_r->counters);
    EXPECT_EQ(device_r->partition_stats, inline_r->partition_stats);
    EXPECT_EQ(device_r->fpga_partitions, inline_r->fpga_partitions);

    EXPECT_EQ(multi->embeddings, inline_r->embeddings);
    EXPECT_EQ(multi->num_partitions, inline_r->fpga_partitions);
    ASSERT_EQ(multi->device_seconds.size(), 1u);
    EXPECT_EQ(multi->device_seconds[0],
              inline_r->kernel_seconds + inline_r->pcie_seconds);
  }
  EXPECT_GT(multi_partition_queries, 0u);
}

// FAST-DRAM never partitions, on any card: the device matches the whole CST
// as one item, as the inline card does.
TEST(UnifiedPipelineTest, DeviceDramRunsTheWholeCstAsOnePartition) {
  const Graph g = testing::SmallLdbcGraph();
  const QueryGraph q = LdbcQuery(8).value();
  const Plan plan = BuildPlan(q, g);
  DeviceOptions opts = SmallDeviceOptions();
  opts.variant = FastVariant::kDram;
  DeviceExecutor device(opts);
  FastRunOptions run;
  run.fpga = opts.fpga;
  run.partition.max_size_words = 1024;
  run.partition.max_degree = 64;
  // The same budget splits the CST for a partitioning variant.
  ASSERT_GT(RunFastWithCst(plan.cst, plan.order, run)->fpga_partitions, 1u);

  run.variant = FastVariant::kDram;
  auto inline_r = RunFastWithCst(plan.cst, plan.order, run);
  auto device_r = RunOnDevice(device, plan, run, "t0", 1, "q8");
  ASSERT_TRUE(inline_r.ok());
  ASSERT_TRUE(device_r.ok());
  EXPECT_EQ(inline_r->fpga_partitions, 1u);
  EXPECT_EQ(device_r->fpga_partitions, 1u);
  EXPECT_EQ(device_r->partition_stats, inline_r->partition_stats);
  EXPECT_EQ(device_r->partition_seconds, 0.0);
  EXPECT_EQ(device_r->embeddings, inline_r->embeddings);
  EXPECT_EQ(device_r->counters, inline_r->counters);
  EXPECT_EQ(device.stats().items, 1u);
}

// Many submitters hammering one executor: every query's counts must come out
// right regardless of how rounds interleave. Primarily a TSan target.
TEST(DeviceExecutorTest, ConcurrentSubmittersAllMatchCorrectly) {
  const Graph g = PaperDataGraph();
  const QueryGraph q = PaperQuery();
  const Plan plan = BuildPlan(q, g);
  const std::uint64_t expected = BruteForceCount(q, g);

  DeviceOptions opts = SmallDeviceOptions();
  opts.batch_window_seconds = 1e-4;
  opts.max_batch_items = 3;
  DeviceExecutor device(opts);

  FastRunOptions run;
  run.fpga = opts.fpga;
  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        auto r = RunOnDevice(device, plan, run, "t" + std::to_string(t % 2), 1,
                             "paper-q");
        if (!r.ok() || r->embeddings != expected) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : submitters) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(device.stats().queries,
            static_cast<std::uint64_t>(kThreads * kQueriesPerThread));
}

}  // namespace
}  // namespace fast
