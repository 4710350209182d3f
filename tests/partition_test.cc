#include "cst/partition.h"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "core/cpu_matcher.h"
#include "cst/workload.h"
#include "graph/generators.h"
#include "test_util.h"

namespace fast {
namespace {

using testing::PaperDataGraph;
using testing::PaperQuery;
using testing::SmallLdbcGraph;

MatchingOrder PaperOrder() {
  MatchingOrder order;
  order.root = 0;
  order.order = {0, 1, 2, 3};
  return order;
}

TEST(PartitionTest, NoPartitionNeededWhenUnderThresholds) {
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  PartitionConfig config;  // huge defaults
  PartitionStats stats;
  auto parts = PartitionCstToVector(cst, PaperOrder(), config, &stats).value();
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(stats.num_partitions, 1u);
  EXPECT_EQ(parts[0].SizeWords(), cst.SizeWords());
}

TEST(PartitionTest, RejectsZeroThresholds) {
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  PartitionConfig config;
  config.max_size_words = 0;
  EXPECT_FALSE(PartitionCstToVector(cst, PaperOrder(), config, nullptr).ok());
}

TEST(PartitionTest, RejectsMismatchedOrder) {
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  MatchingOrder bad;
  bad.root = 1;
  bad.order = {1, 0, 2, 3};
  PartitionConfig config;
  EXPECT_FALSE(PartitionCstToVector(cst, bad, config, nullptr).ok());
}

TEST(PartitionTest, SplitsRootCandidatesDisjointly) {
  // Force a split at the root (Example 3).
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  PartitionConfig config;
  config.max_size_words = cst.SizeWords() - 1;  // must split at least once
  PartitionStats stats;
  auto parts = PartitionCstToVector(cst, PaperOrder(), config, &stats).value();
  ASSERT_GE(parts.size(), 2u);
  // Root candidate sets are pairwise disjoint and cover the original.
  std::multiset<VertexId> roots;
  for (const auto& p : parts) {
    EXPECT_TRUE(p.Validate().ok());
    for (VertexId v : p.Candidates(0)) roots.insert(v);
  }
  std::multiset<VertexId> expected(cst.Candidates(0).begin(), cst.Candidates(0).end());
  EXPECT_EQ(roots, expected);
}

TEST(PartitionTest, PartitionsRespectSizeThreshold) {
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  PartitionConfig config;
  config.max_size_words = cst.SizeWords() / 2 + 8;
  PartitionStats stats;
  auto parts = PartitionCstToVector(cst, PaperOrder(), config, &stats).value();
  for (const auto& p : parts) {
    EXPECT_LE(p.SizeWords(), config.max_size_words);
  }
  EXPECT_EQ(stats.num_oversized, 0u);
  EXPECT_EQ(stats.num_partitions, parts.size());
  EXPECT_GT(stats.num_recursive_calls, 0u);
}

TEST(PartitionTest, DegreeThresholdForcesSplit) {
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  ASSERT_GT(cst.MaxAdjacencyDegree(), 1u);
  PartitionConfig config;
  config.max_degree = 1;
  auto parts = PartitionCstToVector(cst, PaperOrder(), config, nullptr).value();
  EXPECT_GT(parts.size(), 1u);
}

TEST(PartitionTest, EmbeddingCountPreservedAcrossPartitions) {
  // The union of partition search spaces equals the original search space,
  // with no duplicates (Example 3's "no repeated results").
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  ResultCollector whole_collector(64);
  const std::uint64_t whole =
      MatchCstOnCpu(cst, PaperOrder(), &whole_collector).value();

  for (std::size_t budget : {cst.SizeWords() - 1, cst.SizeWords() / 2, std::size_t{24}}) {
    PartitionConfig config;
    config.max_size_words = budget;
    auto parts = PartitionCstToVector(cst, PaperOrder(), config, nullptr).value();
    std::uint64_t total = 0;
    ResultCollector part_collector(64);
    for (const auto& p : parts) {
      total += MatchCstOnCpu(p, PaperOrder(), &part_collector).value();
    }
    EXPECT_EQ(total, whole) << "budget=" << budget;
    // Same embedding sets, not just counts.
    EXPECT_EQ(testing::ToSet(part_collector.stored()),
              testing::ToSet(whole_collector.stored()));
  }
}

TEST(PartitionTest, FixedKProducesAtLeastKParts) {
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  PartitionConfig config;
  config.max_size_words = cst.SizeWords() - 1;
  config.fixed_k = 2;
  PartitionStats stats;
  auto parts = PartitionCstToVector(cst, PaperOrder(), config, &stats).value();
  EXPECT_GE(parts.size(), 2u);
}

TEST(PartitionTest, SinkErrorStopsPartitioning) {
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  PartitionConfig config;
  config.max_size_words = 24;
  int calls = 0;
  Status s = PartitionCst(
      cst, PaperOrder(), config,
      [&](Cst) {
        ++calls;
        return Status::Internal("stop");
      },
      nullptr);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(calls, 1);
}

TEST(PartitionTest, TinyBudgetTerminatesViaOversizedEmission) {
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  PartitionConfig config;
  config.max_size_words = 1;  // impossible to satisfy
  PartitionStats stats;
  auto parts = PartitionCstToVector(cst, PaperOrder(), config, &stats).value();
  EXPECT_GT(parts.size(), 0u);
  EXPECT_GT(stats.num_oversized, 0u);
}

// ---- Partition plans: every partition is the root's induced sub-CST. ----

// The root CST's induced sub-CST on `part`'s candidate sets, found by data
// vertex id (independent of any recorded positions).
Cst InducedOnCandidates(const Cst& root, const Cst& part) {
  std::vector<std::vector<char>> keep(root.NumQueryVertices());
  for (VertexId u = 0; u < root.NumQueryVertices(); ++u) {
    const auto cands = root.Candidates(u);
    keep[u].assign(cands.size(), 0);
    for (const VertexId v : part.Candidates(u)) {
      const auto it = std::lower_bound(cands.begin(), cands.end(), v);
      FAST_CHECK(it != cands.end() && *it == v);
      keep[u][static_cast<std::size_t>(it - cands.begin())] = 1;
    }
  }
  return SubsetCst(root, keep).value();
}

// Runs Alg. 2 with Alg. 3's δ-share as the driver does, recording the run,
// and checks every partition it hands out (to the card or to the host):
// it equals the root's induced sub-CST on its candidate sets, and the
// recorded plan rebuilds it exactly, in emission order. Returns the plan.
PartitionPlan CheckPartitionsAreInducedSubCsts(const Cst& root, const MatchingOrder& order,
                                               const PartitionConfig& config, double delta) {
  std::vector<Cst> handed_out;
  std::vector<char> on_cpu;
  double w_cpu = 0.0;
  double w_fpga = 0.0;
  std::function<bool(Cst&)> try_cpu;
  if (delta > 0.0) {
    try_cpu = [&](Cst& part) {
      const double w = EstimateWorkload(part);
      if (w_cpu + w >= delta * (w_cpu + w_fpga + w)) return false;
      w_cpu += w;
      handed_out.push_back(std::move(part));
      on_cpu.push_back(1);
      return true;
    };
  }
  const auto sink = [&](Cst part) {
    w_fpga += EstimateWorkload(part);
    handed_out.push_back(std::move(part));
    on_cpu.push_back(0);
    return Status::OK();
  };
  PartitionStats stats;
  PartitionPlan plan;
  const Status status =
      PartitionCstWithOffload(root, order, config, sink, try_cpu, &stats, &plan);
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_EQ(plan.size(), handed_out.size());
  if (plan.size() != handed_out.size()) return plan;
  EXPECT_EQ(plan.on_cpu, on_cpu);
  EXPECT_EQ(plan.stats, stats);
  EXPECT_EQ(plan.words_per_partition, CandidateBitsOffsets(root).back());
  EXPECT_EQ(plan.bits.size(), plan.size() * plan.words_per_partition);
  if (delta > 0.0) {
    EXPECT_EQ(stats.num_cpu_offloaded + stats.num_partitions, plan.size());
  }
  for (std::size_t i = 0; i < handed_out.size(); ++i) {
    SCOPED_TRACE("partition " + std::to_string(i));
    EXPECT_TRUE(testing::SameCst(InducedOnCandidates(root, handed_out[i]), handed_out[i]));
    StatusOr<Cst> rebuilt = SubsetCst(root, plan.Partition(i));
    EXPECT_TRUE(rebuilt.ok()) << rebuilt.status();
    if (rebuilt.ok()) {
      EXPECT_TRUE(testing::SameCst(*rebuilt, handed_out[i]));
    }
  }
  return plan;
}

// A labelled query over vertices 0..labels.size()-1 with the given edges.
QueryGraph MakeQuery(const std::vector<Label>& labels,
                     const std::vector<std::pair<VertexId, VertexId>>& edges,
                     const std::string& name) {
  GraphBuilder b;
  for (const Label l : labels) b.AddVertex(l);
  for (const auto& [u, w] : edges) FAST_CHECK_OK(b.AddEdge(u, w));
  return QueryGraph::Create(std::move(b).Build().value(), name).value();
}

struct SweepCase {
  std::string name;
  Graph graph;
  QueryGraph query;
};

std::vector<SweepCase> SweepCases() {
  std::vector<SweepCase> cases;
  const Graph ldbc = SmallLdbcGraph();
  for (int qi = 0; qi < kNumLdbcQueries; ++qi) {
    cases.push_back({"ldbc", ldbc, LdbcQuery(qi).value()});
  }
  const std::vector<QueryGraph> shapes = {
      MakeQuery({0, 1, 2}, {{0, 1}, {1, 2}, {0, 2}}, "triangle"),
      MakeQuery({0, 1, 0, 1}, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}, "square"),
      MakeQuery({0, 1, 2, 0, 1}, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {1, 3}},
                "chorded-path")};
  const Graph er = GenerateErdosRenyi(500, 2500, 3, 5).value();
  const Graph ba = GenerateBarabasiAlbert(500, 4, 3, 6).value();
  for (const QueryGraph& q : shapes) {
    cases.push_back({"erdos-renyi", er, q});
    cases.push_back({"barabasi-albert", ba, q});
  }
  return cases;
}

TEST(PartitionPlanTest, EveryPartitionIsTheRootsInducedSubCst) {
  std::size_t split_runs = 0;
  std::size_t host_partitions = 0;
  for (const SweepCase& c : SweepCases()) {
    const MatchingOrder order =
        ComputeMatchingOrder(c.query, c.graph, OrderPolicy::kPathBased).value();
    const Cst root = BuildCst(c.query, c.graph, order.root).value();
    for (const double delta : {0.0, 0.3}) {
      for (const bool prune : {true, false}) {
        for (const int k : {0, 2, 3, 7}) {
          SCOPED_TRACE(c.name + " " + c.query.name() + " delta=" + std::to_string(delta) +
                       " prune=" + std::to_string(prune) + " k=" + std::to_string(k));
          PartitionConfig config;
          config.max_size_words = std::max<std::size_t>(root.SizeWords() / 5, 32);
          config.prune_preceding = prune;
          config.fixed_k = k;
          const PartitionPlan plan =
              CheckPartitionsAreInducedSubCsts(root, order, config, delta);
          split_runs += plan.size() > 1 ? 1 : 0;
          for (const char cpu : plan.on_cpu) host_partitions += cpu;
        }
      }
    }
  }
  // The sweep really splits, and Alg. 3 really keeps some on the host.
  EXPECT_EQ(split_runs, 240u);
  EXPECT_GT(host_partitions, 1000u);
}

// A plan of a run that keeps nothing on the host replays to the same
// embeddings as matching the root whole.
TEST(PartitionPlanTest, ReplayedPartitionsCoverTheSearchSpaceOnce) {
  const Graph g = SmallLdbcGraph();
  const QueryGraph q = LdbcQuery(4).value();
  const MatchingOrder order = ComputeMatchingOrder(q, g, OrderPolicy::kPathBased).value();
  const Cst root = BuildCst(q, g, order.root).value();
  ResultCollector whole_collector(1 << 20);
  const std::uint64_t whole = MatchCstOnCpu(root, order, &whole_collector).value();
  PartitionConfig config;
  config.max_size_words = root.SizeWords() / 8;
  PartitionPlan plan;
  ASSERT_TRUE(PartitionCstWithOffload(
                  root, order, config, [](Cst) { return Status::OK(); }, {}, nullptr, &plan)
                  .ok());
  ASSERT_GT(plan.size(), 1u);
  std::uint64_t total = 0;
  ResultCollector part_collector(1 << 20);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    total += MatchCstOnCpu(SubsetCst(root, plan.Partition(i)).value(), order,
                           &part_collector)
                 .value();
  }
  EXPECT_EQ(total, whole);
  EXPECT_EQ(testing::ToSet(part_collector.stored()),
            testing::ToSet(whole_collector.stored()));
}

// Property sweep over LDBC queries and budgets: partitioning preserves the
// exact embedding count and respects thresholds.
class PartitionPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(PartitionPropertyTest, CountPreservedAndThresholdRespected) {
  const auto [query_index, divisor] = GetParam();
  Graph g = SmallLdbcGraph();
  QueryGraph q = LdbcQuery(query_index).value();
  auto order = ComputeMatchingOrder(q, g, OrderPolicy::kPathBased).value();
  Cst cst = BuildCst(q, g, order.root).value();

  const std::uint64_t whole = MatchCstOnCpu(cst, order, nullptr).value();

  PartitionConfig config;
  config.max_size_words = std::max<std::size_t>(cst.SizeWords() / divisor, 16);
  PartitionStats stats;
  auto parts = PartitionCstToVector(cst, order, config, &stats).value();

  std::uint64_t total = 0;
  for (const auto& p : parts) {
    ASSERT_TRUE(p.Validate().ok());
    if (stats.num_oversized == 0) {
      EXPECT_LE(p.SizeWords(), config.max_size_words);
    }
    total += MatchCstOnCpu(p, order, nullptr).value();
  }
  EXPECT_EQ(total, whole) << q.name() << " divisor=" << divisor;
}

INSTANTIATE_TEST_SUITE_P(
    QueriesAndBudgets, PartitionPropertyTest,
    ::testing::Combine(::testing::Values(0, 2, 3, 5, 8),
                       ::testing::Values(std::size_t{2}, std::size_t{5},
                                         std::size_t{17})));

}  // namespace
}  // namespace fast
