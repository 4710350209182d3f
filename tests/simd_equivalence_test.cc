#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/cpu_matcher.h"
#include "core/kernel.h"
#include "query/matching_order.h"
#include "simd/intersect.h"
#include "test_util.h"

// End-to-end equivalence across kernel levels: for every available SIMD/SWAR
// level, BuildCst and MatchCstOnCpu must produce a bit-identical CST and
// identical match counts/embeddings to the scalar reference on the seed
// datasets, and the emulated FPGA kernel (RunKernel, whose Edge Validator
// intersects candidate windows through the active level) must produce
// identical counters, round traces and embeddings in identical order. This is
// the CI gate behind the --simd flag.

namespace fast {
namespace {

using testing::BruteForceCount;
using testing::PaperDataGraph;
using testing::PaperQuery;
using testing::SmallLdbcGraph;
using testing::ToSet;

// One RunKernel at a batch size small enough to cut candidate windows.
struct KernelResult {
  KernelCounters counters;
  std::vector<std::pair<std::uint32_t, std::uint16_t>> trace;  // RoundWork
  std::vector<Embedding> embeddings;  // in emission order
};

struct MatchResult {
  Cst cst;
  std::uint64_t count = 0;
  std::vector<Embedding> embeddings;
  std::vector<KernelResult> kernel;  // one per batch size in kKernelBatches
};

constexpr std::uint32_t kKernelBatches[] = {7, FpgaConfig{}.max_new_partials};

MatchResult RunWithLevel(simd::Level level, const QueryGraph& q, const Graph& g) {
  EXPECT_TRUE(simd::SetActive(level));
  MatchResult r;
  const MatchingOrder order =
      ComputeMatchingOrder(q, g, OrderPolicy::kPathBased).value();
  r.cst = BuildCst(q, g, order.root).value();
  EXPECT_TRUE(r.cst.Validate().ok()) << simd::LevelName(level);
  ResultCollector collector(1 << 20);
  r.count = MatchCstOnCpu(r.cst, order, &collector).value();
  r.embeddings = collector.stored();
  for (const std::uint32_t no : kKernelBatches) {
    FpgaConfig config;
    config.max_new_partials = no;
    KernelResult k;
    ResultCollector kernel_collector(1 << 20);
    std::vector<RoundWork> trace;
    k.counters =
        RunKernel(r.cst, order, config, &kernel_collector, &trace).value().counters;
    for (const RoundWork& w : trace) k.trace.emplace_back(w.new_partials, w.backward_groups);
    k.embeddings = kernel_collector.stored();
    r.kernel.push_back(std::move(k));
  }
  return r;
}

void ExpectIdenticalCst(const Cst& a, const Cst& b, simd::Level level) {
  ASSERT_EQ(a.NumQueryVertices(), b.NumQueryVertices());
  for (VertexId u = 0; u < a.NumQueryVertices(); ++u) {
    ASSERT_TRUE(std::ranges::equal(a.Candidates(u), b.Candidates(u)))
        << "C(" << u << ") diverges under " << simd::LevelName(level);
  }
  for (std::size_t s = 0; s < a.layout().edges().size(); ++s) {
    const auto& ea = a.EdgeList(static_cast<int>(s));
    const auto& eb = b.EdgeList(static_cast<int>(s));
    ASSERT_EQ(ea.offsets, eb.offsets)
        << "slot " << s << " offsets diverge under " << simd::LevelName(level);
    ASSERT_EQ(ea.targets, eb.targets)
        << "slot " << s << " targets diverge under " << simd::LevelName(level);
  }
}

void CheckAllLevels(const QueryGraph& q, const Graph& g,
                    const std::uint64_t* truth = nullptr) {
  const MatchResult scalar = RunWithLevel(simd::Level::kScalar, q, g);
  if (truth != nullptr) EXPECT_EQ(scalar.count, *truth) << q.name();
  for (int i = 0; i < simd::kNumLevels; ++i) {
    const auto level = static_cast<simd::Level>(i);
    if (level == simd::Level::kScalar || !simd::LevelAvailable(level)) continue;
    const MatchResult got = RunWithLevel(level, q, g);
    ExpectIdenticalCst(scalar.cst, got.cst, level);
    EXPECT_EQ(got.count, scalar.count)
        << q.name() << " under " << simd::LevelName(level);
    EXPECT_EQ(ToSet(got.embeddings), ToSet(scalar.embeddings))
        << q.name() << " under " << simd::LevelName(level);
    for (std::size_t b = 0; b < std::size(kKernelBatches); ++b) {
      const KernelResult& want = scalar.kernel[b];
      const KernelResult& have = got.kernel[b];
      const std::string where = q.name() + " N_o=" +
                                std::to_string(kKernelBatches[b]) + " under " +
                                simd::LevelName(level);
      EXPECT_EQ(have.counters, want.counters) << where;
      EXPECT_EQ(have.trace, want.trace) << where;
      EXPECT_EQ(have.embeddings, want.embeddings) << where;  // order-sensitive
    }
  }
  simd::SetActiveByName("auto");
}

TEST(SimdEquivalenceTest, PaperExample) {
  const std::uint64_t truth = 2;
  CheckAllLevels(PaperQuery(), PaperDataGraph(), &truth);
}

TEST(SimdEquivalenceTest, AllLdbcQueriesOnSeedGraph) {
  const Graph g = SmallLdbcGraph();
  for (int qi = 0; qi < kNumLdbcQueries; ++qi) {
    const QueryGraph q = LdbcQuery(qi).value();
    const std::uint64_t truth = BruteForceCount(q, g);
    CheckAllLevels(q, g, &truth);
  }
}

// A star forces the hub dual representation (center degree 199 > threshold
// max(64, 220/32)), so the bitmap-filtered materialization path is exercised
// and must agree with the sorted-list path.
TEST(SimdEquivalenceTest, HubBitmapPathAgrees) {
  GraphBuilder b;
  const std::size_t n = 220;
  for (std::size_t i = 0; i < n; ++i) b.AddVertex(0);
  for (VertexId v = 1; v < 200; ++v) ASSERT_TRUE(b.AddEdge(0, v).ok());
  // A few spokes interconnected so wedge counts are non-trivial.
  for (VertexId v = 1; v < 40; ++v) ASSERT_TRUE(b.AddEdge(v, v + 1).ok());
  const Graph g = std::move(b).Build().value();
  ASSERT_EQ(g.NumHubs(), 1u);
  ASSERT_FALSE(g.HubAdjacencyBitmap(0).empty());
  ASSERT_TRUE(g.HubAdjacencyBitmap(1).empty());

  GraphBuilder qb;
  for (int i = 0; i < 3; ++i) qb.AddVertex(0);
  ASSERT_TRUE(qb.AddEdge(0, 1).ok());
  ASSERT_TRUE(qb.AddEdge(1, 2).ok());
  const QueryGraph q = QueryGraph::Create(std::move(qb).Build().value()).value();
  const std::uint64_t truth = BruteForceCount(q, g);
  CheckAllLevels(q, g, &truth);
}

}  // namespace
}  // namespace fast
