#include "cst/cst.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "cst/cst_serialize.h"
#include "cst/partition.h"
#include "query/matching_order.h"
#include "test_util.h"

namespace fast {
namespace {

using testing::BruteForceEmbeddings;
using testing::PaperDataGraph;
using testing::PaperQuery;
using testing::SmallLdbcGraph;

std::set<VertexId> CandidateSet(const Cst& cst, VertexId u) {
  auto span = cst.Candidates(u);
  return {span.begin(), span.end()};
}

// Is position dst_pos of u' a CST-neighbor of position src_pos of u?
bool HasCstEdge(const Cst& cst, VertexId u, std::uint32_t src_pos,
                VertexId u_prime, std::uint32_t dst_pos) {
  return std::ranges::binary_search(cst.Neighbors(u, u_prime, src_pos), dst_pos);
}

TEST(CstLayoutTest, SlotsCoverAllDirectedQueryEdges) {
  QueryGraph q = PaperQuery();
  auto layout = CstLayout::Create(q, 0);
  EXPECT_EQ(layout->edges().size(), 2 * q.NumEdges());
  for (VertexId u = 0; u < q.NumVertices(); ++u) {
    for (VertexId w = 0; w < q.NumVertices(); ++w) {
      if (q.HasEdge(u, w)) {
        EXPECT_GE(layout->SlotOf(u, w), 0);
      } else {
        EXPECT_EQ(layout->SlotOf(u, w), -1);
      }
    }
  }
}

TEST(CstLayoutTest, TreeFlagMatchesBfsTree) {
  QueryGraph q = PaperQuery();
  auto layout = CstLayout::Create(q, 0);
  for (const auto& e : layout->edges()) {
    const bool is_tree = layout->tree().parent(e.to) == e.from ||
                         layout->tree().parent(e.from) == e.to;
    EXPECT_EQ(e.is_tree, is_tree);
  }
}

TEST(CstBuildTest, RejectsBadRoot) {
  QueryGraph q = PaperQuery();
  Graph g = PaperDataGraph();
  EXPECT_FALSE(BuildCst(q, g, 99).ok());
}

TEST(CstBuildTest, PaperExampleCandidateSets) {
  // Example 2 / Fig. 3(b): the exact candidate sets.
  QueryGraph q = PaperQuery();
  Graph g = PaperDataGraph();
  Cst cst = BuildCst(q, g, 0).value();
  EXPECT_EQ(CandidateSet(cst, 0), (std::set<VertexId>{0, 1}));     // v1, v2
  EXPECT_EQ(CandidateSet(cst, 1), (std::set<VertexId>{3, 5}));     // v4, v6
  EXPECT_EQ(CandidateSet(cst, 2), (std::set<VertexId>{2, 4, 6}));  // v3, v5, v7
  EXPECT_EQ(CandidateSet(cst, 3), (std::set<VertexId>{8, 9}));     // v9, v10
}

TEST(CstBuildTest, PaperExampleAdjacency) {
  // N^{u1}_{u2}(v6) = {v5, v7} and N^{u2}_{u3}(v3) = {v9}.
  QueryGraph q = PaperQuery();
  Graph g = PaperDataGraph();
  Cst cst = BuildCst(q, g, 0).value();

  const auto c1 = cst.Candidates(1);
  const auto pos_v6 = static_cast<std::uint32_t>(
      std::lower_bound(c1.begin(), c1.end(), VertexId{5}) - c1.begin());
  std::set<VertexId> n12;
  for (std::uint32_t t : cst.Neighbors(1, 2, pos_v6)) {
    n12.insert(cst.Candidate(2, t));
  }
  EXPECT_EQ(n12, (std::set<VertexId>{4, 6}));  // v5, v7

  const auto c2 = cst.Candidates(2);
  const auto pos_v3 = static_cast<std::uint32_t>(
      std::lower_bound(c2.begin(), c2.end(), VertexId{2}) - c2.begin());
  std::set<VertexId> n23;
  for (std::uint32_t t : cst.Neighbors(2, 3, pos_v3)) {
    n23.insert(cst.Candidate(3, t));
  }
  EXPECT_EQ(n23, (std::set<VertexId>{8}));  // v9
}

TEST(CstBuildTest, ValidatePassesOnPaperExample) {
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  EXPECT_TRUE(cst.Validate().ok()) << cst.Validate();
}

TEST(CstBuildTest, SizeAndDegreeMetricsPositive) {
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  EXPECT_GT(cst.SizeWords(), 0u);
  EXPECT_EQ(cst.SizeBytes(), cst.SizeWords() * 4);
  EXPECT_GT(cst.MaxAdjacencyDegree(), 0u);
  EXPECT_EQ(cst.TotalCandidates(), 2u + 2u + 3u + 2u);
}

TEST(CstBuildTest, CstEdgesMirrorGraphEdges) {
  // Def. 2: candidates v in C(u), v' in C(u') for adjacent u,u' are
  // CST-adjacent iff (v, v') in E(G).
  QueryGraph q = PaperQuery();
  Graph g = PaperDataGraph();
  Cst cst = BuildCst(q, g, 0).value();
  for (const auto& e : cst.layout().edges()) {
    const auto src = cst.Candidates(e.from);
    const auto dst = cst.Candidates(e.to);
    for (std::uint32_t i = 0; i < src.size(); ++i) {
      for (std::uint32_t j = 0; j < dst.size(); ++j) {
        EXPECT_EQ(HasCstEdge(cst, e.from, i, e.to, j), g.HasEdge(src[i], dst[j]))
            << "slot (" << e.from << "->" << e.to << ") " << src[i] << "," << dst[j];
      }
    }
  }
}

TEST(CstBuildTest, CpiModeLeavesNonTreeEmpty) {
  QueryGraph q = PaperQuery();
  Graph g = PaperDataGraph();
  CstBuildOptions options;
  options.materialize_non_tree = false;
  Cst cst = BuildCst(q, g, 0, options).value();
  EXPECT_TRUE(cst.Validate().ok());
  for (std::size_t s = 0; s < cst.layout().edges().size(); ++s) {
    const auto& e = cst.layout().edges()[s];
    if (!e.is_tree) {
      EXPECT_TRUE(cst.EdgeList(static_cast<int>(s)).targets.empty());
    } else {
      EXPECT_FALSE(cst.EdgeList(static_cast<int>(s)).targets.empty());
    }
  }
}

// Soundness (the constraint of Sec. V-A): every embedding of q in G maps
// each u into C(u).
class CstSoundnessTest : public ::testing::TestWithParam<int> {};

TEST_P(CstSoundnessTest, EveryEmbeddingContainedInCandidates) {
  Graph g = SmallLdbcGraph();
  QueryGraph q = LdbcQuery(GetParam()).value();
  const auto embeddings = BruteForceEmbeddings(q, g);
  for (VertexId root = 0; root < q.NumVertices(); ++root) {
    Cst cst = BuildCst(q, g, root).value();
    ASSERT_TRUE(cst.Validate().ok());
    for (const auto& emb : embeddings) {
      for (VertexId u = 0; u < q.NumVertices(); ++u) {
        const auto c = cst.Candidates(u);
        EXPECT_TRUE(std::binary_search(c.begin(), c.end(), emb[u]))
            << q.name() << " root=" << root << " u=" << u;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllLdbcQueries, CstSoundnessTest,
                         ::testing::Range(0, kNumLdbcQueries));

// Candidates are pruned but never below the soundness bar; refinement rounds
// only shrink the structure.
TEST(CstBuildTest, MoreRefinementNeverGrows) {
  Graph g = SmallLdbcGraph();
  for (int qi : {0, 2, 5, 8}) {
    QueryGraph q = LdbcQuery(qi).value();
    CstBuildOptions r0;
    r0.refine_rounds = 0;
    CstBuildOptions r3;
    r3.refine_rounds = 3;
    Cst a = BuildCst(q, g, 0, r0).value();
    Cst b = BuildCst(q, g, 0, r3).value();
    EXPECT_LE(b.SizeWords(), a.SizeWords()) << q.name();
    EXPECT_LE(b.TotalCandidates(), a.TotalCandidates()) << q.name();
  }
}

// ---- SubsetCst ----

TEST(SubsetCstTest, FullMaskIsIdentity) {
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  std::vector<std::vector<char>> keep(cst.NumQueryVertices());
  for (VertexId u = 0; u < cst.NumQueryVertices(); ++u) {
    keep[u].assign(cst.NumCandidates(u), 1);
  }
  Cst sub = SubsetCst(cst, keep).value();
  EXPECT_TRUE(sub.Validate().ok());
  EXPECT_EQ(sub.SizeWords(), cst.SizeWords());
  EXPECT_EQ(sub.TotalCandidates(), cst.TotalCandidates());
}

TEST(SubsetCstTest, RestrictingRootDropsAdjacency) {
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  std::vector<std::vector<char>> keep(cst.NumQueryVertices());
  for (VertexId u = 0; u < cst.NumQueryVertices(); ++u) {
    keep[u].assign(cst.NumCandidates(u), 1);
  }
  keep[0] = {1, 0};  // keep only v1
  Cst sub = SubsetCst(cst, keep).value();
  EXPECT_TRUE(sub.Validate().ok());
  EXPECT_EQ(sub.NumCandidates(0), 1u);
  EXPECT_LT(sub.SizeWords(), cst.SizeWords());
  // Remaining adjacency must still mirror graph edges.
  Graph g = PaperDataGraph();
  for (const auto& e : sub.layout().edges()) {
    const auto src = sub.Candidates(e.from);
    const auto dst = sub.Candidates(e.to);
    for (std::uint32_t i = 0; i < src.size(); ++i) {
      for (std::uint32_t j = 0; j < dst.size(); ++j) {
        EXPECT_EQ(HasCstEdge(sub, e.from, i, e.to, j), g.HasEdge(src[i], dst[j]));
      }
    }
  }
}

TEST(SubsetCstTest, RejectsWrongArity) {
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  std::vector<std::vector<char>> keep(2);
  EXPECT_FALSE(SubsetCst(cst, keep).ok());
}

TEST(SubsetCstTest, RejectsWrongMaskSize) {
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  std::vector<std::vector<char>> keep(cst.NumQueryVertices());
  for (VertexId u = 0; u < cst.NumQueryVertices(); ++u) {
    keep[u].assign(cst.NumCandidates(u) + 1, 1);
  }
  EXPECT_FALSE(SubsetCst(cst, keep).ok());
}

// Packs byte masks into SubsetCst's bitset layout.
std::vector<std::uint64_t> PackMasks(const Cst& cst,
                                     const std::vector<std::vector<char>>& keep) {
  const std::vector<std::size_t> offsets = CandidateBitsOffsets(cst);
  std::vector<std::uint64_t> bits(offsets.back(), 0);
  for (VertexId u = 0; u < cst.NumQueryVertices(); ++u) {
    for (std::size_t i = 0; i < keep[u].size(); ++i) {
      if (keep[u][i]) bits[offsets[u] + i / 64] |= std::uint64_t{1} << (i % 64);
    }
  }
  return bits;
}

// The bitset form is the byte-mask form with another mask encoding: random
// masks over every LDBC query's CST (candidate sets past one word included)
// give the same CST both ways, valid and with each target array allocated at
// exactly its kept targets.
TEST(SubsetCstTest, BitsetAndByteMasksAgree) {
  const Graph g = SmallLdbcGraph();
  std::mt19937 rng(17);
  for (int qi = 0; qi < kNumLdbcQueries; ++qi) {
    const QueryGraph q = LdbcQuery(qi).value();
    const Cst cst = BuildCst(q, g, 0).value();
    for (const double density : {0.0, 0.3, 0.8, 1.0}) {
      std::bernoulli_distribution coin(density);
      std::vector<std::vector<char>> keep(cst.NumQueryVertices());
      for (VertexId u = 0; u < cst.NumQueryVertices(); ++u) {
        for (std::size_t i = 0; i < cst.NumCandidates(u); ++i) {
          keep[u].push_back(coin(rng) ? 1 : 0);
        }
      }
      const Cst by_bytes = SubsetCst(cst, keep).value();
      const Cst by_bits = SubsetCst(cst, PackMasks(cst, keep)).value();
      EXPECT_TRUE(testing::SameCst(by_bits, by_bytes)) << q.name() << " " << density;
      ASSERT_TRUE(by_bits.Validate().ok()) << q.name();
      for (std::size_t s = 0; s < by_bits.layout().edges().size(); ++s) {
        const CstEdgeList& el = by_bits.EdgeList(static_cast<int>(s));
        EXPECT_EQ(el.targets.capacity(), el.targets.size()) << q.name();
        EXPECT_EQ(by_bytes.EdgeList(static_cast<int>(s)).targets.capacity(),
                  el.targets.size())
            << q.name();
      }
    }
  }
}

TEST(SubsetCstTest, BitsetRejectsWrongSizeAndStrayBits) {
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  std::vector<std::vector<char>> keep(cst.NumQueryVertices());
  for (VertexId u = 0; u < cst.NumQueryVertices(); ++u) {
    keep[u].assign(cst.NumCandidates(u), 1);
  }
  std::vector<std::uint64_t> bits = PackMasks(cst, keep);
  ASSERT_TRUE(SubsetCst(cst, bits).ok());
  std::vector<std::uint64_t> longer = bits;
  longer.push_back(0);
  EXPECT_FALSE(SubsetCst(cst, longer).ok());
  // A bit past |C(u0)| = 2 names no candidate.
  bits[CandidateBitsOffsets(cst)[0]] |= std::uint64_t{1} << 2;
  EXPECT_FALSE(SubsetCst(cst, bits).ok());
}

// ---- Validate: directed-pair symmetry ----

// Every CST the pipeline produces -- built, and partitioned by Alg. 2 --
// carries the same pairs in both directions of each query edge, which the
// emulated Edge Validator relies on.
TEST(CstValidateTest, BuiltAndPartitionedCstsAreSymmetric) {
  const Graph g = SmallLdbcGraph();
  for (int qi = 0; qi < kNumLdbcQueries; ++qi) {
    const QueryGraph q = LdbcQuery(qi).value();
    const MatchingOrder order =
        ComputeMatchingOrder(q, g, OrderPolicy::kPathBased).value();
    const Cst cst = BuildCst(q, g, order.root).value();
    ASSERT_TRUE(cst.Validate().ok()) << q.name() << ": " << cst.Validate();
    PartitionConfig pconfig;
    pconfig.max_size_words = std::max<std::size_t>(cst.SizeWords() / 6, 32);
    const auto parts = PartitionCstToVector(cst, order, pconfig).value();
    ASSERT_GT(parts.size(), 1u) << q.name();
    for (const Cst& part : parts) {
      ASSERT_TRUE(part.Validate().ok()) << q.name() << ": " << part.Validate();
    }
  }
}

}  // namespace

// Assembles CSTs by hand; a friend of Cst (cst.h).
class CstTestPeer {
 public:
  // A one-edge query whose two directed lists have equal pair counts but
  // different pairs: N^0_1 = {p0->t0, p1->t1}, while N^1_0 claims
  // {t0->p1, t1->p0} (or, when symmetric, {t0->p0, t1->p1}).
  static Cst OneEdge(std::shared_ptr<const CstLayout> layout, bool symmetric) {
    const std::uint32_t t0 = symmetric ? 0 : 1;
    Cst cst;
    cst.layout_ = std::move(layout);
    cst.candidates_ = {{10, 11}, {20, 21}};
    cst.adj_ = {CstEdgeList{{0, 1, 2}, {0, 1}},         // N^0_1
                CstEdgeList{{0, 1, 2}, {t0, 1 - t0}}};  // N^1_0
    return cst;
  }
};

namespace {

TEST(CstValidateTest, EqualCountsButMismatchedPairsFail) {
  GraphBuilder b;
  b.AddVertex(0);
  b.AddVertex(0);
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  const QueryGraph q = QueryGraph::Create(std::move(b).Build().value()).value();
  const auto layout = CstLayout::Create(q, 0);
  ASSERT_EQ(layout->SlotOf(0, 1), 0);
  ASSERT_EQ(layout->SlotOf(1, 0), 1);

  EXPECT_TRUE(CstTestPeer::OneEdge(layout, /*symmetric=*/true).Validate().ok());
  const Status bad = CstTestPeer::OneEdge(layout, /*symmetric=*/false).Validate();
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find("asymmetry"), std::string::npos) << bad;
}

// ---- Wire size (cst_serialize.h) ----

TEST(CstSerializeTest, WireBytesTracksSizeWords) {
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  EXPECT_GT(CstWireBytes(cst), cst.SizeBytes());
  // Header + per-array length prefixes only.
  const std::size_t overhead =
      (3 + cst.NumQueryVertices() + 2 * cst.layout().edges().size()) * 4;
  EXPECT_EQ(CstWireBytes(cst), cst.SizeBytes() + overhead);
}

TEST(CstSummaryTest, MentionsSizeAndDegree) {
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  const std::string s = cst.Summary();
  EXPECT_NE(s.find("cands="), std::string::npos);
  EXPECT_NE(s.find("words="), std::string::npos);
}

}  // namespace
}  // namespace fast
