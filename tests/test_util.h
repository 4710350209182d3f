#ifndef FAST_TESTS_TEST_UTIL_H_
#define FAST_TESTS_TEST_UTIL_H_

// Shared fixtures: a brute-force reference matcher and the paper's running
// example (Fig. 1 / Example 2), reconstructed so that the CST of Fig. 3(b)
// and the two embeddings of Example 1 come out exactly.

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/result_collector.h"
#include "cst/cst.h"
#include "graph/graph.h"
#include "ldbc/ldbc.h"
#include "query/query_graph.h"
#include "util/logging.h"

namespace fast::testing {

// Exhaustive label-filtered backtracking directly on G: the ground truth all
// matchers are compared against. Only suitable for small graphs.
inline void BruteForceRec(const QueryGraph& q, const Graph& g,
                          std::vector<VertexId>* mapping, std::size_t depth,
                          std::vector<Embedding>* out) {
  const std::size_t n = q.NumVertices();
  if (depth == n) {
    out->push_back(*mapping);
    return;
  }
  const auto u = static_cast<VertexId>(depth);
  for (VertexId v : g.VerticesWithLabel(q.label(u))) {
    bool ok = true;
    for (std::size_t j = 0; j < depth && ok; ++j) {
      if ((*mapping)[j] == v) ok = false;
      if (ok && q.HasEdge(static_cast<VertexId>(j), u)) {
        const auto w = static_cast<VertexId>(j);
        if (!g.HasEdge((*mapping)[j], v) ||
            g.EdgeLabelBetween((*mapping)[j], v) != q.EdgeLabel(w, u)) {
          ok = false;
        }
      }
    }
    if (!ok) continue;
    (*mapping)[depth] = v;
    BruteForceRec(q, g, mapping, depth + 1, out);
  }
}

inline std::vector<Embedding> BruteForceEmbeddings(const QueryGraph& q,
                                                   const Graph& g) {
  std::vector<Embedding> out;
  std::vector<VertexId> mapping(q.NumVertices(), 0);
  BruteForceRec(q, g, &mapping, 0, &out);
  return out;
}

inline std::uint64_t BruteForceCount(const QueryGraph& q, const Graph& g) {
  return BruteForceEmbeddings(q, g).size();
}

inline std::set<Embedding> ToSet(const std::vector<Embedding>& v) {
  return {v.begin(), v.end()};
}

// ---- The paper's running example. Labels: A=0 B=1 C=2 D=3 E=4. ----
//
// Query (Fig. 1a): u0:A - u1:B, u0 - u2:C, u1 - u2 (non-tree in t_q),
// u1 - u3:D, u2 - u3 (non-tree). BFS tree rooted at u0: children u1, u2;
// u3 under u1.
inline QueryGraph PaperQuery() {
  GraphBuilder b;
  b.AddVertex(0);  // u0: A
  b.AddVertex(1);  // u1: B
  b.AddVertex(2);  // u2: C
  b.AddVertex(3);  // u3: D
  FAST_CHECK_OK(b.AddEdge(0, 1));
  FAST_CHECK_OK(b.AddEdge(0, 2));
  FAST_CHECK_OK(b.AddEdge(1, 2));
  FAST_CHECK_OK(b.AddEdge(1, 3));
  FAST_CHECK_OK(b.AddEdge(2, 3));
  auto q = QueryGraph::Create(std::move(b).Build().value(), "paper-q");
  FAST_CHECK(q.ok());
  return std::move(q).value();
}

// Data graph (Fig. 1b, vertex vK maps to id K-1). Yields, for the BFS tree
// rooted at u0: C(u0)={v1,v2}, C(u1)={v4,v6}, C(u2)={v3,v5,v7},
// C(u3)={v9,v10}, N^{u1}_{u2}(v6)={v5,v7}, N^{u2}_{u3}(v3)={v9}, and the two
// embeddings of Example 1.
inline Graph PaperDataGraph() {
  GraphBuilder b;
  const Label labels[12] = {0, 0, 2, 1, 2, 1, 2, 1, 3, 3, 4, 4};
  for (Label l : labels) b.AddVertex(l);
  auto e = [&](int u, int v) { FAST_CHECK_OK(b.AddEdge(u - 1, v - 1)); };
  e(1, 4);
  e(1, 3);
  e(2, 6);
  e(2, 5);
  e(2, 7);
  e(4, 3);
  e(6, 5);
  e(6, 7);
  e(4, 9);
  e(3, 9);
  e(6, 10);
  e(5, 10);
  // Noise that must not create additional matches.
  e(8, 11);
  e(9, 11);
  e(10, 12);
  e(7, 11);
  auto g = std::move(b).Build();
  FAST_CHECK(g.ok());
  return std::move(g).value();
}

// Whether two CSTs are the same structure: same candidate sets, and the same
// offsets and targets in every directed slot.
inline ::testing::AssertionResult SameCst(const Cst& a, const Cst& b) {
  if (a.NumQueryVertices() != b.NumQueryVertices()) {
    return ::testing::AssertionFailure() << "query arity differs";
  }
  for (VertexId u = 0; u < a.NumQueryVertices(); ++u) {
    if (!std::ranges::equal(a.Candidates(u), b.Candidates(u))) {
      return ::testing::AssertionFailure() << "C(u" << u << ") differs";
    }
  }
  for (std::size_t s = 0; s < a.layout().edges().size(); ++s) {
    const int slot = static_cast<int>(s);
    if (a.EdgeList(slot).offsets != b.EdgeList(slot).offsets ||
        a.EdgeList(slot).targets != b.EdgeList(slot).targets) {
      return ::testing::AssertionFailure() << "edge list " << s << " differs";
    }
  }
  if (a.non_tree_materialized() != b.non_tree_materialized()) {
    return ::testing::AssertionFailure() << "non-tree materialization differs";
  }
  return ::testing::AssertionSuccess();
}

// A small deterministic LDBC graph for integration-style tests.
inline Graph SmallLdbcGraph(double sf = 0.05, std::uint64_t seed = 7) {
  LdbcConfig config;
  config.scale_factor = sf;
  config.seed = seed;
  auto g = GenerateLdbcGraph(config);
  FAST_CHECK(g.ok());
  return std::move(g).value();
}

}  // namespace fast::testing

#endif  // FAST_TESTS_TEST_UTIL_H_
