#ifndef FAST_CST_CST_H_
#define FAST_CST_CST_H_

// Candidate Search Tree (paper Def. 2, Alg. 1).
//
// A CST is a graph isomorphic to the query q: each query vertex u carries a
// candidate set C(u), and for every query edge (u, u') there are edges
// between candidates v in C(u) and v' in C(u') iff (v, v') in E(G). Built on
// the BFS spanning tree t_q of q, with the remaining query edges stored as
// "non-tree" candidate adjacency. A *sound* CST is a complete search space:
// every embedding of q in G can be enumerated by traversing the CST alone
// (Theorem 1), which is what makes partitions independently processable in
// FPGA BRAM.
//
// Representation: adjacency targets are *positions* into the neighbor's
// candidate array, not raw data-vertex ids. This keeps partitions
// self-contained, makes the BRAM size accounting exact, and lets the FPGA
// model address candidate memory with dense indices.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "query/query_graph.h"
#include "util/status.h"

namespace fast {

// One directed candidate-adjacency relation N^u_{u'}: CSR over positions of
// C(u), targets are positions into C(u'), sorted ascending per source.
struct CstEdgeList {
  std::vector<std::uint32_t> offsets;  // size |C(u)| + 1
  std::vector<std::uint32_t> targets;

  std::span<const std::uint32_t> Neighbors(std::uint32_t src_pos) const {
    return {targets.data() + offsets[src_pos], offsets[src_pos + 1] - offsets[src_pos]};
  }
  std::uint32_t Degree(std::uint32_t src_pos) const {
    return offsets[src_pos + 1] - offsets[src_pos];
  }
};

// Directed-edge slot map for one (query, BFS tree) pair. Shared by the
// original CST and all its partitions.
class CstLayout {
 public:
  struct DirectedEdge {
    VertexId from;
    VertexId to;
    bool is_tree;  // parent<->child edge of t_q (either direction)
  };

  // The layout owns a copy of the query so CSTs never dangle when the
  // caller's QueryGraph goes out of scope.
  static std::shared_ptr<const CstLayout> Create(const QueryGraph& q, VertexId root);

  const QueryGraph& query() const { return query_; }
  const BfsTree& tree() const { return tree_; }
  std::size_t NumQueryVertices() const { return n_; }
  const std::vector<DirectedEdge>& edges() const { return edges_; }

  // Slot of directed query edge (from, to); -1 if not a query edge.
  int SlotOf(VertexId from, VertexId to) const {
    return slot_of_[from * n_ + to];
  }

 private:
  CstLayout() = default;

  QueryGraph query_;
  BfsTree tree_;
  std::size_t n_ = 0;
  std::vector<int> slot_of_;
  std::vector<DirectedEdge> edges_;
};

struct CstBuildOptions;

// The CST proper: candidate sets plus one CstEdgeList per directed slot.
class Cst {
 public:
  Cst() = default;

  const CstLayout& layout() const { return *layout_; }
  std::shared_ptr<const CstLayout> layout_ptr() const { return layout_; }

  std::size_t NumQueryVertices() const { return candidates_.size(); }

  // Candidate set C(u), sorted by data-vertex id.
  std::span<const VertexId> Candidates(VertexId u) const { return candidates_[u]; }
  std::size_t NumCandidates(VertexId u) const { return candidates_[u].size(); }
  VertexId Candidate(VertexId u, std::uint32_t pos) const {
    return candidates_[u][pos];
  }

  const CstEdgeList& EdgeList(int slot) const { return adj_[slot]; }

  // Adjacency of candidate position src_pos of u toward u'. (u, u') must be a
  // query edge.
  std::span<const std::uint32_t> Neighbors(VertexId u, VertexId u_prime,
                                           std::uint32_t src_pos) const;

  // |CST| in 32-bit words: all candidate entries + all adjacency offsets and
  // targets. This is the quantity compared against the BRAM budget δ_S.
  std::size_t SizeWords() const;
  std::size_t SizeBytes() const { return SizeWords() * 4; }

  // D_CST: maximum adjacency-list length over all slots and sources; compared
  // against the port budget δ_D.
  std::uint32_t MaxAdjacencyDegree() const;

  // Total number of candidates across all query vertices.
  std::size_t TotalCandidates() const;

  // Structural invariant check: offsets monotone, targets strictly sorted and
  // in range, and the two directed lists of every query edge carry the same
  // candidate pairs (t in N^u_{u'}(p) iff p in N^{u'}_u(t)). A test check:
  // every CST is produced by BuildCst or SubsetCst, which establish it.
  Status Validate() const;

  // Whether non-tree candidate adjacency was materialized (true for the
  // paper's CST; false for the CPI-like structure used by the CFL baseline).
  // Partition pruning may only consult non-tree lists when this holds.
  bool non_tree_materialized() const { return non_tree_materialized_; }

  std::string Summary() const;

 private:
  friend StatusOr<Cst> BuildCst(const QueryGraph& q, const Graph& g, VertexId root,
                                const CstBuildOptions& options);
  friend StatusOr<Cst> SubsetCst(const Cst& cst,
                                 const std::vector<std::vector<char>>& keep);
  friend StatusOr<Cst> SubsetCst(const Cst& cst,
                                 std::span<const std::uint64_t> keep);
  // Test-only: assembles hand-made (e.g. deliberately asymmetric) CSTs.
  friend class CstTestPeer;

  std::shared_ptr<const CstLayout> layout_;
  std::vector<std::vector<VertexId>> candidates_;
  std::vector<CstEdgeList> adj_;
  bool non_tree_materialized_ = true;
};

struct CstBuildOptions {
  // Extra bottom-up/top-down refinement rounds after the initial construction
  // (Alg. 1 does one bottom-up pass; CS in DAF does three. The paper notes
  // CST's two passes make its size close to CS at lower build cost).
  int refine_rounds = 1;

  // When false, non-tree candidate adjacency is left empty, yielding a
  // CPI-like structure (CFL-Match): tree edges index the search, non-tree
  // query edges must be verified against G during enumeration. The paper's
  // CST requires true (that is what makes partitions self-contained).
  bool materialize_non_tree = true;
};

// Alg. 1: builds the CST of q over g, rooted at `root` (the BFS-tree root,
// normally order.root). Returns an empty-candidate CST when q has no match.
StatusOr<Cst> BuildCst(const QueryGraph& q, const Graph& g, VertexId root,
                       const CstBuildOptions& options = {});

// Restricts a CST to the candidate subsets selected by `keep` (one byte-mask
// per query vertex, indexed by candidate position), remapping adjacency. The
// result keeps every CST edge between kept candidates, so a chain of subsets
// equals one subset of the first CST: what lets a partition plan
// (cst/partition.h) rebuild Alg. 2's partitions from the root. Each target
// array is allocated at exactly its kept targets. Shared by the partitioner
// and tests.
StatusOr<Cst> SubsetCst(const Cst& cst, const std::vector<std::vector<char>>& keep);

// The same restriction with `keep` as packed bitsets: u's bit i keeps
// candidate i of C(u), and u's bits start at word CandidateBitsOffsets(cst)[u]
// (each C(u) rounded up to whole 64-bit words). Bits past |C(u)| must be 0.
// Costs one pass over each C(u) plus the kept rows' adjacency, not a pass
// over the whole CST.
StatusOr<Cst> SubsetCst(const Cst& cst, std::span<const std::uint64_t> keep);

// Word offsets of the packed bitsets above, one per query vertex plus the
// total (back()).
std::vector<std::size_t> CandidateBitsOffsets(const Cst& cst);

}  // namespace fast

#endif  // FAST_CST_CST_H_
