#include "core/kernel.h"

#include <algorithm>
#include <span>

#include "simd/intersect.h"
#include "util/logging.h"

namespace fast {

namespace {

// Static per-order-position execution plan.
struct OrderStep {
  VertexId u = kInvalidVertex;
  int parent_order_pos = -1;  // position of u's t_q parent in the order
  const CstEdgeList* parent_adj = nullptr;  // N^{parent}_u
  // Backward non-tree neighbors un of u: (N^{un}_u, order position of un).
  // These are the edge-validation tasks t_n each new p_o spawns (Alg. 5 lines
  // 10-12); forward non-tree edges are checked when the later endpoint maps.
  std::vector<std::pair<const CstEdgeList*, int>> backward_non_tree;
};

// One buffered partial result: candidate positions and the corresponding
// data vertices for order positions [0, depth), plus a resume cursor into
// the candidate list currently being expanded (Sec. VI-B: when |C(u)| exceeds
// the round budget, the remaining candidates are mapped in a later round).
struct LevelBuffer {
  // Flat storage; stride = 2 * n + 1 (positions, data vertices, cursor).
  std::vector<std::uint32_t> flat;
  std::size_t stride = 0;

  std::size_t Size() const { return stride == 0 ? 0 : flat.size() / stride; }
  bool Empty() const { return flat.empty(); }
  std::uint32_t* Back() { return flat.data() + flat.size() - stride; }
  void PopBack() { flat.resize(flat.size() - stride); }
};

}  // namespace

StatusOr<KernelRunResult> RunKernel(const Cst& cst, const MatchingOrder& order,
                                    const FpgaConfig& config,
                                    ResultCollector* collector,
                                    std::vector<RoundWork>* round_trace,
                                    const CancelToken* cancel) {
  FAST_RETURN_IF_ERROR(config.Validate());
  const std::size_t n = cst.NumQueryVertices();
  if (order.order.size() != n) {
    return Status::InvalidArgument("order arity does not match CST");
  }
  const CstLayout& layout = cst.layout();
  const BfsTree& tree = layout.tree();
  if (order.order.empty() || order.order[0] != tree.root()) {
    return Status::InvalidArgument("order root does not match CST root");
  }

  // Build the per-step plan.
  std::vector<int> order_pos(n, -1);
  for (std::size_t i = 0; i < n; ++i) order_pos[order.order[i]] = static_cast<int>(i);
  std::vector<OrderStep> steps(n);
  for (std::size_t i = 0; i < n; ++i) {
    const VertexId u = order.order[i];
    steps[i].u = u;
    if (i > 0) {
      const VertexId up = tree.parent(u);
      if (up == kInvalidVertex || order_pos[up] >= static_cast<int>(i)) {
        return Status::InvalidArgument("order is not tree-connected");
      }
      steps[i].parent_order_pos = order_pos[up];
      steps[i].parent_adj = &cst.EdgeList(layout.SlotOf(up, u));
    }
    for (VertexId un : tree.non_tree_neighbors(u)) {
      if (order_pos[un] < static_cast<int>(i)) {
        steps[i].backward_non_tree.emplace_back(&cst.EdgeList(layout.SlotOf(un, u)),
                                                order_pos[un]);
      }
    }
  }

  const std::size_t stride = 2 * n + 1;
  const std::uint32_t no = config.max_new_partials;
  // Levels 1..n-1 hold partial results with that many mapped vertices.
  std::vector<LevelBuffer> levels(n);
  for (auto& l : levels) l.stride = stride;

  KernelRunResult result;
  KernelCounters& c = result.counters;

  const auto root_cands = cst.Candidates(tree.root());
  std::size_t root_cursor = 0;
  std::vector<VertexId> embedding(n);
  // Survivors of the Edge Validator for the current window.
  std::vector<std::uint32_t> survivors;
  const simd::Kernels& kernels = simd::Active();

  while (true) {
    // One probe per round: each round is bounded by N_o partials, so an
    // expired deadline aborts within one batch of work.
    if (cancel != nullptr && cancel->Cancelled()) {
      return Status::DeadlineExceeded("kernel run cancelled mid-match");
    }
    // Refill level 1 from root candidates when the buffer drains (Alg. 4
    // lines 2-3, batched to respect the N_o buffer bound).
    bool any = false;
    for (const auto& l : levels) any |= !l.Empty();
    if (!any) {
      if (root_cursor >= root_cands.size()) break;
      const std::size_t take =
          std::min<std::size_t>(no, root_cands.size() - root_cursor);
      std::vector<std::uint32_t>& flat = levels[1].flat;
      flat.assign(take * stride, 0);
      for (std::size_t i = 0; i < take; ++i) {
        std::uint32_t* row = flat.data() + i * stride;
        row[0] = static_cast<std::uint32_t>(root_cursor + i);  // position
        row[n] = root_cands[root_cursor + i];                  // data vertex
      }
      root_cursor += take;
    }

    // Pick the deepest non-empty level (Sec. VI-B's overflow-avoidance rule).
    std::size_t depth = 0;
    for (std::size_t d = n; d-- > 1;) {
      if (!levels[d].Empty()) {
        depth = d;
        break;
      }
    }
    if (depth == 0) continue;  // only root refill happened; loop again

    ++c.rounds;
    const OrderStep& step = steps[depth];
    const VertexId u = step.u;
    const auto u_cands = cst.Candidates(u);
    const std::size_t groups = step.backward_non_tree.size();
    const bool last = depth + 1 == n;
    std::uint32_t produced = 0;

    while (produced < no && !levels[depth].Empty()) {
      std::uint32_t* pi = levels[depth].Back();
      // Candidate list of u given this partial result: the CST adjacency of
      // the mapped parent candidate (Alg. 5 line 5). This round takes the
      // window [cursor, cursor + take) of it.
      const auto cands = step.parent_adj->Neighbors(
          pi[static_cast<std::size_t>(step.parent_order_pos)]);
      const std::uint32_t cursor = pi[2 * n];
      const std::uint32_t take =
          std::min(no - produced, static_cast<std::uint32_t>(cands.size()) - cursor);
      // Every candidate of the window is one p_o with one t_v and one t_n per
      // backward non-tree neighbor, whether or not it survives validation.
      c.partial_results += take;
      c.visited_tasks += take;
      c.edge_tasks += std::uint64_t{take} * groups;

      // Edge validation (Alg. 7): t must be CST-adjacent to the mapping of
      // every backward non-tree neighbor un, i.e. t in N^{un}_u(pi[un]) (CST
      // adjacency is symmetric, see Cst::Validate). Both the window and the
      // adjacency are sorted positions, so the survivors of the whole window
      // are one intersection per neighbor, in ascending (= emission) order.
      std::span<const std::uint32_t> valid = cands.subspan(cursor, take);
      if (groups > 0 && survivors.size() < take) survivors.resize(take);
      for (const auto& [adj, jpos] : step.backward_non_tree) {
        if (valid.empty()) break;
        const auto nbrs = adj->Neighbors(pi[static_cast<std::size_t>(jpos)]);
        valid = {survivors.data(),
                 kernels.intersect(valid.data(), valid.size(), nbrs.data(),
                                   nbrs.size(), survivors.data())};
      }

      if (last && collector != nullptr && !valid.empty()) {
        for (std::size_t j = 0; j < depth; ++j) {
          embedding[order.order[j]] = pi[n + j];
        }
      }
      for (const std::uint32_t t : valid) {
        const VertexId v = u_cands[t];
        // Visited validation (Alg. 6): v must differ from every mapped data
        // vertex; the FPGA compares against all of them in parallel.
        if (std::find(pi + n, pi + n + depth, v) != pi + n + depth) continue;

        // Synchronizer (Alg. 8): complete results are reported, partial ones
        // go back to the buffer one level deeper.
        if (last) {
          ++c.results;
          ++result.embeddings;
          if (collector != nullptr) {
            embedding[u] = v;
            collector->OnEmbedding(embedding);
          }
        } else {
          std::vector<std::uint32_t>& next = levels[depth + 1].flat;
          next.insert(next.end(), pi, pi + stride);
          std::uint32_t* row = next.data() + next.size() - stride;
          row[depth] = t;
          row[n + depth] = v;
          row[2 * n] = 0;
        }
      }
      produced += take;
      if (cursor + take == cands.size()) {
        levels[depth].PopBack();
      } else {
        pi[2 * n] = cursor + take;  // resume later rounds from here
      }
    }

    std::uint64_t occupancy = 0;
    for (const auto& l : levels) occupancy += l.Size();
    c.max_buffer_entries = std::max(c.max_buffer_entries, occupancy);

    if (round_trace != nullptr && produced > 0) {
      round_trace->push_back({produced, static_cast<std::uint16_t>(groups)});
    }
  }

  return result;
}

double PartitionKernelSeconds(const FpgaConfig& config, FastVariant variant,
                              double matching_cycles, std::uint64_t embeddings,
                              std::size_t cst_words, std::size_t query_size) {
  double cycles = matching_cycles + ResultFlushCycles(config, embeddings, query_size);
  if (variant != FastVariant::kDram) {
    cycles += CstLoadCycles(config, cst_words);
  }
  return config.CyclesToSeconds(cycles);
}

double SimulatedKernelSeconds(const FpgaConfig& config, FastVariant variant,
                              const KernelRunResult& run, std::size_t cst_words,
                              std::size_t query_size) {
  return PartitionKernelSeconds(config, variant,
                                KernelCycles(config, variant, run.counters),
                                run.embeddings, cst_words, query_size);
}

}  // namespace fast
