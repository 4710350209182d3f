#include "core/kernel.h"

#include <algorithm>

#include "util/logging.h"

namespace fast {

namespace {

// Static per-order-position execution plan.
struct OrderStep {
  VertexId u = kInvalidVertex;
  int parent_order_pos = -1;  // position of u's t_q parent in the order
  // Backward non-tree neighbors of u: (query vertex, order position). These
  // are the edge-validation tasks t_n each new p_o spawns (Alg. 5 lines
  // 10-12); forward non-tree edges are checked when the later endpoint maps.
  std::vector<std::pair<VertexId, int>> backward_non_tree;
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
  const BfsTree& tree = cst.layout().tree();
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
    }
    for (VertexId un : tree.non_tree_neighbors(u)) {
      if (order_pos[un] < static_cast<int>(i)) {
        steps[i].backward_non_tree.emplace_back(un, order_pos[un]);
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

  // Temporary row for the expanded partial result.
  std::vector<std::uint32_t> row(stride);

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
      for (std::size_t i = 0; i < take; ++i) {
        row.assign(stride, 0);
        row[0] = static_cast<std::uint32_t>(root_cursor + i);  // position
        row[n] = root_cands[root_cursor + i];                  // data vertex
        row[2 * n] = 0;                                        // cursor
        levels[1].flat.insert(levels[1].flat.end(), row.begin(), row.end());
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
    std::uint32_t produced = 0;

    while (produced < no && !levels[depth].Empty()) {
      std::uint32_t* pi = levels[depth].Back();
      // Candidate list of u given this partial result: the CST adjacency of
      // the mapped parent candidate (Alg. 5 line 5).
      const VertexId up = order.order[static_cast<std::size_t>(step.parent_order_pos)];
      const auto cands =
          cst.Neighbors(up, u, pi[static_cast<std::size_t>(step.parent_order_pos)]);
      std::uint32_t cursor = pi[2 * n];
      const std::uint32_t budget = no - produced;
      const auto remaining = static_cast<std::uint32_t>(cands.size()) - cursor;
      const std::uint32_t take = std::min(budget, remaining);

      for (std::uint32_t k = 0; k < take; ++k) {
        const std::uint32_t t = cands[cursor + k];
        const VertexId v = cst.Candidate(u, t);
        ++c.partial_results;
        ++c.visited_tasks;
        c.edge_tasks += step.backward_non_tree.size();

        // Visited validation (Alg. 6): v must differ from every mapped data
        // vertex; the FPGA compares against all of them in parallel.
        bool valid = true;
        for (std::size_t j = 0; j < depth; ++j) {
          if (pi[n + j] == v) {
            valid = false;
            break;
          }
        }
        // Edge validation (Alg. 7): v must be CST-adjacent to the mapping of
        // every backward non-tree neighbor of u.
        if (valid) {
          for (const auto& [un, jpos] : step.backward_non_tree) {
            if (!cst.HasCstEdge(u, t, un,
                                pi[static_cast<std::size_t>(jpos)])) {
              valid = false;
              break;
            }
          }
        }
        if (!valid) continue;

        // Synchronizer (Alg. 8): complete results are reported, partial ones
        // go back to the buffer one level deeper.
        if (depth + 1 == n) {
          ++c.results;
          ++result.embeddings;
          if (collector != nullptr) {
            for (std::size_t j = 0; j < depth; ++j) {
              embedding[order.order[j]] = pi[n + j];
            }
            embedding[u] = v;
            collector->OnEmbedding(embedding);
          }
        } else {
          std::copy(pi, pi + n, row.begin());
          std::copy(pi + n, pi + 2 * n, row.begin() + static_cast<std::ptrdiff_t>(n));
          row[depth] = t;
          row[n + depth] = v;
          row[2 * n] = 0;
          levels[depth + 1].flat.insert(levels[depth + 1].flat.end(), row.begin(),
                                        row.end());
        }
      }
      produced += take;
      cursor += take;
      if (cursor == cands.size()) {
        levels[depth].PopBack();
      } else {
        pi[2 * n] = cursor;  // resume later rounds from here
      }
    }

    std::uint64_t occupancy = 0;
    for (const auto& l : levels) occupancy += l.Size();
    c.max_buffer_entries = std::max(c.max_buffer_entries, occupancy);

    if (round_trace != nullptr && produced > 0) {
      round_trace->push_back(
          {produced, static_cast<std::uint16_t>(step.backward_non_tree.size())});
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
