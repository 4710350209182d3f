#include "cst/partition.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"

namespace fast {

namespace {

bool Fits(const Cst& cst, const PartitionConfig& config) {
  return cst.SizeWords() <= config.max_size_words &&
         cst.MaxAdjacencyDegree() <= config.max_degree;
}

// Drops candidates that lost all support toward any query neighbor after
// C(u) (at order position `index`) was restricted ("can reach the i-th
// partitioned C(u)", Alg. 2 lines 9-12). A candidate of w survives only if,
// for *every* query edge (w, w'), it still has a kept CST neighbor in C(w'):
// tree edges carry reachability, and non-tree edges carry the edge-validation
// constraint (a candidate with no kept non-tree neighbor can never pass
// Alg. 7). The split vertex itself is never modified; vertices preceding it
// in the order are pruned only when `prune_preceding` is set (see
// PartitionConfig).
//
// Computed as counter-based arc consistency rather than a rescan-to-fixpoint:
// each prunable candidate tracks, per support slot, how many kept neighbors
// it still has; a counter hitting zero kills the candidate and the death
// cascades through the reverse slot (targets of (w,i) toward wn are exactly
// the positions of wn whose counters toward w count i — the directional-pair
// symmetry that Cst::Validate() checks pair by pair). Same greatest fixpoint
// as the rescan, but the work is proportional to the candidates actually
// removed, not rounds x total adjacency — this runs once per part per split
// level, so it dominates host partitioning time.
void PruneMasks(const Cst& cst, const std::vector<VertexId>& order,
                std::size_t index, bool prune_preceding,
                std::vector<std::vector<char>>* keep) {
  const QueryGraph& q = cst.layout().query();
  const std::size_t n = order.size();
  const VertexId u = order[index];

  std::vector<std::size_t> opos(n);
  for (std::size_t oi = 0; oi < n; ++oi) opos[order[oi]] = oi;
  const auto prunable = [&](VertexId w) {
    return opos[w] != index && (prune_preceding || opos[w] > index);
  };

  const auto& edges = cst.layout().edges();
  // cnt[s][i]: kept CST neighbors of candidate i of `from` toward `to`, for
  // support slots whose source is prunable. Slots toward the split vertex
  // count against its restricted mask; every other mask is still all-ones at
  // this point, so the counter is just the CSR degree — overcounts from
  // candidates removed later in this init loop are repaid when the worklist
  // drains, since every removal decrements the counters of its neighbors.
  std::vector<std::vector<std::uint32_t>> cnt(edges.size());
  std::vector<std::pair<VertexId, std::uint32_t>> worklist;

  for (std::size_t s = 0; s < edges.size(); ++s) {
    const auto [from, to, is_tree] = edges[s];
    if (!prunable(from)) continue;
    if (!is_tree && !cst.non_tree_materialized()) continue;
    const CstEdgeList& el = cst.EdgeList(static_cast<int>(s));
    const std::size_t nc = cst.NumCandidates(from);
    const std::vector<char>& keep_to = (*keep)[to];
    std::vector<char>& keep_from = (*keep)[from];
    auto& c = cnt[s];
    c.resize(nc);
    for (std::size_t i = 0; i < nc; ++i) {
      std::uint32_t kept;
      if (to == u) {
        kept = 0;
        for (std::uint32_t t : el.Neighbors(static_cast<std::uint32_t>(i))) {
          kept += keep_to[t] != 0;
        }
      } else {
        kept = el.Degree(static_cast<std::uint32_t>(i));
      }
      c[i] = kept;
      if (kept == 0 && keep_from[i]) {
        keep_from[i] = 0;
        worklist.emplace_back(from, static_cast<std::uint32_t>(i));
      }
    }
  }

  while (!worklist.empty()) {
    const auto [w, i] = worklist.back();
    worklist.pop_back();
    for (VertexId wn : q.neighbors(w)) {
      if (!prunable(wn)) continue;
      const int rev = cst.layout().SlotOf(wn, w);
      auto& rc = cnt[rev];
      if (rc.empty()) continue;  // non-materialized non-tree slot
      const int fwd = cst.layout().SlotOf(w, wn);
      std::vector<char>& keep_wn = (*keep)[wn];
      for (std::uint32_t p : cst.EdgeList(fwd).Neighbors(i)) {
        if (--rc[p] == 0 && keep_wn[p]) {
          keep_wn[p] = 0;
          worklist.emplace_back(wn, p);
        }
      }
    }
  }
}

// Root-CST position of every candidate of a CST in the recursion, per query
// vertex; empty when the run is not recorded.
using RootPositions = std::vector<std::vector<std::uint32_t>>;

// The positions a sub-CST keeps: `pos` filtered by the masks SubsetCst
// applies to the CST itself.
RootPositions KeptPositions(const RootPositions& pos,
                            const std::vector<std::vector<char>>& keep) {
  if (pos.empty()) return {};
  RootPositions out(pos.size());
  for (std::size_t u = 0; u < pos.size(); ++u) {
    for (std::size_t i = 0; i < pos[u].size(); ++i) {
      if (keep[u][i]) out[u].push_back(pos[u][i]);
    }
  }
  return out;
}

class Partitioner {
 public:
  Partitioner(const MatchingOrder& order, const PartitionConfig& config,
              const std::function<Status(Cst)>& sink,
              const std::function<bool(Cst&)>& try_cpu, PartitionStats* stats,
              PartitionPlan* record, std::vector<std::size_t> bit_offsets)
      : order_(order), config_(config), sink_(sink), try_cpu_(try_cpu),
        stats_(stats), record_(record), bit_offsets_(std::move(bit_offsets)) {}

  Status Run(Cst cst, RootPositions pos, std::size_t index) {
    ++stats_->num_recursive_calls;
    if (Fits(cst, config_)) {
      if (OfferToCpu(&cst, pos)) return Status::OK();
      return Emit(std::move(cst), pos, /*oversized=*/false);
    }
    // FAST-SHARE: the host may take an oversized CST as-is, skipping the
    // entire sub-recursion (the Sec. VII-B partition-cost saving).
    if (OfferToCpu(&cst, pos)) return Status::OK();
    if (index >= order_.order.size()) {
      // Every candidate set is down to one vertex and the CST still exceeds
      // a threshold: nothing left to split (pathological δ settings).
      return Emit(std::move(cst), pos, /*oversized=*/true);
    }
    const VertexId u = order_.order[index];
    const std::size_t n_cands = cst.NumCandidates(u);
    if (n_cands <= 1) return Run(std::move(cst), std::move(pos), index + 1);

    std::size_t k;
    if (config_.fixed_k > 0) {
      k = static_cast<std::size_t>(config_.fixed_k);
    } else {
      const double by_size = std::ceil(static_cast<double>(cst.SizeWords()) /
                                       static_cast<double>(config_.max_size_words));
      const double by_degree = std::ceil(static_cast<double>(cst.MaxAdjacencyDegree()) /
                                         static_cast<double>(config_.max_degree));
      k = static_cast<std::size_t>(std::max({by_size, by_degree, 2.0}));
    }
    k = std::min(k, n_cands);

    // Even contiguous split of C(u) into k parts.
    const std::size_t base = n_cands / k;
    const std::size_t extra = n_cands % k;
    std::size_t begin = 0;
    for (std::size_t part = 0; part < k; ++part) {
      const std::size_t len = base + (part < extra ? 1 : 0);
      const std::size_t end = begin + len;

      std::vector<std::vector<char>> keep(cst.NumQueryVertices());
      for (VertexId w = 0; w < cst.NumQueryVertices(); ++w) {
        keep[w].assign(cst.NumCandidates(w), 1);
      }
      std::fill(keep[u].begin(), keep[u].end(), 0);
      for (std::size_t i = begin; i < end; ++i) keep[u][i] = 1;
      PruneMasks(cst, order_.order, index, config_.prune_preceding, &keep);

      FAST_ASSIGN_OR_RETURN(Cst sub, SubsetCst(cst, keep));
      RootPositions sub_pos = KeptPositions(pos, keep);
      begin = end;
      if (Fits(sub, config_)) {
        if (OfferToCpu(&sub, sub_pos)) continue;
        FAST_RETURN_IF_ERROR(Emit(std::move(sub), sub_pos, /*oversized=*/false));
      } else if (sub.NumCandidates(u) <= 1) {
        FAST_RETURN_IF_ERROR(Run(std::move(sub), std::move(sub_pos), index + 1));
      } else {
        FAST_RETURN_IF_ERROR(Run(std::move(sub), std::move(sub_pos), index));
      }
    }
    return Status::OK();
  }

 private:
  bool OfferToCpu(Cst* cst, const RootPositions& pos) {
    if (!try_cpu_) return false;
    if (try_cpu_(*cst)) {
      ++stats_->num_cpu_offloaded;
      Record(pos, /*on_cpu=*/true);
      return true;
    }
    return false;
  }

  Status Emit(Cst cst, const RootPositions& pos, bool oversized) {
    ++stats_->num_partitions;
    if (oversized) ++stats_->num_oversized;
    stats_->total_size_words += cst.SizeWords();
    stats_->max_partition_words = std::max(stats_->max_partition_words, cst.SizeWords());
    Record(pos, /*on_cpu=*/false);
    return sink_(std::move(cst));
  }

  // Appends one partition's bitsets over the root's candidate sets.
  void Record(const RootPositions& pos, bool on_cpu) {
    if (record_ == nullptr) return;
    const std::size_t block = record_->bits.size();
    record_->bits.resize(block + record_->words_per_partition, 0);
    std::uint64_t* bits = record_->bits.data() + block;
    for (std::size_t u = 0; u < pos.size(); ++u) {
      std::uint64_t* words = bits + bit_offsets_[u];
      for (const std::uint32_t p : pos[u]) words[p >> 6] |= std::uint64_t{1} << (p & 63);
    }
    record_->on_cpu.push_back(on_cpu ? 1 : 0);
  }

  const MatchingOrder& order_;
  const PartitionConfig& config_;
  const std::function<Status(Cst)>& sink_;
  const std::function<bool(Cst&)>& try_cpu_;  // may be empty
  PartitionStats* stats_;
  PartitionPlan* record_;  // may be null
  const std::vector<std::size_t> bit_offsets_;  // of the root, when recording
};

Status PartitionImpl(const Cst& cst, const MatchingOrder& order,
                     const PartitionConfig& config,
                     const std::function<Status(Cst)>& sink,
                     const std::function<bool(Cst&)>& try_cpu,
                     PartitionStats* stats, PartitionPlan* record) {
  if (config.max_size_words == 0 || config.max_degree == 0) {
    return Status::InvalidArgument("partition thresholds must be positive");
  }
  if (order.order.size() != cst.NumQueryVertices()) {
    return Status::InvalidArgument("order arity does not match CST");
  }
  if (order.root != cst.layout().tree().root()) {
    return Status::InvalidArgument("order root does not match CST root");
  }
  PartitionStats local;
  PartitionStats* s = stats != nullptr ? stats : &local;
  *s = PartitionStats{};
  RootPositions pos;
  std::vector<std::size_t> bit_offsets;
  if (record != nullptr) {
    *record = PartitionPlan{};
    bit_offsets = CandidateBitsOffsets(cst);
    record->words_per_partition = bit_offsets.back();
    pos.resize(cst.NumQueryVertices());
    for (VertexId u = 0; u < cst.NumQueryVertices(); ++u) {
      pos[u].resize(cst.NumCandidates(u));
      std::iota(pos[u].begin(), pos[u].end(), std::uint32_t{0});
    }
  }
  Partitioner p(order, config, sink, try_cpu, s, record, std::move(bit_offsets));
  Cst copy = cst;
  Status status = p.Run(std::move(copy), std::move(pos), 0);
  if (record != nullptr) {
    record->bits.shrink_to_fit();
    record->stats = *s;
  }
  return status;
}

}  // namespace

Status PartitionCst(const Cst& cst, const MatchingOrder& order,
                    const PartitionConfig& config,
                    const std::function<Status(Cst)>& sink, PartitionStats* stats) {
  return PartitionImpl(cst, order, config, sink, {}, stats, nullptr);
}

Status PartitionCstWithOffload(const Cst& cst, const MatchingOrder& order,
                               const PartitionConfig& config,
                               const std::function<Status(Cst)>& fpga_sink,
                               const std::function<bool(Cst&)>& try_cpu,
                               PartitionStats* stats, PartitionPlan* record) {
  return PartitionImpl(cst, order, config, fpga_sink, try_cpu, stats, record);
}

StatusOr<std::vector<Cst>> PartitionCstToVector(const Cst& cst,
                                                const MatchingOrder& order,
                                                const PartitionConfig& config,
                                                PartitionStats* stats) {
  std::vector<Cst> out;
  Status s = PartitionCst(
      cst, order, config,
      [&out](Cst part) {
        out.push_back(std::move(part));
        return Status::OK();
      },
      stats);
  if (!s.ok()) return s;
  return out;
}

}  // namespace fast
