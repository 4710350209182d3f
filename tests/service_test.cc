// Tests for the concurrent query-serving subsystem (src/service/): canonical
// signatures, the plan/CST LRU cache, and the single-graph server — a
// TenantRouter with one tenant under the default session key — for
// correctness under concurrency, cache eviction, deadlines, and admission
// control.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cst/cst_serialize.h"
#include "service/plan_cache.h"
#include "service/query_signature.h"
#include "tenant/tenant_router.h"
#include "tests/test_util.h"
#include "util/latency_histogram.h"

namespace fast {
namespace {

using service::CanonicalizeQuery;
using service::PlanCache;
using service::RequestOptions;
using tenant::RouterOptions;
using tenant::TenantOptions;
using tenant::TenantRouter;
using testing::BruteForceCount;
using testing::BruteForceEmbeddings;
using testing::PaperDataGraph;
using testing::PaperQuery;
using testing::SmallLdbcGraph;
using testing::ToSet;

// Relabels q's vertices by perm: new vertex perm[u] = old vertex u.
QueryGraph PermuteQuery(const QueryGraph& q, const std::vector<VertexId>& perm,
                        const std::string& name) {
  const std::size_t n = q.NumVertices();
  std::vector<Label> labels(n);
  for (VertexId u = 0; u < n; ++u) labels[perm[u]] = q.label(u);
  GraphBuilder b;
  for (Label l : labels) b.AddVertex(l);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId w : q.neighbors(u)) {
      if (u < w) FAST_CHECK_OK(b.AddEdge(perm[u], perm[w], q.EdgeLabel(u, w)));
    }
  }
  auto g = std::move(b).Build();
  FAST_CHECK(g.ok());
  auto out = QueryGraph::Create(std::move(g).value(), name);
  FAST_CHECK(out.ok());
  return std::move(out).value();
}

// A second query shape on the paper graph: the A-B-C triangle u0-u1-u2.
QueryGraph TriangleQuery() {
  GraphBuilder b;
  b.AddVertex(0);
  b.AddVertex(1);
  b.AddVertex(2);
  FAST_CHECK_OK(b.AddEdge(0, 1));
  FAST_CHECK_OK(b.AddEdge(0, 2));
  FAST_CHECK_OK(b.AddEdge(1, 2));
  auto q = QueryGraph::Create(std::move(b).Build().value(), "triangle");
  FAST_CHECK(q.ok());
  return std::move(q).value();
}

// A path query A-B-D.
QueryGraph PathQuery() {
  GraphBuilder b;
  b.AddVertex(0);
  b.AddVertex(1);
  b.AddVertex(3);
  FAST_CHECK_OK(b.AddEdge(0, 1));
  FAST_CHECK_OK(b.AddEdge(1, 2));
  auto q = QueryGraph::Create(std::move(b).Build().value(), "path");
  FAST_CHECK(q.ok());
  return std::move(q).value();
}

// ---- Canonical signatures. ----

TEST(QuerySignatureTest, IsomorphicNumberingsShareKey) {
  const QueryGraph q = PaperQuery();
  auto base = CanonicalizeQuery(q);
  ASSERT_TRUE(base.ok());
  EXPECT_TRUE(base->exact);

  // Every relabeling of the paper query must canonicalize to the same key.
  const std::vector<std::vector<VertexId>> perms = {
      {1, 0, 2, 3}, {3, 2, 1, 0}, {2, 3, 0, 1}, {0, 2, 1, 3}};
  for (const auto& perm : perms) {
    auto permuted = CanonicalizeQuery(PermuteQuery(q, perm, "perm"));
    ASSERT_TRUE(permuted.ok());
    EXPECT_EQ(base->key, permuted->key);
  }
}

TEST(QuerySignatureTest, DifferentShapesGetDifferentKeys) {
  auto paper = CanonicalizeQuery(PaperQuery());
  auto triangle = CanonicalizeQuery(TriangleQuery());
  auto path = CanonicalizeQuery(PathQuery());
  ASSERT_TRUE(paper.ok() && triangle.ok() && path.ok());
  EXPECT_NE(paper->key, triangle->key);
  EXPECT_NE(paper->key, path->key);
  EXPECT_NE(triangle->key, path->key);
}

TEST(QuerySignatureTest, LabelsAffectKey) {
  GraphBuilder b1, b2;
  b1.AddVertex(0);
  b1.AddVertex(1);
  FAST_CHECK_OK(b1.AddEdge(0, 1));
  b2.AddVertex(0);
  b2.AddVertex(2);
  FAST_CHECK_OK(b2.AddEdge(0, 1));
  auto q1 = QueryGraph::Create(std::move(b1).Build().value());
  auto q2 = QueryGraph::Create(std::move(b2).Build().value());
  auto s1 = CanonicalizeQuery(*q1);
  auto s2 = CanonicalizeQuery(*q2);
  ASSERT_TRUE(s1.ok() && s2.ok());
  EXPECT_NE(s1->key, s2->key);
}

TEST(QuerySignatureTest, LabelsBeyondOneByteDoNotCollide) {
  // Labels are 32-bit; values differing by 256 must not share a key (a
  // byte-truncating encoding would collide 1 with 257).
  auto make = [](Label vertex_label, Label edge_label) {
    GraphBuilder b;
    b.AddVertex(vertex_label);
    b.AddVertex(5);
    FAST_CHECK_OK(b.AddEdge(0, 1, edge_label));
    auto q = QueryGraph::Create(std::move(b).Build().value());
    FAST_CHECK(q.ok());
    return std::move(q).value();
  };
  auto base = CanonicalizeQuery(make(1, 1));
  auto vertex_aliased = CanonicalizeQuery(make(257, 1));
  auto edge_aliased = CanonicalizeQuery(make(1, 257));
  ASSERT_TRUE(base.ok() && vertex_aliased.ok() && edge_aliased.ok());
  EXPECT_NE(base->key, vertex_aliased->key);
  EXPECT_NE(base->key, edge_aliased->key);
}

TEST(QuerySignatureTest, CanonicalQueryPreservesStructure) {
  const QueryGraph q = PaperQuery();
  auto c = CanonicalizeQuery(q);
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c->query.NumVertices(), q.NumVertices());
  ASSERT_EQ(c->query.NumEdges(), q.NumEdges());
  for (VertexId u = 0; u < q.NumVertices(); ++u) {
    EXPECT_EQ(c->query.label(c->to_canonical[u]), q.label(u));
    for (VertexId w = 0; w < q.NumVertices(); ++w) {
      EXPECT_EQ(c->query.HasEdge(c->to_canonical[u], c->to_canonical[w]),
                q.HasEdge(u, w));
    }
  }
}

// ---- Plan cache. ----

TEST(PlanCacheTest, LruEvictionOrder) {
  PlanCache cache(2);
  auto plan = std::make_shared<service::CachedPlan>();
  cache.Insert("a", 1, plan);
  cache.Insert("b", 1, plan);
  EXPECT_NE(cache.Lookup("a", 1), nullptr);  // refresh a; b is now LRU
  cache.Insert("c", 1, plan);                // evicts b
  EXPECT_NE(cache.Lookup("a", 1), nullptr);
  EXPECT_EQ(cache.Lookup("b", 1), nullptr);
  EXPECT_NE(cache.Lookup("c", 1), nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(PlanCacheTest, ZeroCapacityDisables) {
  PlanCache cache(0);
  cache.Insert("a", 1, std::make_shared<service::CachedPlan>());
  EXPECT_EQ(cache.Lookup("a", 1), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(PlanCacheTest, EpochMismatchMissesAndDropsEntry) {
  PlanCache cache(4);
  auto plan = std::make_shared<service::CachedPlan>();
  cache.Insert("a", 1, plan);
  EXPECT_NE(cache.Lookup("a", 1), nullptr);
  // A plan built on epoch 1 must never serve epoch 2, and the dead entry is
  // reclaimed on the spot.
  EXPECT_EQ(cache.Lookup("a", 2), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  // Re-inserting under the new epoch serves again.
  cache.Insert("a", 2, plan);
  EXPECT_NE(cache.Lookup("a", 2), nullptr);
}

TEST(PlanCacheTest, OldEpochRequestCannotDisturbNewerEntry) {
  // A request still draining on epoch 1 races a rebuild for epoch 2: its
  // lookup must miss without evicting the fresh entry, and its insert must
  // not overwrite it.
  PlanCache cache(4);
  auto fresh = std::make_shared<service::CachedPlan>();
  cache.Insert("a", 2, fresh);
  EXPECT_EQ(cache.Lookup("a", 1), nullptr);
  EXPECT_EQ(cache.stats().entries, 1u);  // still there
  EXPECT_EQ(cache.stats().invalidations, 0u);

  auto stale = std::make_shared<service::CachedPlan>();
  cache.Insert("a", 1, stale);
  EXPECT_EQ(cache.Lookup("a", 2), fresh);  // epoch-2 plan survived
}

TEST(PlanCacheTest, StaleInsertAfterInvalidateCannotEvictLiveEntries) {
  // A full cache of current-epoch plans; a request draining on the old
  // epoch finishes its build late. Its insert (a key not in the cache) must
  // be dropped, not evict a live plan from the LRU tail.
  PlanCache cache(2);
  auto plan = std::make_shared<service::CachedPlan>();
  cache.Insert("a", 2, plan);
  cache.Insert("b", 2, plan);
  cache.InvalidateBefore(2);
  cache.Insert("late", 1, plan);
  EXPECT_EQ(cache.Lookup("late", 1), nullptr);
  EXPECT_NE(cache.Lookup("a", 2), nullptr);
  EXPECT_NE(cache.Lookup("b", 2), nullptr);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

// A plan holding a copy of `cst`; its byte charge is CstWireBytes(cst).
std::shared_ptr<service::CachedPlan> PlanWithCst(const Cst& cst) {
  auto p = std::make_shared<service::CachedPlan>();
  p->cst = std::make_shared<const Cst>(cst);
  return p;
}

TEST(PlanCacheTest, ByteBudgetEvictsLruBeyondBytes) {
  const Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  const std::size_t w = CstWireBytes(cst);
  // Entry capacity 8 never binds here; the 2.5-plan budget does.
  PlanCache cache(8, /*byte_budget=*/5 * w / 2);
  cache.Insert("a", 1, PlanWithCst(cst));
  cache.Insert("b", 1, PlanWithCst(cst));
  EXPECT_NE(cache.Lookup("a", 1), nullptr);  // refresh a; b becomes LRU
  cache.Insert("c", 1, PlanWithCst(cst));    // 3w > 2.5w: evict b
  EXPECT_EQ(cache.Lookup("b", 1), nullptr);
  EXPECT_NE(cache.Lookup("a", 1), nullptr);
  EXPECT_NE(cache.Lookup("c", 1), nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes_in_use, 2 * w);
  EXPECT_EQ(stats.byte_budget, 5 * w / 2);
}

TEST(PlanCacheTest, OversizedPlanDemotedToOrderOnly) {
  // A single CST larger than the whole budget must not wipe the cache to
  // admit itself — but the matching order (a few words) is kept, so a hit
  // still skips order computation.
  const Cst small_cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  const Cst big_cst = BuildCst(LdbcQuery(0).value(), SmallLdbcGraph(), 0).value();
  const std::size_t small_bytes = CstWireBytes(small_cst);
  ASSERT_GT(CstWireBytes(big_cst), 2 * small_bytes);
  PlanCache cache(8, /*byte_budget=*/2 * small_bytes);
  cache.Insert("small", 1, PlanWithCst(small_cst));
  auto big = PlanWithCst(big_cst);
  big->order.root = 3;
  big->order.order = {3, 1, 2, 0};
  cache.Insert("big", 1, big);

  auto hit = cache.Lookup("big", 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->order_only());
  EXPECT_EQ(hit->order.root, 3u);
  EXPECT_EQ(hit->order.order, big->order.order);
  EXPECT_NE(cache.Lookup("small", 1), nullptr);  // untouched, full CST
  EXPECT_FALSE(cache.Lookup("small", 1)->order_only());

  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.rejected_oversized, 1u);
  EXPECT_EQ(stats.order_only_hits, 1u);
  // Order-only entries carry no CST bytes: only "small" counts.
  EXPECT_EQ(stats.bytes_in_use, small_bytes);
}

TEST(PlanCacheTest, HitHandsOutTheInsertedCstUncopied) {
  // A hit returns the very CST the miss built: no decode, no copy.
  const Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  PlanCache cache(4, /*byte_budget=*/4 * CstWireBytes(cst));
  auto plan = PlanWithCst(cst);
  const Cst* inserted = plan->cst.get();
  cache.Insert("a", 1, plan);
  const auto hit = cache.Lookup("a", 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_FALSE(hit->order_only());
  EXPECT_EQ(hit->cst.get(), inserted);
  EXPECT_EQ(hit->Bytes(), CstWireBytes(cst));
  EXPECT_EQ(cache.stats().bytes_in_use, CstWireBytes(cst));
}

// A stand-in for a recorded partition plan of `words` bitset words.
PartitionPlan FakePartitions(std::size_t words) {
  PartitionPlan plan;
  plan.words_per_partition = words;
  plan.bits.assign(words, 1);
  plan.on_cpu.push_back(0);
  return plan;
}

TEST(PlanCacheTest, AttachedPartitionsAreChargedButNotAnInsertion) {
  const Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  PlanCache cache(4);
  cache.Insert("a", 1, PlanWithCst(cst));
  const auto base = cache.Lookup("a", 1);
  ASSERT_NE(base, nullptr);
  const std::size_t added = cache.AttachPartitions("a", 1, base, FakePartitions(10));
  EXPECT_EQ(added, 10 * sizeof(std::uint64_t));

  const auto hit = cache.Lookup("a", 1);
  ASSERT_NE(hit, nullptr);
  ASSERT_TRUE(hit->partitions.has_value());
  EXPECT_EQ(hit->cst.get(), base->cst.get());  // the same CST, not a copy
  EXPECT_EQ(hit->Bytes(), CstWireBytes(cst) + added);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.replay_hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes_in_use, CstWireBytes(cst) + added);

  // A second recorder of the same CST-only plan lost the race: dropped.
  EXPECT_EQ(cache.AttachPartitions("a", 1, base, FakePartitions(10)), 0u);
  EXPECT_EQ(cache.stats().bytes_in_use, CstWireBytes(cst) + added);
}

TEST(PlanCacheTest, PartitionsOverTheBudgetKeepTheCstOnlyEntry) {
  const Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  const std::size_t w = CstWireBytes(cst);
  PlanCache cache(4, /*byte_budget=*/w + 64);
  cache.Insert("a", 1, PlanWithCst(cst));
  const auto base = cache.Lookup("a", 1);
  EXPECT_EQ(cache.AttachPartitions("a", 1, base, FakePartitions(9)), 0u);  // w + 72
  const auto hit = cache.Lookup("a", 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit, base);
  EXPECT_FALSE(hit->partitions.has_value());
  auto stats = cache.stats();
  EXPECT_EQ(stats.rejected_partitions, 1u);
  EXPECT_EQ(stats.bytes_in_use, w);
  EXPECT_EQ(stats.evictions, 0u);

  // Within the budget the plan is kept, evicting others if it must.
  cache.Insert("b", 1, PlanWithCst(cst));  // 2w > w + 64: evicts a
  const auto b = cache.Lookup("b", 1);
  EXPECT_EQ(cache.AttachPartitions("b", 1, b, FakePartitions(8)), 64u);
  stats = cache.stats();
  EXPECT_EQ(stats.bytes_in_use, w + 64);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(PlanCacheTest, PartitionsForAReplacedOrStaleEntryAreDropped) {
  const Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  PlanCache cache(4);
  cache.Insert("a", 1, PlanWithCst(cst));
  const auto first = cache.Lookup("a", 1);
  cache.Insert("a", 1, PlanWithCst(cst));  // a concurrent builder's plan
  EXPECT_EQ(cache.AttachPartitions("a", 1, first, FakePartitions(4)), 0u);
  const auto second = cache.Lookup("a", 1);
  EXPECT_EQ(cache.AttachPartitions("a", 2, second, FakePartitions(4)), 0u);
  EXPECT_EQ(cache.AttachPartitions("missing", 1, second, FakePartitions(4)), 0u);
  cache.InvalidateBefore(2);
  EXPECT_EQ(cache.AttachPartitions("a", 1, second, FakePartitions(4)), 0u);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.bytes_in_use, 0u);
  EXPECT_EQ(stats.rejected_partitions, 0u);
}

TEST(PlanCacheTest, EvictedPlanStaysValidForItsHolder) {
  // A request that looked a plan up keeps reading its CST after another
  // insert evicts the entry; only the cache's byte charge is released.
  const Cst small_cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  const Cst big_cst = BuildCst(LdbcQuery(0).value(), SmallLdbcGraph(), 0).value();
  PlanCache cache(1);
  cache.Insert("a", 1, PlanWithCst(big_cst));
  const auto held = cache.Lookup("a", 1);
  ASSERT_NE(held, nullptr);
  cache.Insert("b", 1, PlanWithCst(small_cst));  // capacity 1: evicts a
  EXPECT_EQ(cache.Lookup("a", 1), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().bytes_in_use, CstWireBytes(small_cst));

  ASSERT_TRUE(held->cst->Validate().ok());
  EXPECT_EQ(held->cst->SizeWords(), big_cst.SizeWords());
  EXPECT_EQ(held->cst->TotalCandidates(), big_cst.TotalCandidates());
}

TEST(PlanCacheTest, InvalidateBeforeDropsOldEpochsOnly) {
  PlanCache cache(8);
  auto plan = std::make_shared<service::CachedPlan>();
  cache.Insert("a", 1, plan);
  cache.Insert("b", 2, plan);
  cache.Insert("c", 3, plan);
  cache.InvalidateBefore(3);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_EQ(cache.Lookup("a", 1), nullptr);
  EXPECT_EQ(cache.Lookup("b", 2), nullptr);
  EXPECT_NE(cache.Lookup("c", 3), nullptr);
}

// ---- Service correctness. ----

// The single graph's tenant: the default session key.
const service::SessionKey kGraph;

RouterOptions SmallRouterOptions(std::size_t workers) {
  RouterOptions options;
  options.num_workers = workers;
  options.queue_capacity = 1024;
  return options;
}

TenantOptions SmallTenantOptions() {
  TenantOptions options;
  options.plan_cache_capacity = 16;
  return options;
}

TEST(OneTenantRouterTest, SingleRequestMatchesBruteForce) {
  const Graph g = PaperDataGraph();
  const QueryGraph q = PaperQuery();
  TenantRouter svc(SmallRouterOptions(2));
  ASSERT_TRUE(svc.AddTenant(kGraph, g, SmallTenantOptions()).ok());
  auto r = svc.SubmitAndWait(kGraph, q);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->run.embeddings, BruteForceCount(q, g));
}

TEST(OneTenantRouterTest, ConcurrentMixedWorkloadMatchesBruteForce) {
  const Graph g = PaperDataGraph();
  const std::vector<QueryGraph> mix = {PaperQuery(), TriangleQuery(), PathQuery()};
  std::vector<std::uint64_t> expected;
  for (const auto& q : mix) expected.push_back(BruteForceCount(q, g));

  TenantRouter svc(SmallRouterOptions(8));
  ASSERT_TRUE(svc.AddTenant(kGraph, g, SmallTenantOptions()).ok());
  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 50;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const std::size_t qi = static_cast<std::size_t>(t + i) % mix.size();
        auto r = svc.SubmitAndWait(kGraph, mix[qi]);
        if (!r.ok() || r->run.embeddings != expected[qi]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  const auto stats = svc.stats();
  EXPECT_EQ(stats.completed,
            static_cast<std::uint64_t>(kThreads) * kRequestsPerThread);
  // Three query shapes: all but the first three requests hit the plan cache
  // (up to harmless races rebuilding a plan concurrently).
  EXPECT_GT(stats.tenants[0].cache.hits, 0u);
  EXPECT_GE(stats.latency.count(), stats.completed);
}

TEST(OneTenantRouterTest, IsomorphicQueryHitsCacheAndRemapsEmbeddings) {
  const Graph g = PaperDataGraph();
  const QueryGraph q = PaperQuery();
  const std::vector<VertexId> perm = {2, 0, 3, 1};
  const QueryGraph permuted = PermuteQuery(q, perm, "paper-permuted");

  TenantRouter svc(SmallRouterOptions(1));
  ASSERT_TRUE(svc.AddTenant(kGraph, g, SmallTenantOptions()).ok());
  RequestOptions opts;
  opts.store_limit = 64;

  auto first = svc.SubmitAndWait(kGraph, q, opts);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->cache_hit);

  auto second = svc.SubmitAndWait(kGraph, permuted, opts);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);

  // The permuted query is a different QueryGraph: its embeddings must be in
  // its own numbering, matching an independent brute-force run.
  EXPECT_EQ(second->run.embeddings, BruteForceCount(permuted, g));
  EXPECT_EQ(ToSet(second->run.sample_embeddings),
            ToSet(BruteForceEmbeddings(permuted, g)));
  // The reported matching order must also be in the submitted numbering: it
  // has to be a valid tree-connected order of the permuted query itself.
  EXPECT_TRUE(ValidateOrder(permuted, second->run.order.order).ok());
  EXPECT_EQ(second->run.order.order.front(), second->run.order.root);
}

TEST(OneTenantRouterTest, StreamingCallbackSeesAllEmbeddings) {
  const Graph g = PaperDataGraph();
  const std::vector<VertexId> perm = {1, 3, 0, 2};
  const QueryGraph permuted = PermuteQuery(PaperQuery(), perm, "cb-permuted");

  TenantRouter svc(SmallRouterOptions(1));
  ASSERT_TRUE(svc.AddTenant(kGraph, g, SmallTenantOptions()).ok());
  // Warm the cache with the base shape so the callback path runs remapped.
  ASSERT_TRUE(svc.SubmitAndWait(kGraph, PaperQuery()).ok());

  std::vector<Embedding> streamed;
  RequestOptions opts;
  opts.on_embedding = [&](std::span<const VertexId> e) {
    streamed.emplace_back(e.begin(), e.end());
  };
  auto r = svc.SubmitAndWait(kGraph, permuted, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->cache_hit);
  EXPECT_EQ(ToSet(streamed), ToSet(BruteForceEmbeddings(permuted, g)));
}

TEST(OneTenantRouterTest, CacheEvictionKeepsResultsCorrect) {
  const Graph g = PaperDataGraph();
  TenantOptions topts = SmallTenantOptions();
  topts.plan_cache_capacity = 2;
  TenantRouter svc(SmallRouterOptions(1));
  ASSERT_TRUE(svc.AddTenant(kGraph, g, topts).ok());

  const std::vector<QueryGraph> shapes = {PaperQuery(), TriangleQuery(), PathQuery()};
  std::vector<std::uint64_t> expected;
  for (const auto& q : shapes) expected.push_back(BruteForceCount(q, g));

  // Two rounds over three shapes with capacity two: evictions must occur and
  // every result must stay correct.
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      auto r = svc.SubmitAndWait(kGraph, shapes[i]);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r->run.embeddings, expected[i]);
    }
  }
  const auto stats = svc.stats();
  EXPECT_GT(stats.tenants[0].cache.evictions, 0u);
  EXPECT_LE(stats.tenants[0].cache.entries, 2u);
}

TEST(OneTenantRouterTest, DeadlinePassedInQueueRejects) {
  const Graph g = PaperDataGraph();
  TenantRouter svc(SmallRouterOptions(1));
  ASSERT_TRUE(svc.AddTenant(kGraph, g, SmallTenantOptions()).ok());

  // Block the single worker inside a request via its embedding callback.
  std::atomic<bool> started{false};
  RequestOptions blocker_opts;
  blocker_opts.on_embedding = [&](std::span<const VertexId>) {
    started.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  };
  auto blocker = svc.Submit(kGraph, PaperQuery(), blocker_opts);
  ASSERT_TRUE(blocker.ok());
  while (!started.load()) std::this_thread::yield();

  // This request waits >= ~200ms in the queue but allows only 1ms.
  RequestOptions tight;
  tight.deadline_seconds = 0.001;
  auto late = svc.Submit(kGraph, TriangleQuery(), tight);
  ASSERT_TRUE(late.ok());

  auto late_result = svc.Wait(*late);
  EXPECT_EQ(late_result->status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(svc.Wait(*blocker)->status.ok());
  EXPECT_EQ(svc.stats().rejected_deadline, 1u);
}

TEST(OneTenantRouterTest, DeadlineExpiringMidRunAbortsMatching) {
  // 30 disjoint A-B-C triangles; with N_o = 4 the kernel needs many
  // Generator rounds, so there is always a round boundary — and therefore a
  // cancellation probe — after the sleeping embedding callback below.
  GraphBuilder b;
  for (VertexId i = 0; i < 30; ++i) {
    const VertexId base = 3 * i;
    b.AddVertex(0);
    b.AddVertex(1);
    b.AddVertex(2);
    FAST_CHECK_OK(b.AddEdge(base, base + 1));
    FAST_CHECK_OK(b.AddEdge(base, base + 2));
    FAST_CHECK_OK(b.AddEdge(base + 1, base + 2));
  }
  RouterOptions options = SmallRouterOptions(1);
  options.run.fpga.max_new_partials = 4;
  TenantRouter svc(options);
  ASSERT_TRUE(
      svc.AddTenant(kGraph, std::move(b).Build().value(), SmallTenantOptions())
          .ok());

  std::atomic<int> seen{0};
  RequestOptions opts;
  opts.deadline_seconds = 0.05;
  opts.on_embedding = [&](std::span<const VertexId>) {
    // Burn through the deadline inside the run; dispatch happened long
    // before it expired, so only mid-run enforcement can reject this.
    if (seen.fetch_add(1) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
  };
  auto r = svc.Submit(kGraph, TriangleQuery(), opts);
  ASSERT_TRUE(r.ok());
  auto result = svc.Wait(*r);
  EXPECT_EQ(result->status.code(), StatusCode::kDeadlineExceeded);
  // Dispatched (epoch captured), then aborted mid-run — not a queue reject.
  EXPECT_GT(result->graph_epoch, 0u);
  EXPECT_GT(seen.load(), 0);
  EXPECT_LT(seen.load(), 30);  // the run did not finish all 30 triangles
  const auto stats = svc.stats();
  EXPECT_EQ(stats.cancelled_midrun, 1u);
  EXPECT_EQ(stats.rejected_deadline, 0u);
  EXPECT_EQ(stats.completed, 0u);

  // The same query without a deadline completes and finds all 30.
  auto ok = svc.SubmitAndWait(kGraph, TriangleQuery());
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->run.embeddings, 30u);
}

TEST(OneTenantRouterTest, OrderOnlyCacheHitRebuildsCstCorrectly) {
  const Graph g = PaperDataGraph();
  const QueryGraph q = PaperQuery();
  TenantOptions topts = SmallTenantOptions();
  topts.plan_cache_byte_budget = 8;  // every CST oversized → order-only
  TenantRouter svc(SmallRouterOptions(2));
  ASSERT_TRUE(svc.AddTenant(kGraph, g, topts).ok());

  auto miss = svc.SubmitAndWait(kGraph, q);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->cache_hit);

  auto hit = svc.SubmitAndWait(kGraph, q);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_EQ(hit->run.embeddings, BruteForceCount(q, g));
  EXPECT_EQ(hit->run.order.order, miss->run.order.order);  // cached order
  // The CST was rebuilt, not taken from the cache: build time is real.
  EXPECT_GT(hit->run.build_seconds, 0.0);

  const auto stats = svc.stats();
  EXPECT_EQ(stats.tenants[0].cache.rejected_oversized, 1u);
  EXPECT_EQ(stats.tenants[0].cache.order_only_hits, 1u);
  EXPECT_EQ(stats.tenants[0].cache.entries, 1u);
  EXPECT_EQ(stats.tenants[0].cache.bytes_in_use, 0u);  // order-only carries no CST
}

// The plan-cache dimension of a request's cost: the miss that inserts a
// plan is charged its CST's wire bytes, exactly what the cache holds; a hit
// inserts nothing and is charged nothing.
TEST(OneTenantRouterTest, MissIsChargedCachedBytesAndHitNothing) {
  const Graph g = SmallLdbcGraph();
  const QueryGraph q = LdbcQuery(2).value();
  std::vector<VertexId> perm(q.NumVertices());
  std::iota(perm.rbegin(), perm.rend(), VertexId{0});  // reversed numbering
  TenantRouter svc(SmallRouterOptions(1));
  ASSERT_TRUE(svc.AddTenant(kGraph, g, SmallTenantOptions()).ok());

  auto miss = svc.SubmitAndWait(kGraph, q);
  ASSERT_TRUE(miss.ok() && miss->status.ok());
  EXPECT_FALSE(miss->cache_hit);
  const std::size_t cached = svc.stats().tenants[0].cache.bytes_in_use;
  EXPECT_GT(cached, 0u);
  EXPECT_EQ(miss->plan_bytes_charged, cached);

  auto hit = svc.SubmitAndWait(kGraph, PermuteQuery(q, perm, "q2-permuted"));
  ASSERT_TRUE(hit.ok() && hit->status.ok());
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_EQ(hit->plan_bytes_charged, 0u);
  EXPECT_EQ(hit->run.embeddings, miss->run.embeddings);
  EXPECT_EQ(svc.stats().tenants[0].cache.bytes_in_use, cached);
}

RouterOptions DeviceRouterOptions(std::size_t workers) {
  RouterOptions options = SmallRouterOptions(workers);
  options.device_mode = true;
  options.device.batch_window_seconds = 1e-4;
  options.device.max_batch_items = 8;
  return options;
}

TEST(OneTenantRouterTest, DeviceModeMixedWorkloadMatchesBruteForce) {
  // The shared-device path must be bit-equivalent to the per-worker path:
  // same counts, same remapped embeddings, under concurrent submission.
  const Graph g = PaperDataGraph();
  const std::vector<QueryGraph> mix = {PaperQuery(), TriangleQuery(),
                                       PathQuery()};
  std::vector<std::uint64_t> expected;
  expected.reserve(mix.size());
  for (const auto& q : mix) expected.push_back(BruteForceCount(q, g));

  TenantRouter svc(DeviceRouterOptions(4));
  ASSERT_TRUE(svc.AddTenant(kGraph, g, SmallTenantOptions()).ok());
  constexpr int kRequests = 24;
  std::vector<TenantRouter::RequestId> ids;
  for (int i = 0; i < kRequests; ++i) {
    auto id = svc.Submit(kGraph, mix[static_cast<std::size_t>(i) % mix.size()]);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  for (int i = 0; i < kRequests; ++i) {
    auto r = svc.Wait(ids[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_TRUE((*r).status.ok()) << (*r).status;
    EXPECT_EQ((*r).run.embeddings, expected[static_cast<std::size_t>(i) % mix.size()]);
    EXPECT_GE((*r).run.fpga_partitions, 1u);
  }

  const auto stats = svc.stats();
  EXPECT_TRUE(stats.device_mode);
  EXPECT_EQ(stats.device.queries, static_cast<std::uint64_t>(kRequests));
  EXPECT_GE(stats.device.items, static_cast<std::uint64_t>(kRequests));
  EXPECT_GT(stats.device.wire_bytes, 0u);
  EXPECT_GE(stats.device.QueriesPerRound(), 1.0);
}

TEST(OneTenantRouterTest, DeviceModeDeadlineExpiringMidRunAborts) {
  // The device analog of DeadlineExpiringMidRunAbortsMatching: the token is
  // probed inside the shared device round (kernel loop and pipeline
  // simulation), so a deadline burnt inside the run still cancels, and the
  // service still reports it as cancelled_midrun.
  GraphBuilder b;
  for (VertexId i = 0; i < 30; ++i) {
    const VertexId base = 3 * i;
    b.AddVertex(0);
    b.AddVertex(1);
    b.AddVertex(2);
    FAST_CHECK_OK(b.AddEdge(base, base + 1));
    FAST_CHECK_OK(b.AddEdge(base, base + 2));
    FAST_CHECK_OK(b.AddEdge(base + 1, base + 2));
  }
  RouterOptions options = DeviceRouterOptions(1);
  options.run.fpga.max_new_partials = 4;
  TenantRouter svc(options);
  ASSERT_TRUE(
      svc.AddTenant(kGraph, std::move(b).Build().value(), SmallTenantOptions())
          .ok());

  std::atomic<int> seen{0};
  RequestOptions opts;
  opts.deadline_seconds = 0.05;
  opts.on_embedding = [&](std::span<const VertexId>) {
    if (seen.fetch_add(1) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
  };
  auto r = svc.Submit(kGraph, TriangleQuery(), opts);
  ASSERT_TRUE(r.ok());
  auto result = svc.Wait(*r);
  EXPECT_EQ(result->status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GT(result->graph_epoch, 0u);  // aborted mid-run, not while queued
  EXPECT_GT(seen.load(), 0);
  EXPECT_LT(seen.load(), 30);
  const auto stats = svc.stats();
  EXPECT_EQ(stats.cancelled_midrun, 1u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_GE(stats.device.cancelled_items, 1u);

  // The same query without a deadline completes on the device path.
  auto ok = svc.SubmitAndWait(kGraph, TriangleQuery());
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->run.embeddings, 30u);
}

// A random relabelling of q's vertices (a permutation drawn from `rng`).
QueryGraph RandomRelabel(const QueryGraph& q, std::mt19937* rng) {
  std::vector<VertexId> perm(q.NumVertices());
  std::iota(perm.begin(), perm.end(), VertexId{0});
  std::shuffle(perm.begin(), perm.end(), *rng);
  return PermuteQuery(q, perm, q.name() + "-relabelled");
}

// A full hit runs the cached CST as is: for every LDBC query, the hit on a
// relabelled submission reproduces the miss's run bit for bit, on the inline
// and on the shared-device path, and its embeddings come back in the
// relabelled numbering.
TEST(OneTenantRouterTest, FullHitReproducesColdRunBitForBit) {
  const Graph g = SmallLdbcGraph();
  std::mt19937 rng(16);
  for (const bool device : {false, true}) {
    RouterOptions options = device ? DeviceRouterOptions(1) : SmallRouterOptions(1);
    // A small BRAM budget splits every CST into several partitions, and the
    // inline path keeps a δ-share of them on the host (device mode runs
    // without one).
    options.run.partition.max_size_words = 256;
    options.run.cpu_share_delta = 0.3;
    // One partition per device round: how a run's partitions fall into
    // batched rounds depends on thread timing, and with it the share of the
    // per-round transfer cost in dma_bytes and pcie_seconds.
    options.device.max_batch_items = 1;
    TenantRouter svc(options);
    ASSERT_TRUE(svc.AddTenant(kGraph, g, SmallTenantOptions()).ok());
    for (int qi = 0; qi < kNumLdbcQueries; ++qi) {
      const QueryGraph q = LdbcQuery(qi).value();
      const QueryGraph relabelled = RandomRelabel(q, &rng);
      const std::vector<Embedding> truth = BruteForceEmbeddings(relabelled, g);
      RequestOptions opts;
      opts.store_limit = truth.size();
      SCOPED_TRACE(q.name() + (device ? " device" : " inline"));

      auto cold = svc.SubmitAndWait(kGraph, q, opts);
      ASSERT_TRUE(cold.ok() && cold->status.ok());
      EXPECT_FALSE(cold->cache_hit);
      auto hot = svc.SubmitAndWait(kGraph, relabelled, opts);
      ASSERT_TRUE(hot.ok() && hot->status.ok());
      EXPECT_TRUE(hot->cache_hit);

      // The same numbering again: embeddings come back in the same order.
      auto same = svc.SubmitAndWait(kGraph, q, opts);
      ASSERT_TRUE(same.ok() && same->status.ok());

      const FastRunResult& a = cold->run;
      for (const FastRunResult* b : {&hot->run, &same->run}) {
        EXPECT_EQ(b->embeddings, a.embeddings);
        EXPECT_EQ(b->counters, a.counters);
        EXPECT_EQ(b->partition_stats, a.partition_stats);
        EXPECT_EQ(b->cpu_partitions, a.cpu_partitions);
        EXPECT_EQ(b->fpga_partitions, a.fpga_partitions);
        EXPECT_EQ(b->cpu_share_fraction, a.cpu_share_fraction);
        EXPECT_EQ(b->kernel_seconds, a.kernel_seconds);
        EXPECT_EQ(b->pcie_seconds, a.pcie_seconds);
        EXPECT_EQ(b->dma_bytes, a.dma_bytes);
        EXPECT_EQ(b->build_seconds, 0.0);
      }
      EXPECT_EQ(ToSet(hot->run.sample_embeddings), ToSet(truth));
      EXPECT_EQ(same->run.sample_embeddings, a.sample_embeddings);
      EXPECT_GT(a.partition_stats.num_partitions, 1u);
      // Both hits replayed the partitions the cold run recorded.
      EXPECT_EQ(svc.stats().tenants[0].cache.replay_hits,
                2 * static_cast<std::uint64_t>(qi + 1));
    }
  }
}

// The plan of a tenant caching q on g under `run`: the wire bytes of its
// CST, and those plus the bitset bytes of the partition plan a run on that
// CST records.
struct ExpectedPlanBytes {
  std::size_t cst = 0;
  std::size_t total = 0;
};

ExpectedPlanBytes PlanBytes(const QueryGraph& q, const Graph& g, const FastRunOptions& run) {
  const auto canonical = CanonicalizeQuery(q).value();
  const MatchingOrder order =
      ComputeMatchingOrder(canonical.query, g, run.order_policy).value();
  const Cst cst = BuildCst(canonical.query, g, order.root, run.cst_build).value();
  PartitionPlan plan;
  FAST_CHECK(RunFastWithCst(cst, order, run, 0.0, nullptr, nullptr, &plan).ok());
  return {CstWireBytes(cst), CstWireBytes(cst) + plan.Bytes()};
}

// A plan's byte charge is its CST's wire bytes plus its partition bitsets;
// the miss that recorded the partitions is charged all of it.
TEST(OneTenantRouterTest, CachedBytesIncludeThePartitionBitsets) {
  const Graph g = SmallLdbcGraph();
  const QueryGraph q = LdbcQuery(4).value();
  RouterOptions options = SmallRouterOptions(1);
  options.run.partition.max_size_words = 256;
  TenantRouter svc(options);
  ASSERT_TRUE(svc.AddTenant(kGraph, g, SmallTenantOptions()).ok());
  const ExpectedPlanBytes want = PlanBytes(q, g, options.run);
  ASSERT_GT(want.total, want.cst);

  auto miss = svc.SubmitAndWait(kGraph, q);
  ASSERT_TRUE(miss.ok() && miss->status.ok());
  auto cache = svc.stats().tenants[0].cache;
  EXPECT_EQ(cache.bytes_in_use, want.total);
  EXPECT_EQ(miss->plan_bytes_charged, want.total);
  EXPECT_EQ(cache.insertions, 1u);
  EXPECT_EQ(cache.misses, 1u);

  auto hit = svc.SubmitAndWait(kGraph, q);
  ASSERT_TRUE(hit.ok() && hit->status.ok());
  EXPECT_EQ(hit->plan_bytes_charged, 0u);
  cache = svc.stats().tenants[0].cache;
  EXPECT_EQ(cache.replay_hits, 1u);
  EXPECT_EQ(cache.bytes_in_use, want.total);
  EXPECT_EQ(cache.insertions, 1u);
}

// Only a run that succeeds publishes its partitions: a miss cancelled
// mid-run leaves the CST it inserted before running, without partitions;
// the next run on that CST records them.
TEST(OneTenantRouterTest, CancelledMissPublishesNoPartitionPlan) {
  GraphBuilder b;
  for (VertexId i = 0; i < 30; ++i) {
    const VertexId base = 3 * i;
    b.AddVertex(0);
    b.AddVertex(1);
    b.AddVertex(2);
    FAST_CHECK_OK(b.AddEdge(base, base + 1));
    FAST_CHECK_OK(b.AddEdge(base, base + 2));
    FAST_CHECK_OK(b.AddEdge(base + 1, base + 2));
  }
  const Graph g = std::move(b).Build().value();
  RouterOptions options = SmallRouterOptions(1);
  options.run.fpga.max_new_partials = 4;
  options.run.partition.max_size_words = 64;  // several partitions
  TenantRouter svc(options);
  ASSERT_TRUE(svc.AddTenant(kGraph, g, SmallTenantOptions()).ok());
  const ExpectedPlanBytes want = PlanBytes(TriangleQuery(), g, options.run);

  std::atomic<int> seen{0};
  RequestOptions opts;
  opts.deadline_seconds = 0.05;
  opts.on_embedding = [&](std::span<const VertexId>) {
    if (seen.fetch_add(1) == 0) std::this_thread::sleep_for(std::chrono::milliseconds(200));
  };
  auto id = svc.Submit(kGraph, TriangleQuery(), opts);
  ASSERT_TRUE(id.ok());
  auto cancelled = svc.Wait(*id);
  ASSERT_TRUE(cancelled.ok());
  EXPECT_EQ(cancelled->status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GT(cancelled->graph_epoch, 0u);  // aborted mid-run
  EXPECT_EQ(cancelled->plan_bytes_charged, want.cst);
  auto cache = svc.stats().tenants[0].cache;
  EXPECT_EQ(cache.entries, 1u);
  EXPECT_EQ(cache.bytes_in_use, want.cst);

  auto recorder = svc.SubmitAndWait(kGraph, TriangleQuery());
  ASSERT_TRUE(recorder.ok() && recorder->status.ok());
  EXPECT_TRUE(recorder->cache_hit);
  EXPECT_EQ(recorder->run.embeddings, 30u);
  EXPECT_EQ(recorder->plan_bytes_charged, want.total - want.cst);
  auto replay = svc.SubmitAndWait(kGraph, TriangleQuery());
  ASSERT_TRUE(replay.ok() && replay->status.ok());
  EXPECT_EQ(replay->run.embeddings, 30u);
  EXPECT_EQ(replay->run.counters, recorder->run.counters);
  cache = svc.stats().tenants[0].cache;
  EXPECT_EQ(cache.replay_hits, 1u);
  EXPECT_EQ(cache.bytes_in_use, want.total);
  EXPECT_EQ(cache.insertions, 1u);
}

// Concurrent requests from a cold cache: whichever recorded first publishes
// the partition plan, the others' are dropped, so the cache holds one
// plan's bytes and every request counts exactly what the pipeline counts.
// Under TSan this checks that the shared plan is only ever read.
TEST(OneTenantRouterTest, ConcurrentRequestsShareOnePartitionPlan) {
  const Graph g = SmallLdbcGraph();
  const QueryGraph q = LdbcQuery(4).value();
  RouterOptions options = SmallRouterOptions(4);
  options.run.partition.max_size_words = 256;
  TenantRouter svc(options);
  ASSERT_TRUE(svc.AddTenant(kGraph, g, SmallTenantOptions()).ok());
  const ExpectedPlanBytes want = PlanBytes(q, g, options.run);
  const FastRunResult reference = RunFast(q, g, options.run).value();
  ASSERT_GT(reference.partition_stats.num_partitions, 1u);

  constexpr int kClients = 6;
  constexpr int kRequestsPerClient = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937 rng(static_cast<std::uint32_t>(100 + c));
      for (int i = 0; i < kRequestsPerClient; ++i) {
        auto r = svc.SubmitAndWait(kGraph, RandomRelabel(q, &rng));
        if (!r.ok() || !r->status.ok() || r->run.embeddings != reference.embeddings ||
            !(r->run.counters == reference.counters) ||
            !(r->run.partition_stats == reference.partition_stats)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  auto cache = svc.stats().tenants[0].cache;
  EXPECT_EQ(cache.entries, 1u);
  EXPECT_EQ(cache.bytes_in_use, want.total);
  EXPECT_GE(cache.replay_hits, 1u);
  EXPECT_EQ(cache.hits + cache.misses,
            static_cast<std::uint64_t>(kClients) * kRequestsPerClient);

  // From here on every request replays that one plan.
  auto after = svc.SubmitAndWait(kGraph, q);
  ASSERT_TRUE(after.ok() && after->status.ok());
  EXPECT_EQ(after->run.counters, reference.counters);
  EXPECT_EQ(svc.stats().tenants[0].cache.replay_hits, cache.replay_hits + 1);
}

// Concurrent hits share one cached CST: several clients on four workers
// submit differently relabelled copies of one query; every request after the
// cold one hits and counts exactly what the cold run counted. Under TSan this
// checks that the shared CST is only ever read.
TEST(OneTenantRouterTest, ConcurrentHitsShareOneCachedCst) {
  const Graph g = SmallLdbcGraph();
  const QueryGraph q = LdbcQuery(4).value();
  TenantRouter svc(SmallRouterOptions(4));
  ASSERT_TRUE(svc.AddTenant(kGraph, g, SmallTenantOptions()).ok());
  auto cold = svc.SubmitAndWait(kGraph, q);
  ASSERT_TRUE(cold.ok() && cold->status.ok());
  const std::uint64_t expected = cold->run.embeddings;

  constexpr int kClients = 6;
  constexpr int kRequestsPerClient = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937 rng(static_cast<std::uint32_t>(c));
      for (int i = 0; i < kRequestsPerClient; ++i) {
        auto r = svc.SubmitAndWait(kGraph, RandomRelabel(q, &rng));
        if (!r.ok() || !r->status.ok() || !r->cache_hit ||
            r->run.embeddings != expected) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const auto cache = svc.stats().tenants[0].cache;
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.hits, static_cast<std::uint64_t>(kClients) * kRequestsPerClient);
}

TEST(OneTenantRouterTest, FullQueueRejectsSubmit) {
  const Graph g = PaperDataGraph();
  RouterOptions options = SmallRouterOptions(1);
  options.queue_capacity = 1;
  TenantRouter svc(options);
  ASSERT_TRUE(svc.AddTenant(kGraph, g, SmallTenantOptions()).ok());

  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  RequestOptions blocker_opts;
  blocker_opts.on_embedding = [&](std::span<const VertexId>) {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  };
  auto blocker = svc.Submit(kGraph, PaperQuery(), blocker_opts);
  ASSERT_TRUE(blocker.ok());
  while (!started.load()) std::this_thread::yield();

  // Worker busy; capacity-1 queue takes one request, then rejects.
  auto queued = svc.Submit(kGraph, TriangleQuery());
  ASSERT_TRUE(queued.ok());
  auto rejected = svc.Submit(kGraph, PathQuery());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  release.store(true);
  EXPECT_TRUE(svc.Wait(*blocker)->status.ok());
  EXPECT_TRUE(svc.Wait(*queued)->status.ok());
  EXPECT_EQ(svc.stats().rejected_queue_full, 1u);
}

TEST(OneTenantRouterTest, ShutdownDrainsBacklogAndRejectsNewWork) {
  const Graph g = PaperDataGraph();
  TenantRouter svc(SmallRouterOptions(2));
  ASSERT_TRUE(svc.AddTenant(kGraph, g, SmallTenantOptions()).ok());
  std::vector<TenantRouter::RequestId> ids;
  for (int i = 0; i < 20; ++i) {
    auto id = svc.Submit(kGraph, PaperQuery());
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  svc.Shutdown();
  for (auto id : ids) EXPECT_TRUE(svc.Wait(id)->status.ok());
  EXPECT_EQ(svc.Submit(kGraph, PaperQuery()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(OneTenantRouterTest, WaitTwiceReturnsNotFound) {
  const Graph g = PaperDataGraph();
  TenantRouter svc(SmallRouterOptions(1));
  ASSERT_TRUE(svc.AddTenant(kGraph, g, SmallTenantOptions()).ok());
  auto id = svc.Submit(kGraph, PaperQuery());
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(svc.Wait(*id)->status.ok());
  // Double Wait: the NOT_FOUND is on the OUTER StatusOr, so it can never
  // be mistaken for an execution outcome.
  EXPECT_EQ(svc.Wait(*id).status().code(), StatusCode::kNotFound);
}

// ---- Supporting utilities. ----

TEST(LatencyHistogramTest, QuantilesWithinBucketError) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<double>(i) * 1e-6);
  EXPECT_EQ(h.count(), 1000u);
  // p50 ~ 500us, p99 ~ 990us; log buckets guarantee <= 12.5% relative error.
  EXPECT_NEAR(h.P50() * 1e6, 500.0, 500.0 * 0.125 + 1.0);
  EXPECT_NEAR(h.P99() * 1e6, 990.0, 990.0 * 0.125 + 1.0);
  EXPECT_DOUBLE_EQ(h.min_seconds(), 1e-6);
  EXPECT_DOUBLE_EQ(h.max_seconds(), 1e-3);
}

TEST(LatencyHistogramTest, MergeEqualsCombinedRecording) {
  LatencyHistogram a, b, combined;
  for (int i = 0; i < 100; ++i) {
    const double v = static_cast<double>(i % 17 + 1) * 1e-4;
    (i % 2 == 0 ? a : b).Record(v);
    combined.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.P50(), combined.P50());
  EXPECT_DOUBLE_EQ(a.P99(), combined.P99());
  EXPECT_DOUBLE_EQ(a.sum_seconds(), combined.sum_seconds());
}

}  // namespace
}  // namespace fast
