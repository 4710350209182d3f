// Tests for online graph updates in the serving layer: epoch-based snapshot
// swap (TenantRouter::SwapGraph / ApplyDelta on a one-tenant router),
// plan-cache invalidation across epochs, and consistency of results under
// concurrent clients and a writer. The concurrency tests here are the ones CI runs under TSan and
// ASan+UBSan.

#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_delta.h"
#include "tenant/tenant_router.h"
#include "tests/test_util.h"

namespace fast {
namespace {

using service::RequestOptions;
using tenant::RouterOptions;
using tenant::TenantOptions;
using tenant::TenantRouter;
using testing::BruteForceCount;
using testing::PaperDataGraph;
using testing::PaperQuery;

// The single graph's tenant: the default session key.
const service::SessionKey kGraph;

RouterOptions SwapTestOptions(std::size_t workers) {
  RouterOptions options;
  options.num_workers = workers;
  options.queue_capacity = 1024;
  return options;
}

TenantOptions SwapTenantOptions() {
  TenantOptions options;
  options.plan_cache_capacity = 16;
  return options;
}

std::uint64_t Epoch(const TenantRouter& router) {
  return router.snapshot(kGraph)->epoch;
}

// The A-B-C triangle query (labels of the paper graph).
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

// A delta that appends a fresh A-B-C-D block matching the paper query
// (labels A=0 B=1 C=2 D=3), adding embeddings without disturbing old ids.
GraphDelta AddPatternBlockDelta(std::size_t base_vertices) {
  const auto v = static_cast<VertexId>(base_vertices);
  GraphDelta delta;
  delta.add_vertices = {0, 1, 2, 3};  // A, B, C, D at ids v..v+3
  delta.add_edges = {{v, static_cast<VertexId>(v + 1), 0},
                     {v, static_cast<VertexId>(v + 2), 0},
                     {static_cast<VertexId>(v + 1), static_cast<VertexId>(v + 2), 0},
                     {static_cast<VertexId>(v + 1), static_cast<VertexId>(v + 3), 0},
                     {static_cast<VertexId>(v + 2), static_cast<VertexId>(v + 3), 0}};
  return delta;
}

TEST(SnapshotSwapTest, ApplyDeltaPublishesNewEpoch) {
  const Graph base = PaperDataGraph();
  const QueryGraph q = PaperQuery();
  TenantRouter svc(SwapTestOptions(2));
  ASSERT_TRUE(svc.AddTenant(kGraph, base, SwapTenantOptions()).ok());
  EXPECT_EQ(Epoch(svc), 1u);

  auto before = svc.SubmitAndWait(kGraph, q);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->graph_epoch, 1u);
  EXPECT_EQ(before->run.embeddings, BruteForceCount(q, base));

  const GraphDelta delta = AddPatternBlockDelta(base.NumVertices());
  auto expected_graph = ApplyDelta(base, delta);
  ASSERT_TRUE(expected_graph.ok());
  auto epoch = svc.ApplyDelta(kGraph, delta);
  ASSERT_TRUE(epoch.ok()) << epoch.status();
  EXPECT_EQ(*epoch, 2u);
  EXPECT_EQ(Epoch(svc), 2u);

  auto after = svc.SubmitAndWait(kGraph, q);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->graph_epoch, 2u);
  EXPECT_EQ(after->run.embeddings, BruteForceCount(q, *expected_graph));
  EXPECT_GT(after->run.embeddings, before->run.embeddings);

  const auto stats = svc.stats();
  EXPECT_EQ(stats.tenants[0].epoch, 2u);
  EXPECT_EQ(stats.tenants[0].graph_swaps, 1u);
}

TEST(SnapshotSwapTest, ApplyDeltaRejectsBadDeltaAndKeepsEpoch) {
  TenantRouter svc(SwapTestOptions(1));
  ASSERT_TRUE(svc.AddTenant(kGraph, PaperDataGraph(), SwapTenantOptions()).ok());
  GraphDelta bad;
  bad.remove_vertices = {999};
  EXPECT_EQ(svc.ApplyDelta(kGraph, bad).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Epoch(svc), 1u);
  EXPECT_EQ(svc.stats().tenants[0].graph_swaps, 0u);
}

TEST(SnapshotSwapTest, SwapInvalidatesPlanCache) {
  const Graph base = PaperDataGraph();
  const QueryGraph q = PaperQuery();
  TenantRouter svc(SwapTestOptions(1));
  ASSERT_TRUE(svc.AddTenant(kGraph, base, SwapTenantOptions()).ok());

  ASSERT_TRUE(svc.SubmitAndWait(kGraph, q).ok());
  auto hit = svc.SubmitAndWait(kGraph, q);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);

  // Remove one edge of the C-D block: v3-v9 (ids 2-8) kills an embedding.
  GraphDelta delta;
  delta.remove_edges = {{2, 8}};
  auto expected_graph = ApplyDelta(base, delta);
  ASSERT_TRUE(expected_graph.ok());
  ASSERT_TRUE(svc.ApplyDelta(kGraph, delta).ok());

  // The cached CST was built on epoch 1 and must not serve epoch 2.
  auto after = svc.SubmitAndWait(kGraph, q);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->cache_hit);
  EXPECT_EQ(after->graph_epoch, 2u);
  EXPECT_EQ(after->run.embeddings, BruteForceCount(q, *expected_graph));
  EXPECT_LT(after->run.embeddings, hit->run.embeddings);
  EXPECT_GE(svc.stats().tenants[0].cache.invalidations, 1u);

  // And the epoch-2 rebuild is itself cached again.
  auto rehit = svc.SubmitAndWait(kGraph, q);
  ASSERT_TRUE(rehit.ok());
  EXPECT_TRUE(rehit->cache_hit);
  EXPECT_EQ(rehit->run.embeddings, after->run.embeddings);
}

TEST(SnapshotSwapTest, SwapGraphReplacesWholeSnapshot) {
  const Graph base = PaperDataGraph();
  TenantRouter svc(SwapTestOptions(2));
  ASSERT_TRUE(svc.AddTenant(kGraph, base, SwapTenantOptions()).ok());
  const QueryGraph tri = TriangleQuery();
  auto before = svc.SubmitAndWait(kGraph, tri);
  ASSERT_TRUE(before.ok());

  // Replace the data graph wholesale with one lone A-B-C triangle.
  GraphBuilder b;
  b.AddVertex(0);
  b.AddVertex(1);
  b.AddVertex(2);
  FAST_CHECK_OK(b.AddEdge(0, 1));
  FAST_CHECK_OK(b.AddEdge(0, 2));
  FAST_CHECK_OK(b.AddEdge(1, 2));
  Graph replacement = std::move(b).Build().value();
  const std::uint64_t expected = BruteForceCount(tri, replacement);
  auto swapped = svc.SwapGraph(kGraph, std::move(replacement));
  ASSERT_TRUE(swapped.ok()) << swapped.status();
  EXPECT_EQ(*swapped, 2u);

  auto after = svc.SubmitAndWait(kGraph, tri);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->graph_epoch, 2u);
  EXPECT_EQ(after->run.embeddings, expected);
}

TEST(SnapshotSwapTest, InFlightRequestFinishesOnCapturedSnapshot) {
  const Graph base = PaperDataGraph();
  const QueryGraph q = PaperQuery();
  const std::uint64_t old_count = BruteForceCount(q, base);
  TenantRouter svc(SwapTestOptions(1));
  ASSERT_TRUE(svc.AddTenant(kGraph, base, SwapTenantOptions()).ok());

  // Park the single worker inside a request via its embedding callback, so
  // the request is provably in flight when the swap publishes.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  RequestOptions blocker_opts;
  blocker_opts.on_embedding = [&](std::span<const VertexId>) {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  };
  auto blocker = svc.Submit(kGraph, q, blocker_opts);
  ASSERT_TRUE(blocker.ok());
  while (!started.load()) std::this_thread::yield();

  const GraphDelta delta = AddPatternBlockDelta(base.NumVertices());
  auto expected_graph = ApplyDelta(base, delta);
  ASSERT_TRUE(expected_graph.ok());
  // Must not block on the running query.
  auto epoch = svc.ApplyDelta(kGraph, delta);
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, 2u);

  release.store(true);
  auto in_flight = svc.Wait(*blocker);
  ASSERT_TRUE(in_flight->status.ok());
  // Dispatched before the swap: ran to completion on the epoch-1 snapshot.
  EXPECT_EQ(in_flight->graph_epoch, 1u);
  EXPECT_EQ(in_flight->run.embeddings, old_count);

  auto fresh = svc.SubmitAndWait(kGraph, q);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->graph_epoch, 2u);
  EXPECT_EQ(fresh->run.embeddings, BruteForceCount(q, *expected_graph));
}

// The headline concurrency test (run under TSan and ASan in CI): N client
// threads hammer SubmitAndWait while a writer applies deltas and swaps
// snapshots. Every result must be exactly consistent with the one graph
// published under the epoch it reports — a plan-cache entry serving a CST
// built on a stale graph would report the old count under a new epoch and
// fail the check.
TEST(SnapshotSwapTest, ConcurrentClientsStayConsistentAcrossSwaps) {
  constexpr std::size_t kClients = 4;
  constexpr int kSwaps = 12;
  constexpr int kMinRequestsPerClient = 24;

  const Graph base = PaperDataGraph();
  const std::vector<QueryGraph> mix = {PaperQuery(), TriangleQuery()};

  // Precompute the graph published under each epoch 1..kSwaps+1 (the writer
  // below applies the same delta sequence) and the expected count for every
  // (query, epoch) pair. Deltas alternate add-block / remove-block so the
  // counts genuinely change across epochs.
  std::vector<Graph> graphs;
  graphs.push_back(base);
  std::vector<GraphDelta> deltas;
  for (int i = 0; i < kSwaps; ++i) {
    const Graph& cur = graphs.back();
    GraphDelta d;
    if (i % 2 == 0) {
      d = AddPatternBlockDelta(cur.NumVertices());
    } else {
      // Drop the block the previous delta appended.
      for (int k = 0; k < 4; ++k) {
        d.remove_vertices.push_back(static_cast<VertexId>(cur.NumVertices() - 1 - k));
      }
    }
    auto next = ApplyDelta(cur, d);
    ASSERT_TRUE(next.ok()) << next.status();
    deltas.push_back(std::move(d));
    graphs.push_back(std::move(next).value());
  }
  // expected[shape][epoch - 1] = brute-force count on that epoch's graph.
  std::vector<std::vector<std::uint64_t>> expected(mix.size());
  for (std::size_t s = 0; s < mix.size(); ++s) {
    for (const Graph& g : graphs) expected[s].push_back(BruteForceCount(mix[s], g));
  }

  TenantRouter svc(SwapTestOptions(kClients));
  ASSERT_TRUE(svc.AddTenant(kGraph, base, SwapTenantOptions()).ok());
  std::atomic<bool> writer_done{false};
  std::atomic<int> warmed_up{0};  // clients that completed >= 1 request
  std::atomic<int> mismatches{0};
  std::atomic<int> bad_epochs{0};
  std::vector<std::set<std::uint64_t>> epochs_seen(kClients);

  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      bool counted_warmup = false;
      // Run until both kMinRequestsPerClient requests completed and at least
      // one request was submitted strictly after the writer finished — that
      // request must capture the final epoch.
      bool post_done_request = false;
      int done = 0;
      while (done < kMinRequestsPerClient || !post_done_request) {
        const bool saw_writer_done = writer_done.load();
        const std::size_t s = (c + static_cast<std::size_t>(done)) % mix.size();
        auto r = svc.SubmitAndWait(kGraph, mix[s]);
        if (!r.ok()) {
          mismatches.fetch_add(1);
          break;
        }
        const std::uint64_t e = r->graph_epoch;
        if (e < 1 || e > static_cast<std::uint64_t>(kSwaps) + 1) {
          bad_epochs.fetch_add(1);
        } else if (r->run.embeddings != expected[s][e - 1]) {
          mismatches.fetch_add(1);
        }
        epochs_seen[c].insert(e);
        ++done;
        if (saw_writer_done) post_done_request = true;
        if (!counted_warmup) {
          counted_warmup = true;
          warmed_up.fetch_add(1);
        }
      }
    });
  }

  std::thread writer([&] {
    // Let every client complete a request on epoch 1 first, so the test is
    // guaranteed to observe results from at least two different epochs.
    while (warmed_up.load() < static_cast<int>(kClients)) std::this_thread::yield();
    for (const GraphDelta& d : deltas) {
      auto epoch = svc.ApplyDelta(kGraph, d);
      ASSERT_TRUE(epoch.ok()) << epoch.status();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    writer_done.store(true);
  });

  writer.join();
  for (auto& t : clients) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(bad_epochs.load(), 0);

  const auto stats = svc.stats();
  EXPECT_EQ(stats.tenants[0].epoch, static_cast<std::uint64_t>(kSwaps) + 1);
  EXPECT_EQ(stats.tenants[0].graph_swaps, static_cast<std::uint64_t>(kSwaps));
  EXPECT_EQ(stats.failed, 0u);

  std::set<std::uint64_t> all_epochs;
  for (const auto& s : epochs_seen) all_epochs.insert(s.begin(), s.end());
  // Warm-up pins epoch 1; the post-writer_done iterations pin kSwaps + 1.
  EXPECT_GE(all_epochs.size(), 2u);
  EXPECT_TRUE(all_epochs.count(1));
  EXPECT_TRUE(all_epochs.count(static_cast<std::uint64_t>(kSwaps) + 1));
  // The plan cache was exercised, not bypassed.
  EXPECT_GT(stats.tenants[0].cache.hits, 0u);
  EXPECT_GE(stats.tenants[0].cache.invalidations +
                stats.tenants[0].cache.evictions,
            1u);
}

}  // namespace
}  // namespace fast
