#include "core/kernel.h"

#include <algorithm>
#include <iterator>
#include <ostream>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/cpu_matcher.h"
#include "cst/partition.h"
#include "query/matching_order.h"
#include "test_util.h"

namespace fast {
namespace {

using testing::BruteForceCount;
using testing::BruteForceEmbeddings;
using testing::PaperDataGraph;
using testing::PaperQuery;
using testing::SmallLdbcGraph;
using testing::ToSet;

MatchingOrder PaperOrder() {
  MatchingOrder order;
  order.root = 0;
  order.order = {0, 1, 2, 3};
  return order;
}

TEST(KernelTest, PaperExampleFindsBothEmbeddings) {
  QueryGraph q = PaperQuery();
  Graph g = PaperDataGraph();
  Cst cst = BuildCst(q, g, 0).value();
  ResultCollector collector(16);
  auto run = RunKernel(cst, PaperOrder(), FpgaConfig{}, &collector).value();
  EXPECT_EQ(run.embeddings, 2u);
  EXPECT_EQ(collector.count(), 2u);
  // Example 1's embedding M = {(u0,v1),(u1,v4),(u2,v3),(u3,v9)}.
  const Embedding m1{0, 3, 2, 8};
  const Embedding m2{1, 5, 4, 9};
  EXPECT_EQ(ToSet(collector.stored()), (std::set<Embedding>{m1, m2}));
}

TEST(KernelTest, MatchesBruteForceOnPaperExample) {
  QueryGraph q = PaperQuery();
  Graph g = PaperDataGraph();
  Cst cst = BuildCst(q, g, 0).value();
  auto run = RunKernel(cst, PaperOrder(), FpgaConfig{}, nullptr).value();
  EXPECT_EQ(run.embeddings, BruteForceCount(q, g));
}

TEST(KernelTest, CancelledTokenAbortsWithDeadlineExceeded) {
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  CancelToken cancel;
  cancel.Cancel();
  auto run = RunKernel(cst, PaperOrder(), FpgaConfig{}, nullptr,
                       /*round_trace=*/nullptr, &cancel);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(KernelTest, UntrippedTokenDoesNotPerturbResults) {
  QueryGraph q = PaperQuery();
  Graph g = PaperDataGraph();
  Cst cst = BuildCst(q, g, 0).value();
  CancelToken cancel;  // never tripped, no deadline
  auto run = RunKernel(cst, PaperOrder(), FpgaConfig{}, nullptr,
                       /*round_trace=*/nullptr, &cancel);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->embeddings, BruteForceCount(q, g));
}

TEST(KernelTest, RejectsMismatchedOrder) {
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  MatchingOrder bad;
  bad.root = 1;
  bad.order = {1, 0, 2, 3};
  EXPECT_FALSE(RunKernel(cst, bad, FpgaConfig{}, nullptr).ok());
  bad.order = {0, 1, 2};
  EXPECT_FALSE(RunKernel(cst, bad, FpgaConfig{}, nullptr).ok());
}

TEST(KernelTest, CountersAreConsistent) {
  Cst cst = BuildCst(PaperQuery(), PaperDataGraph(), 0).value();
  auto run = RunKernel(cst, PaperOrder(), FpgaConfig{}, nullptr).value();
  const KernelCounters& c = run.counters;
  EXPECT_EQ(c.visited_tasks, c.partial_results);  // one t_v per p_o
  EXPECT_GE(c.partial_results, run.embeddings);
  EXPECT_EQ(c.results, run.embeddings);
  EXPECT_GT(c.rounds, 0u);
  EXPECT_GT(c.edge_tasks, 0u);  // the paper query has non-tree edges
}

TEST(KernelTest, TinyBatchSizeStillExact) {
  // Exercises the resume-cursor path: N_o smaller than candidate lists.
  QueryGraph q = PaperQuery();
  Graph g = PaperDataGraph();
  Cst cst = BuildCst(q, g, 0).value();
  for (std::uint32_t no : {1u, 2u, 3u}) {
    FpgaConfig config;
    config.max_new_partials = no;
    auto run = RunKernel(cst, PaperOrder(), config, nullptr).value();
    EXPECT_EQ(run.embeddings, 2u) << "N_o=" << no;
  }
}

TEST(KernelTest, BufferBoundHolds) {
  // Sec. VI-B: deepest-first expansion bounds P at (|V(q)|-1) * N_o entries.
  Graph g = SmallLdbcGraph(0.2);
  for (int qi : {2, 5, 8}) {
    QueryGraph q = LdbcQuery(qi).value();
    auto order = ComputeMatchingOrder(q, g, OrderPolicy::kPathBased).value();
    Cst cst = BuildCst(q, g, order.root).value();
    for (std::uint32_t no : {4u, 64u}) {
      FpgaConfig config;
      config.max_new_partials = no;
      auto run = RunKernel(cst, order, config, nullptr).value();
      EXPECT_LE(run.counters.max_buffer_entries,
                static_cast<std::uint64_t>(q.NumVertices() - 1) * no)
          << q.name() << " N_o=" << no;
    }
  }
}

TEST(KernelTest, BatchSizeDoesNotChangeResults) {
  Graph g = SmallLdbcGraph(0.1);
  QueryGraph q = LdbcQuery(8).value();
  auto order = ComputeMatchingOrder(q, g, OrderPolicy::kPathBased).value();
  Cst cst = BuildCst(q, g, order.root).value();
  std::uint64_t reference = 0;
  bool first = true;
  for (std::uint32_t no : {1u, 7u, 256u, 4096u}) {
    FpgaConfig config;
    config.max_new_partials = no;
    auto run = RunKernel(cst, order, config, nullptr).value();
    if (first) {
      reference = run.embeddings;
      first = false;
    } else {
      EXPECT_EQ(run.embeddings, reference) << "N_o=" << no;
    }
  }
}

// The kernel must agree with the CPU matcher and brute force on every LDBC
// query and every order policy.
class KernelEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, OrderPolicy>> {};

TEST_P(KernelEquivalenceTest, AgreesWithCpuAndBruteForce) {
  const auto [query_index, policy] = GetParam();
  Graph g = SmallLdbcGraph();
  QueryGraph q = LdbcQuery(query_index).value();
  auto order = ComputeMatchingOrder(q, g, policy, /*seed=*/5).value();
  Cst cst = BuildCst(q, g, order.root).value();

  ResultCollector kernel_collector(1000);
  auto run = RunKernel(cst, order, FpgaConfig{}, &kernel_collector).value();

  ResultCollector cpu_collector(1000);
  const std::uint64_t cpu = MatchCstOnCpu(cst, order, &cpu_collector).value();

  EXPECT_EQ(run.embeddings, cpu) << q.name();
  EXPECT_EQ(run.embeddings, BruteForceCount(q, g)) << q.name();
  // The kernel discovers results in batched-BFS order, the CPU matcher in
  // DFS order; the stored samples are only comparable when complete.
  if (run.embeddings <= 1000) {
    EXPECT_EQ(ToSet(kernel_collector.stored()), ToSet(cpu_collector.stored()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    QueriesTimesPolicies, KernelEquivalenceTest,
    ::testing::Combine(::testing::Range(0, kNumLdbcQueries),
                       ::testing::Values(OrderPolicy::kPathBased, OrderPolicy::kCeci,
                                         OrderPolicy::kRandom)));

TEST(KernelTest, PartitionedExecutionMatchesWhole) {
  Graph g = SmallLdbcGraph(0.1);
  QueryGraph q = LdbcQuery(5).value();
  auto order = ComputeMatchingOrder(q, g, OrderPolicy::kPathBased).value();
  Cst cst = BuildCst(q, g, order.root).value();
  auto whole = RunKernel(cst, order, FpgaConfig{}, nullptr).value();

  PartitionConfig pconfig;
  pconfig.max_size_words = std::max<std::size_t>(cst.SizeWords() / 7, 32);
  auto parts = PartitionCstToVector(cst, order, pconfig, nullptr).value();
  std::uint64_t total = 0;
  for (const auto& p : parts) {
    total += RunKernel(p, order, FpgaConfig{}, nullptr).value().embeddings;
  }
  EXPECT_EQ(total, whole.embeddings);
}

// Golden kernel behaviour. The cycle model prices N, M and rounds, the
// pipeline sim replays the round trace, and callers see embeddings in the
// order the Synchronizer emits them, so all three are frozen here for q0-q8
// on the seed graph: on the whole CST and on the partitions of a tight BRAM
// budget, at batch sizes that cut candidate windows mid-list (1, 7) and at
// the default N_o. The constants were captured from a per-candidate Edge
// Validator (one binary search per candidate and backward non-tree edge);
// any validator must reproduce them bit for bit.
struct KernelDigest {
  int query = 0;
  bool partitioned = false;
  std::uint32_t no = 0;
  std::uint64_t partitions = 0;
  KernelCounters counters;
  std::uint64_t trace_hash = 0;      // FNV-1a over (new_partials, groups)
  std::uint64_t embedding_hash = 0;  // FNV-1a over embeddings, in order

  bool operator==(const KernelDigest&) const = default;
};

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

void FnvMix(std::uint64_t* h, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    *h ^= (word >> (8 * b)) & 0xff;
    *h *= 0x100000001b3ULL;
  }
}

std::ostream& operator<<(std::ostream& os, const KernelDigest& d) {
  const KernelCounters& c = d.counters;
  return os << "{" << d.query << ", " << (d.partitioned ? "true" : "false")
            << ", " << d.no << ", " << d.partitions << ", {" << c.partial_results
            << ", " << c.edge_tasks << ", " << c.visited_tasks << ", " << c.rounds
            << ", " << c.results << ", " << c.max_buffer_entries << "}, 0x"
            << std::hex << d.trace_hash << "ULL, 0x" << d.embedding_hash
            << "ULL" << std::dec << "},";
}

KernelDigest ComputeDigest(const Graph& g, int query, bool partitioned,
                           std::uint32_t no) {
  const QueryGraph q = LdbcQuery(query).value();
  const MatchingOrder order =
      ComputeMatchingOrder(q, g, OrderPolicy::kPathBased).value();
  const Cst cst = BuildCst(q, g, order.root).value();
  std::vector<Cst> parts;
  if (partitioned) {
    PartitionConfig pconfig;
    pconfig.max_size_words = std::max<std::size_t>(cst.SizeWords() / 6, 32);
    parts = PartitionCstToVector(cst, order, pconfig).value();
  } else {
    parts.push_back(cst);
  }

  KernelDigest d;
  d.query = query;
  d.partitioned = partitioned;
  d.no = no;
  d.partitions = parts.size();
  d.trace_hash = kFnvBasis;
  d.embedding_hash = kFnvBasis;
  FpgaConfig config;
  config.max_new_partials = no;
  ResultCollector collector;
  collector.SetCallback([&](std::span<const VertexId> m) {
    for (VertexId v : m) FnvMix(&d.embedding_hash, v);
  });
  for (const Cst& part : parts) {
    std::vector<RoundWork> trace;
    auto run = RunKernel(part, order, config, &collector, &trace).value();
    d.counters += run.counters;
    for (const RoundWork& r : trace) {
      FnvMix(&d.trace_hash, r.new_partials);
      FnvMix(&d.trace_hash, r.backward_groups);
    }
  }
  return d;
}

constexpr std::uint32_t kDefaultNo = FpgaConfig{}.max_new_partials;

// {query, partitioned, N_o, partitions, {N, M, visited, rounds, results,
//  max buffer}, trace hash, embedding hash}
const KernelDigest kGolden[] = {
    {0, false, 1, 1, {4397, 4264, 4397, 4397, 105, 2}, 0xc120da8961afe1a4ULL, 0xcaac181e77de8998ULL},
    {0, false, 7, 1, {4397, 4264, 4397, 633, 105, 12}, 0xe4cf14bf75397447ULL, 0x7ea7da9d3c9c16ecULL},
    {0, false, kDefaultNo, 1, {4397, 4264, 4397, 3, 105, 133}, 0x12ae0c22abfd85f8ULL, 0xbc14918f7b7937c4ULL},
    {0, true, 1, 10, {446, 416, 446, 460, 105, 2}, 0xfd668affecac64e5ULL, 0xcaac181e77de8998ULL},
    {0, true, 7, 10, {446, 416, 446, 76, 105, 8}, 0xcfbbad8cd7432c86ULL, 0x45dfb8fe03ab8640ULL},
    {0, true, kDefaultNo, 10, {446, 416, 446, 19, 105, 9}, 0x46ab8bc259a02090ULL, 0xbc14918f7b7937c4ULL},
    {1, false, 1, 1, {811, 0, 811, 811, 729, 3}, 0x91ed954922cab364ULL, 0xfa6f366da5d3f992ULL},
    {1, false, 7, 1, {811, 0, 811, 126, 729, 15}, 0x5ce53b289bd8a666ULL, 0xdff936e55f5d3cd2ULL},
    {1, false, kDefaultNo, 1, {811, 0, 811, 3, 729, 67}, 0x99f5306110ae566ULL, 0x6d969defc60a200eULL},
    {1, true, 1, 43, {847, 0, 847, 847, 729, 3}, 0xf10cf9dedd282be4ULL, 0xfa6f366da5d3f992ULL},
    {1, true, 7, 43, {847, 0, 847, 209, 729, 4}, 0xadb355e8ea8f24ULL, 0xd0e819967da0d4daULL},
    {1, true, kDefaultNo, 43, {847, 0, 847, 129, 729, 4}, 0xcae13deea3948706ULL, 0xd0e819967da0d4daULL},
    {2, false, 1, 1, {2488, 2252, 2488, 2488, 480, 2}, 0x9bbb80881e37d225ULL, 0x5611a404f940fc5ULL},
    {2, false, 7, 1, {2488, 2252, 2488, 367, 480, 13}, 0xcf033ef63ae71d46ULL, 0x7db74e8e7de641c5ULL},
    {2, false, kDefaultNo, 1, {2488, 2252, 2488, 2, 480, 236}, 0x4dc812b42e26ec0cULL, 0x79074c83beb97745ULL},
    {2, true, 1, 19, {2047, 1832, 2047, 2049, 480, 2}, 0xe094fd1022a55de4ULL, 0x5611a404f940fc5ULL},
    {2, true, 7, 19, {2047, 1832, 2047, 314, 480, 10}, 0x9b13764316776766ULL, 0x4288f894ee790d05ULL},
    {2, true, kDefaultNo, 19, {2047, 1832, 2047, 38, 480, 20}, 0x5d5d9b1c3beee9e4ULL, 0x7841af8993642085ULL},
    {3, false, 1, 1, {17462, 14926, 17462, 17462, 64, 3}, 0x17da9b5130378be5ULL, 0xfddb33dd3b6eba09ULL},
    {3, false, 7, 1, {17462, 14926, 17462, 2663, 64, 19}, 0x8ded34988d632361ULL, 0x7c965ddc9133975ULL},
    {3, false, kDefaultNo, 1, {17462, 14926, 17462, 6, 64, 2266}, 0xd7dee30fabfacd2eULL, 0xd8d83049084b9b6dULL},
    {3, true, 1, 11, {1206, 732, 1206, 1227, 64, 3}, 0xb8ba10a3fcbebe5ULL, 0xfddb33dd3b6eba09ULL},
    {3, true, 7, 11, {1206, 732, 1206, 198, 64, 14}, 0xe916c7d738d7cd84ULL, 0xaef5a0fe2210e3e5ULL},
    {3, true, kDefaultNo, 11, {1206, 732, 1206, 32, 64, 273}, 0x54db32b61033f535ULL, 0x11c1a17073fba651ULL},
    {4, false, 1, 1, {12824, 6176, 12824, 12824, 2577, 3}, 0x86c85375589d9e25ULL, 0x43771a54729388deULL},
    {4, false, 7, 1, {12824, 6176, 12824, 1848, 2577, 20}, 0xd87c96b338605825ULL, 0x51db1ec253573b2aULL},
    {4, false, kDefaultNo, 1, {12824, 6176, 12824, 6, 2577, 4130}, 0xf98a5d0db040aae5ULL, 0x4c651deab2e90926ULL},
    {4, true, 1, 57, {8148, 3850, 8148, 8153, 2577, 3}, 0x739646138aa221a5ULL, 0x43771a54729388deULL},
    {4, true, 7, 57, {8148, 3850, 8148, 1310, 2577, 15}, 0xa148316fc64d6c04ULL, 0xda553cef2f3536a2ULL},
    {4, true, kDefaultNo, 57, {8148, 3850, 8148, 228, 2577, 459}, 0x6dbd6c5700580198ULL, 0x517fa7eba83e9c86ULL},
    {5, false, 1, 1, {171, 52, 171, 171, 14, 4}, 0x7be5cc6d7307f764ULL, 0xfcfa0223ea0d72a5ULL},
    {5, false, 7, 1, {171, 52, 171, 34, 14, 13}, 0xe1f184d975fdc8e4ULL, 0xcb9992a6a9946ac5ULL},
    {5, false, kDefaultNo, 1, {171, 52, 171, 4, 14, 45}, 0x39ca343851076e57ULL, 0xf0508d74ab495b65ULL},
    {5, true, 1, 9, {101, 26, 101, 104, 14, 3}, 0xc7908c63549d0a4ULL, 0xfcfa0223ea0d72a5ULL},
    {5, true, 7, 9, {101, 26, 101, 27, 14, 7}, 0xeab4f7d61379b907ULL, 0xf1629962e5e4485ULL},
    {5, true, kDefaultNo, 9, {101, 26, 101, 23, 14, 7}, 0x8acd54e57dca52e8ULL, 0xfcfa0223ea0d72a5ULL},
    {6, false, 1, 1, {2541, 2252, 2541, 2541, 480, 3}, 0xf0cd456a5587f5a4ULL, 0x55c112c98b56825ULL},
    {6, false, 7, 1, {2541, 2252, 2541, 378, 480, 21}, 0x960b687ccc385401ULL, 0x59db65dd6131ab85ULL},
    {6, false, kDefaultNo, 1, {2541, 2252, 2541, 4, 480, 236}, 0x56cfeec07bb60559ULL, 0x9bc798065dd93325ULL},
    {6, true, 1, 21, {2110, 1833, 2110, 2111, 480, 3}, 0xf0867629b6ebf2c4ULL, 0x55c112c98b56825ULL},
    {6, true, 7, 21, {2110, 1833, 2110, 358, 480, 10}, 0xc39eb03507f85802ULL, 0xee797e39e567e765ULL},
    {6, true, kDefaultNo, 21, {2110, 1833, 2110, 82, 480, 18}, 0x3644701f1f9c979bULL, 0xa52d1924d0ad48a5ULL},
    {7, false, 1, 1, {632, 461, 632, 632, 114, 5}, 0x179b9fe267322804ULL, 0x3e54be5ee1a6ec25ULL},
    {7, false, 7, 1, {632, 461, 632, 106, 114, 15}, 0x36a6d3b83965af21ULL, 0x8c4904b745e7e825ULL},
    {7, false, kDefaultNo, 1, {632, 461, 632, 5, 114, 52}, 0x9e00ba409468b9a1ULL, 0xa9ceebebb3510d25ULL},
    {7, true, 1, 31, {392, 191, 392, 392, 114, 5}, 0x734d86aaf955d604ULL, 0x3e54be5ee1a6ec25ULL},
    {7, true, 7, 31, {392, 191, 392, 140, 114, 11}, 0xca019f63b38b90e7ULL, 0xd31d8c7a2f7a9c65ULL},
    {7, true, kDefaultNo, 31, {392, 191, 392, 111, 114, 16}, 0xf8cfaad04dfc742aULL, 0x4e9d30034f182865ULL},
    {8, false, 1, 1, {8738, 8502, 8738, 8738, 1432, 3}, 0x61be5b8faf1ea965ULL, 0x3e257ed4fdba8425ULL},
    {8, false, 7, 1, {8738, 8502, 8738, 1337, 1432, 17}, 0x5526fc3359d4ea84ULL, 0x546eeaaec39bd6a5ULL},
    {8, false, kDefaultNo, 1, {8738, 8502, 8738, 4, 1432, 480}, 0xbc65197970560a2eULL, 0x6c8846a1eef229a5ULL},
    {8, true, 1, 22, {6641, 6432, 6641, 6642, 1432, 3}, 0x87552f90f2375624ULL, 0x3e257ed4fdba8425ULL},
    {8, true, 7, 22, {6641, 6432, 6641, 1066, 1432, 13}, 0x8fcda4e4ab378303ULL, 0x50ad3c0df3d55a5ULL},
    {8, true, kDefaultNo, 22, {6641, 6432, 6641, 64, 1432, 38}, 0xba22a058f29a7ce3ULL, 0xe0c84bbe1b5b3c25ULL},
};

TEST(KernelGoldenTest, CountersTraceAndEmbeddingOrderAreFrozen) {
  const Graph g = SmallLdbcGraph();
  std::size_t checked = 0;
  for (int qi = 0; qi < kNumLdbcQueries; ++qi) {
    for (const bool partitioned : {false, true}) {
      for (const std::uint32_t no : {1u, 7u, kDefaultNo}) {
        const KernelDigest got = ComputeDigest(g, qi, partitioned, no);
        const auto golden = std::find_if(
            std::begin(kGolden), std::end(kGolden), [&](const KernelDigest& k) {
              return k.query == qi && k.partitioned == partitioned && k.no == no;
            });
        if (golden == std::end(kGolden)) {
          ADD_FAILURE() << "no golden row for " << got;
          continue;
        }
        EXPECT_EQ(got, *golden) << "got " << got;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, std::size(kGolden));
}

TEST(SimulatedKernelSecondsTest, VariantOrderingHolds) {
  Graph g = SmallLdbcGraph(0.1);
  QueryGraph q = LdbcQuery(2).value();
  auto order = ComputeMatchingOrder(q, g, OrderPolicy::kPathBased).value();
  Cst cst = BuildCst(q, g, order.root).value();
  FpgaConfig config;
  auto run = RunKernel(cst, order, config, nullptr).value();
  const double dram = SimulatedKernelSeconds(config, FastVariant::kDram, run,
                                             cst.SizeWords(), q.NumVertices());
  const double basic = SimulatedKernelSeconds(config, FastVariant::kBasic, run,
                                              cst.SizeWords(), q.NumVertices());
  const double task = SimulatedKernelSeconds(config, FastVariant::kTask, run,
                                             cst.SizeWords(), q.NumVertices());
  const double sep = SimulatedKernelSeconds(config, FastVariant::kSep, run,
                                            cst.SizeWords(), q.NumVertices());
  EXPECT_GT(dram, basic);
  EXPECT_GT(basic, task);
  EXPECT_GT(task, sep);
  EXPECT_GT(sep, 0.0);
}

}  // namespace
}  // namespace fast
