// Landmark selection and the session caches on hub-heavy traffic:
// landmark SELECTION is a pure deterministic function of the graph
// (+ seed) with ties broken by node id; EXACT/CG answers combined from
// session-cached columns are BIT-IDENTICAL to direct solves (linearity —
// rank-one centering parts cancel in the 4-term combination); the cache
// hit/miss counters are EXACT on scripted traces; and an epoch swap (dyn
// RebindGraph) invalidates session state such that rebound answers equal
// a fresh estimator's bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "centrality/landmarks.h"
#include "core/exact.h"
#include "core/registry.h"
#include "core/solver_er.h"
#include "core/tp.h"
#include "dyn/dynamic_graph.h"
#include "graph/generators.h"
#include "graph/weighted_generators.h"
#include "linalg/spectral.h"
#include "rw/rng.h"
#include "test_util.h"

namespace geer {
namespace {

ErOptions FastOptions() {
  ErOptions opt;
  opt.epsilon = 0.3;
  opt.delta = 0.05;
  opt.seed = 2024;
  opt.tp_scale = 0.01;   // same scaled constants as the contract suite:
  opt.tpc_scale = 0.001;  // its accuracy budget is known to hold here
  opt.mc_gamma_upper = 8.0;
  return opt;
}

// The fast-mixing dense fixture of the contract suite, so "within
// contract-test error bounds" means literally the same budget there.
Graph Fixture() { return gen::ErdosRenyi(40, 400, 9); }

TEST(LandmarkSelectionTest, DegreeSelectionDeterministicTieBreakById) {
  const Graph graph = Fixture();
  const std::vector<NodeId> a = SelectLandmarks(graph, 8);
  const std::vector<NodeId> b = SelectLandmarks(graph, 8);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 8u);

  // Ground truth: node ids sorted by (degree desc, id asc).
  std::vector<NodeId> ranked(graph.NumNodes());
  std::iota(ranked.begin(), ranked.end(), NodeId{0});
  std::stable_sort(ranked.begin(), ranked.end(), [&](NodeId x, NodeId y) {
    if (graph.Degree(x) != graph.Degree(y)) {
      return graph.Degree(x) > graph.Degree(y);
    }
    return x < y;
  });
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], ranked[i]) << "rank " << i;
  }
  // count >= n is the full popularity ranking.
  const std::vector<NodeId> all = SelectLandmarks(graph, graph.NumNodes() + 5);
  EXPECT_EQ(all, ranked);
}

TEST(LandmarkSelectionTest, WeightedSelectionRanksByStrength) {
  const WeightedGraph graph =
      gen::WithUniformWeights(Fixture(), 0.5, 2.0, 99);
  const std::vector<NodeId> a = SelectLandmarks(graph, 6);
  EXPECT_EQ(a, SelectLandmarks(graph, 6));
  std::vector<NodeId> ranked(graph.NumNodes());
  std::iota(ranked.begin(), ranked.end(), NodeId{0});
  std::stable_sort(ranked.begin(), ranked.end(), [&](NodeId x, NodeId y) {
    if (graph.Strength(x) != graph.Strength(y)) {
      return graph.Strength(x) > graph.Strength(y);
    }
    return x < y;
  });
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], ranked[i]) << "rank " << i;
  }
}

TEST(LandmarkSelectionTest, SpanningCentralitySelectionDeterministic) {
  const Graph graph = Fixture();
  SpanningCentralityOptions options;
  options.seed = 7;
  const std::vector<NodeId> a =
      SelectLandmarksBySpanningCentrality(graph, 6, options);
  const std::vector<NodeId> b =
      SelectLandmarksBySpanningCentrality(graph, 6, options);
  EXPECT_EQ(a, b);  // run-to-run: pure function of (graph, seed)
  ASSERT_EQ(a.size(), 6u);
  std::vector<NodeId> sorted = a;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (const NodeId lm : a) EXPECT_LT(lm, graph.NumNodes());
}

// Query pairs mixing landmark-landmark, landmark-other (both endpoint
// positions), other-other, s > t, and s == t.
std::vector<QueryPair> MixedQueries(std::span<const NodeId> landmarks) {
  const NodeId a = landmarks[0];
  const NodeId b = landmarks[1];
  return {{a, b}, {b, a}, {a, 17}, {17, a}, {23, b},
          {14, 29}, {29, 14}, {a, a}, {2, 35}};
}

TEST(LandmarkCacheTest, ExactCombinedFromSessionColumnsBitIdentical) {
  const Graph graph = Fixture();
  const std::vector<NodeId> landmarks = SelectLandmarks(graph, 6);
  ExactEstimator direct(graph);  // no session cache at all
  ExactEstimator cached(graph);
  cached.EnableSessionCache();
  // Two passes: the second combines columns the first left resident.
  for (int pass = 0; pass < 2; ++pass) {
    for (const QueryPair& q : MixedQueries(landmarks)) {
      EXPECT_EQ(cached.Estimate(q.s, q.t), direct.Estimate(q.s, q.t))
          << "EXACT (" << q.s << "," << q.t << ") pass " << pass;
      // Combination from cached columns is bitwise symmetric.
      EXPECT_EQ(cached.Estimate(q.s, q.t), cached.Estimate(q.t, q.s))
          << "EXACT symmetric (" << q.s << "," << q.t << ")";
    }
  }
  const CacheStats s = cached.SessionCacheStats();
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.entries, 0u);
  EXPECT_GT(s.bytes, 0u);
}

TEST(LandmarkCacheTest, CgCombinedFromSessionColumnsBitIdentical) {
  const Graph graph = Fixture();
  const std::vector<NodeId> landmarks = SelectLandmarks(graph, 6);
  SolverEstimator direct(graph);
  SolverEstimator cached(graph);
  cached.EnableSessionCache();
  for (int pass = 0; pass < 2; ++pass) {
    for (const QueryPair& q : MixedQueries(landmarks)) {
      EXPECT_EQ(cached.Estimate(q.s, q.t), direct.Estimate(q.s, q.t))
          << "CG (" << q.s << "," << q.t << ") pass " << pass;
      EXPECT_EQ(cached.Estimate(q.s, q.t), cached.Estimate(q.t, q.s))
          << "CG symmetric (" << q.s << "," << q.t << ")";
    }
  }
  EXPECT_GT(cached.SessionCacheStats().hits, 0u);
}

// EXACT's lookup script is fully predictable: every query resolves the
// canonical (min, max) endpoint columns through the cache, one Find
// each — so the hit/miss counters are EXACT, not just monotone.
TEST(LandmarkCacheTest, ExactHitMissCountersOnScriptedTrace) {
  const Graph graph = Fixture();
  ExactEstimator estimator(graph);
  estimator.EnableSessionCache();
  (void)estimator.Estimate(1, 0);  // both columns solved fresh
  CacheStats s = estimator.SessionCacheStats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.entries, 2u);

  (void)estimator.Estimate(0, 1);  // both endpoints warm
  s = estimator.SessionCacheStats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 2u);

  (void)estimator.Estimate(2, 0);  // column 0 warm, column 2 fresh
  s = estimator.SessionCacheStats();
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.entries, 3u);

  (void)estimator.Estimate(0, 2);  // same canonical pair: both warm now
  s = estimator.SessionCacheStats();
  EXPECT_EQ(s.hits, 5u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.entries, 3u);
  EXPECT_GT(s.bytes, 0u);
}

// TP's session is node-keyed and looked up for BOTH endpoints of a
// query (other side first, then the shared key side), so every lookup
// in this script is accounted for exactly.
TEST(LandmarkCacheTest, TpHitMissCountersOnScriptedTrace) {
  const Graph graph = Fixture();
  ErOptions opt = FastOptions();
  opt.lambda = ComputeSpectralBounds(graph).lambda;
  TpEstimator estimator(graph, opt);
  estimator.EnableSessionCache();

  (void)estimator.Estimate(3, 5);  // populations 5 then 3: both fresh
  CacheStats s = estimator.SessionCacheStats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.entries, 2u);

  (void)estimator.Estimate(3, 9);  // 9 fresh, 3 warm
  s = estimator.SessionCacheStats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.entries, 3u);

  (void)estimator.Estimate(5, 3);  // both warm (populations are
  s = estimator.SessionCacheStats();  // role-agnostic: key or other side)
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 3u);

  (void)estimator.Estimate(5, 14);  // 14 fresh, 5 warm
  s = estimator.SessionCacheStats();
  EXPECT_EQ(s.hits, 4u);
  EXPECT_EQ(s.misses, 4u);
  EXPECT_EQ(s.entries, 4u);
  EXPECT_GT(s.bytes, 0u);
}

// Answers `queries` through EstimateBatch — the path that reads and
// fills every method's session cache (SMM/GEER retain iterate streams
// only there).
std::vector<double> BatchValues(ErEstimator& estimator,
                                std::span<const QueryPair> queries) {
  std::vector<QueryStats> stats(queries.size());
  EXPECT_EQ(estimator.EstimateBatch(queries, stats), queries.size());
  std::vector<double> values;
  for (const QueryStats& st : stats) values.push_back(st.value);
  return values;
}

// Epoch swap: session state bound to the old graph must not leak into
// the new epoch. A session-enabled estimator that served hub-heavy
// batches before and between swaps answers, after RebindGraph,
// bit-identically to a fresh estimator built on the from-scratch
// rebuild, for every estimator with a session cache.
TEST(LandmarkCacheTest, EpochSwapKeepsFreshVsRebindBitIdentity) {
  const ErOptions options = FastOptions();  // no λ: rebinds re-derive it
  for (const std::string name :
       {"EXACT", "CG", "TP", "TPC", "SMM", "GEER"}) {
    DynamicGraph dyn(gen::ErdosRenyi(30, 140, 7));
    auto snapshot = dyn.Current();
    std::vector<decltype(snapshot)> held = {snapshot};  // graphs must live
    auto estimator = CreateEstimator(name, *snapshot->graph, options);
    ASSERT_NE(estimator, nullptr) << name;
    estimator->EnableSessionCache();
    const std::vector<NodeId> landmarks =
        SelectLandmarks(*snapshot->graph, 5);
    const std::vector<QueryPair> queries = {
        {landmarks[0], 9}, {9, landmarks[0]}, {landmarks[1], landmarks[2]},
        {landmarks[0], landmarks[1]}, {0, 5}, {12, 28}};
    (void)BatchValues(*estimator, queries);  // populate the session

    UpdateGenerator generator(dyn, 4242);
    for (int batch = 0; batch < 2; ++batch) {
      for (const EdgeUpdate& op : generator.NextBatch(7)) dyn.Apply(op);
      snapshot = dyn.Commit();
      held.push_back(snapshot);
      GraphEpoch epoch;
      epoch.epoch = snapshot->epoch;
      epoch.touched = std::span<const NodeId>(snapshot->touched);
      epoch.resized = snapshot->resized;
      ASSERT_TRUE(estimator->RebindGraph(*snapshot->graph, epoch)) << name;
      // Query between swaps so stale-yet-cached state would surface.
      (void)BatchValues(*estimator, queries);
    }

    const Graph rebuilt = dyn.BuildFromScratch();
    auto fresh = CreateEstimator(name, rebuilt, options);
    const std::vector<double> rebound = BatchValues(*estimator, queries);
    EXPECT_GT(estimator->SessionCacheStats().hits, 0u) << name;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const QueryPair& q = queries[i];
      EXPECT_EQ(rebound[i], fresh->Estimate(q.s, q.t))
          << name << " rebind-vs-fresh (" << q.s << "," << q.t << ")";
    }
  }
}

}  // namespace
}  // namespace geer
