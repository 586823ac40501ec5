// The dynamic serving contract (dyn/dyn_serve.h + QueryService epoch
// swaps): every answer produced around concurrent epoch swaps is
// bit-identical to the serial estimate on the SNAPSHOT the result's
// epoch stamp names — regardless of scheduler threads, micro-batch
// boundaries, concurrent client submitters, or session caches. Also
// pins the ApplyUpdates barrier semantics (pre-swap submissions answer
// on the old epoch, post-swap on the new one) and the swap lifecycle
// (shutdown resolves pending swap futures). Runs under ThreadSanitizer
// in CI.

#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "core/registry.h"
#include "dyn/dyn_serve.h"
#include "dyn/dynamic_graph.h"
#include "eval/dynamic_workload.h"
#include "graph/generators.h"
#include "serve/query_service.h"

namespace geer {
namespace {

ErOptions TestOptions() {
  ErOptions opt;
  opt.epsilon = 0.5;
  opt.delta = 0.1;
  opt.seed = 20260801;
  opt.tp_scale = 0.01;   // scaled constants keep the suite fast; this
  opt.tpc_scale = 0.01;  // suite checks determinism, not accuracy
  opt.mc_gamma_upper = 8.0;
  return opt;
}

Graph BaseGraph() { return gen::ErdosRenyi(36, 280, 9); }

// Three commits of chord insertions/deletions on the base graph (chords
// picked deterministically among its non-edges; deletions remove only
// previously inserted chords, so the graph stays connected).
std::vector<std::vector<EdgeUpdate>> UpdateBatches() {
  const Graph base = BaseGraph();
  std::vector<Edge> chords;
  for (NodeId u = 0; u < base.NumNodes() && chords.size() < 4; ++u) {
    for (NodeId v = u + 10; v < base.NumNodes(); ++v) {
      if (!base.HasEdge(u, v)) {
        chords.push_back({u, v});
        break;  // at most one chord per u keeps them distinct
      }
    }
  }
  auto insert = [](const Edge& e) {
    return EdgeUpdate{EdgeUpdateKind::kInsert, e.first, e.second, 1.0};
  };
  auto remove = [](const Edge& e) {
    return EdgeUpdate{EdgeUpdateKind::kDelete, e.first, e.second, 0.0};
  };
  return {
      {insert(chords[0]), insert(chords[1])},
      {remove(chords[0]), insert(chords[2])},
      {insert(chords[3]), remove(chords[1])},
  };
}

// Snapshot graphs of every epoch the batches produce (epoch 0 first).
std::vector<std::shared_ptr<const DynSnapshot>> EpochSnapshots() {
  auto graph = std::make_shared<DynamicGraph>(BaseGraph());
  std::vector<std::shared_ptr<const DynSnapshot>> snapshots;
  snapshots.push_back(graph->Current());
  for (const auto& batch : UpdateBatches()) {
    for (const EdgeUpdate& op : batch) graph->Apply(op);
    snapshots.push_back(graph->Commit());
  }
  return snapshots;
}

// Serial oracle: per epoch, per query, the plain Estimate value (NaN =
// unsupported).
std::vector<std::vector<double>> SerialPerEpoch(
    const std::string& name,
    const std::vector<std::shared_ptr<const DynSnapshot>>& snapshots,
    const std::vector<QueryPair>& queries, const ErOptions& options) {
  std::vector<std::vector<double>> values;
  for (const auto& snapshot : snapshots) {
    auto estimator = CreateEstimator(name, *snapshot->graph, options);
    std::vector<double> epoch_values(
        queries.size(), std::numeric_limits<double>::quiet_NaN());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (!estimator->SupportsQuery(queries[i].s, queries[i].t)) continue;
      epoch_values[i] = estimator->Estimate(queries[i].s, queries[i].t);
    }
    values.push_back(std::move(epoch_values));
  }
  return values;
}

std::vector<QueryPair> TestQueries() {
  return {{3, 1}, {3, 5}, {3, 9}, {3, 13}, {7, 2},
          {11, 4}, {0, 19}, {6, 6}, {3, 5}, {12, 27}};
}

// Phase replay through RunDynamicWorkload: every estimator, every epoch
// stamped answer equals the serial oracle on that epoch's snapshot.
TEST(DynServeDeterminismTest, EveryAlgorithmBitIdenticalAcrossEpochs) {
  const ErOptions options = TestOptions();
  const std::vector<QueryPair> queries = TestQueries();
  const auto snapshots = EpochSnapshots();
  const auto batches = UpdateBatches();

  // Interleave: all queries on epoch 0, then per batch an update event
  // followed by the full query set on the new epoch.
  std::vector<DynTraceEvent> trace;
  for (const QueryPair& q : queries) trace.push_back(DynTraceEvent::Query(q));
  for (const auto& batch : batches) {
    trace.push_back(DynTraceEvent::Update(batch));
    for (const QueryPair& q : queries) {
      trace.push_back(DynTraceEvent::Query(q));
    }
  }

  for (const std::string& name : EstimatorNames()) {
    const auto serial = SerialPerEpoch(name, snapshots, queries, options);

    DynamicGraph graph(BaseGraph());
    ServeOptions serve_options;
    serve_options.threads = 2;
    serve_options.max_batch_size = 4;
    serve_options.max_linger_seconds = 0.0;
    const DynamicWorkloadResult result = RunDynamicWorkload<UnitWeight>(
        graph, name, options, trace, serve_options);

    ASSERT_EQ(result.commits, batches.size()) << name;
    ASSERT_EQ(result.epochs.size(), snapshots.size()) << name;
    std::size_t qi = 0;  // index into the repeated query set
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (trace[i].is_update) continue;
      const std::size_t query_index = qi % queries.size();
      const std::uint64_t expected_epoch = qi / queries.size();
      ++qi;
      ASSERT_EQ(result.value_epochs[i], expected_epoch)
          << name << " event " << i << ": barrier semantics pin the epoch";
      const double expected = serial[expected_epoch][query_index];
      if (std::isnan(expected)) {
        EXPECT_EQ(result.statuses[i], ServeStatus::kUnsupported)
            << name << " event " << i;
      } else {
        EXPECT_EQ(result.statuses[i], ServeStatus::kAnswered)
            << name << " event " << i;
        EXPECT_EQ(result.values[i], expected)
            << name << " event " << i << " epoch " << expected_epoch;
      }
    }
  }
}

// Concurrent submitters hammer the service while the writer thread
// commits and swaps epochs: every resolved future must carry a valid
// epoch stamp and the serial value OF THAT EPOCH. Sessions stay on
// (the serve default), so selective invalidation is in the loop. This
// is the TSan cell of the acceptance criteria.
TEST(DynServeDeterminismTest, ConcurrentSubmittersAcrossEpochSwaps) {
  const ErOptions options = TestOptions();
  const std::vector<QueryPair> queries = TestQueries();
  const auto snapshots = EpochSnapshots();
  const auto batches = UpdateBatches();
  for (const std::string& name : {std::string("GEER"), std::string("TP"),
                                  std::string("EXACT")}) {
    const auto serial = SerialPerEpoch(name, snapshots, queries, options);

    DynamicGraph graph(BaseGraph());
    auto initial = graph.Current();
    auto estimator = CreateEstimator(name, *initial->graph, options);
    ServeOptions serve_options;
    serve_options.threads = 2;
    serve_options.max_batch_size = 3;
    serve_options.max_linger_seconds = 0.0;
    QueryService service(*estimator, serve_options);

    constexpr std::size_t kClients = 4;
    constexpr int kRounds = 6;
    std::vector<std::vector<std::pair<std::size_t,
                                      std::future<QueryResult>>>>
        per_client(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c]() {
        for (int round = 0; round < kRounds; ++round) {
          for (std::size_t i = c; i < queries.size(); i += kClients) {
            per_client[c].emplace_back(i, service.Submit(queries[i]));
          }
        }
      });
    }
    // The writer thread swaps epochs while the clients submit.
    std::thread writer([&]() {
      for (const auto& batch : batches) {
        for (const EdgeUpdate& op : batch) graph.Apply(op);
        auto snapshot = graph.Commit();
        std::future<bool> swapped =
            ApplyEpochUpdate<UnitWeight>(service, snapshot);
        ASSERT_TRUE(swapped.get()) << name;
      }
    });
    for (std::thread& t : clients) t.join();
    writer.join();
    service.Flush();

    for (auto& client : per_client) {
      for (auto& [i, future] : client) {
        const QueryResult result = future.get();
        ASSERT_LT(result.epoch, serial.size()) << name;
        const double expected = serial[result.epoch][i];
        if (std::isnan(expected)) {
          EXPECT_EQ(result.status, ServeStatus::kUnsupported) << name;
        } else {
          EXPECT_EQ(result.status, ServeStatus::kAnswered) << name;
          EXPECT_EQ(result.stats.value, expected)
              << name << " query " << i << " epoch " << result.epoch;
        }
      }
    }
    service.Shutdown();
    const ServeMetrics metrics = service.Metrics();
    EXPECT_EQ(metrics.epoch_swaps, batches.size()) << name;
  }
}

// Barrier semantics, pinned without the workload driver: a query
// submitted BEFORE ApplyUpdates answers on the old epoch even though
// the swap is already queued; one submitted after the future resolves
// answers on the new epoch.
TEST(DynServeDeterminismTest, ApplyUpdatesIsASubmissionBarrier) {
  const ErOptions options = TestOptions();
  DynamicGraph graph(BaseGraph());
  auto initial = graph.Current();
  auto estimator = CreateEstimator("GEER", *initial->graph, options);
  ServeOptions serve_options;
  serve_options.threads = 1;
  serve_options.max_batch_size = 64;
  serve_options.max_linger_seconds = 1.0;  // long: the swap must cut it
  QueryService service(*estimator, serve_options);

  // Query the chord's own endpoints: inserting the chord turns the pair
  // into an edge, so its resistance is guaranteed to move.
  const EdgeUpdate chord = UpdateBatches()[0][0];
  const QueryPair probe{chord.u, chord.v};
  auto before = service.Submit(probe);
  graph.Apply(chord);
  auto snapshot = graph.Commit();
  std::future<bool> swapped = ApplyEpochUpdate<UnitWeight>(service, snapshot);
  ASSERT_TRUE(swapped.get());
  auto after = service.Submit(probe);
  service.Flush();

  const QueryResult r_before = before.get();
  const QueryResult r_after = after.get();
  EXPECT_EQ(r_before.epoch, 0u);
  EXPECT_EQ(r_after.epoch, 1u);
  auto on_old = CreateEstimator("GEER", *initial->graph, options);
  auto on_new = CreateEstimator("GEER", *snapshot->graph, options);
  EXPECT_EQ(r_before.stats.value, on_old->Estimate(probe.s, probe.t));
  EXPECT_EQ(r_after.stats.value, on_new->Estimate(probe.s, probe.t));
  EXPECT_NE(r_before.stats.value, r_after.stats.value)
      << "the inserted chord must change its endpoints' resistance";
  service.Shutdown();
}

// Incremental swaps surface in ServeMetrics: EXACT's rank-1 factor path
// engages on every small-touch incremental swap (the construction-time
// factor is the first swap's predecessor), every worker that adopts the
// updated factor counts it, and the counter is refreshed at the swap
// itself — a swap-only sequence (no queries after the update) still
// observes it.
TEST(DynServeDeterminismTest, IncrementalSwapsCountRebindsInMetrics) {
  const ErOptions options = TestOptions();
  DynamicGraph graph(BaseGraph());
  auto initial = graph.Current();
  auto estimator = CreateEstimator("EXACT", *initial->graph, options);
  ServeOptions serve_options;
  serve_options.threads = 2;
  QueryService service(*estimator, serve_options);

  std::uint64_t swaps = 0;
  for (const auto& batch : UpdateBatches()) {
    for (const EdgeUpdate& op : batch) graph.Apply(op);
    std::future<bool> swapped = ApplyEpochUpdate<UnitWeight>(
        service, graph.Commit(), std::nullopt, /*incremental=*/true);
    ASSERT_TRUE(swapped.get());
    ++swaps;
    // Both workers adopt each epoch's rank-1-updated factor.
    EXPECT_EQ(service.Metrics().incremental_rebinds, 2 * swaps);
  }
  service.Shutdown();
}

// Same contract through the workload driver: incremental_epochs opts
// every swap in and the result reports the final counter.
TEST(DynServeDeterminismTest, WorkloadReportsIncrementalRebinds) {
  const ErOptions options = TestOptions();
  const std::vector<QueryPair> queries = TestQueries();
  std::vector<DynTraceEvent> trace;
  for (const auto& batch : UpdateBatches()) {
    trace.push_back(DynTraceEvent::Update(batch));
    for (const QueryPair& q : queries) {
      trace.push_back(DynTraceEvent::Query(q));
    }
  }
  DynamicGraph graph(BaseGraph());
  ServeOptions serve_options;
  serve_options.threads = 2;
  serve_options.max_batch_size = 4;
  serve_options.max_linger_seconds = 0.0;
  const DynamicWorkloadResult result = RunDynamicWorkload<UnitWeight>(
      graph, "EXACT", options, trace, serve_options,
      /*deadline_seconds=*/0.0, /*realtime=*/false,
      /*incremental_epochs=*/true);
  EXPECT_EQ(result.commits, UpdateBatches().size());
  EXPECT_EQ(result.answered, result.num_queries);
  EXPECT_GT(result.incremental_rebinds, 0u);
}

TEST(DynServeDeterminismTest, ShutdownResolvesPendingSwapFutures) {
  const ErOptions options = TestOptions();
  DynamicGraph graph(BaseGraph());
  auto initial = graph.Current();
  auto estimator = CreateEstimator("GEER", *initial->graph, options);
  QueryService service(*estimator, ServeOptions{});
  service.Shutdown();
  graph.Apply(UpdateBatches()[0][0]);
  std::future<bool> swapped =
      ApplyEpochUpdate<UnitWeight>(service, graph.Commit());
  EXPECT_FALSE(swapped.get());  // submitted after shutdown: abandoned
}

}  // namespace
}  // namespace geer
