// The networked bit-identity contract, end to end: a router over two
// in-process shard servers (full replicas, loopback ephemeral ports)
// answers a shuffled Zipf trace BIT-IDENTICALLY to the in-process
// QueryService built from the same graph, seed and options — including
// across a router-coordinated epoch swap (ApplyUpdates broadcast to every
// shard, strict or incremental, each deriving the same cold λ
// deterministically exactly as net/shard_service.cc does). Also pins the
// epoch stamps a client observes (0 before the swap, the committed epoch
// after), the aggregate HelloAck, the ok=false ack for an invalid update
// stream (with the cluster still serving the old epoch afterwards), the
// kFailed outcome for an out-of-range query, and the fail-fast Hello
// verification when replicas disagree. The two-phase swap is pinned
// too: out-of-order kPrepareUpdates / kActivateEpoch frames are acked
// ok=false with the old epoch still serving bit-identically, and reads
// through the router keep being answered while a shard's prepare is
// held open, never go back an epoch per connection, and all carry the
// new epoch once the writer is acked. Runs under ThreadSanitizer in CI
// (router fan-out + shard handlers + submitter senders all exercise the
// swap barrier concurrently).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.h"
#include "dyn/dyn_serve.h"
#include "dyn/dynamic_graph.h"
#include "eval/datasets.h"
#include "linalg/spectral.h"
#include "net/codec.h"
#include "net/router.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/shard_service.h"
#include "net/submitter.h"
#include "obs/metrics.h"
#include "serve/query_service.h"
#include "serve/trace.h"
#include "test_util.h"

namespace geer::net {
namespace {

constexpr std::uint64_t kSeed = 20260809;

ErOptions TestErOptions() {
  ErOptions opt;
  opt.epsilon = 0.5;
  opt.delta = 0.1;
  opt.seed = kSeed;
  opt.tp_scale = 0.01;  // scaled constants keep the suite fast
  return opt;
}

ServeOptions TestServeOptions() {
  ServeOptions opt;
  opt.threads = 2;
  opt.max_batch_size = 8;
  opt.max_linger_seconds = 0.0;
  return opt;
}

/// The shuffled Zipf query order both transports replay.
std::vector<QueryPair> TestQueries(NodeId n, std::size_t count) {
  std::vector<NodeId> ranking(n);
  std::iota(ranking.begin(), ranking.end(), NodeId{0});
  const auto queries = MakeZipfQueries(ranking, count, 0.8, kSeed);
  const auto trace = ShuffleTracePayloads(
      MakeOpenLoopTrace(queries, /*qps=*/0.0, kSeed), kSeed + 1);
  std::vector<QueryPair> shuffled;
  shuffled.reserve(trace.size());
  for (const TraceEvent& event : trace) shuffled.push_back(event.query);
  return shuffled;
}

std::vector<QueryResult> SubmitAll(QuerySubmitter& submitter,
                                   std::span<const QueryPair> queries) {
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(queries.size());
  for (const QueryPair& q : queries) futures.push_back(submitter.Submit(q));
  submitter.Flush();
  std::vector<QueryResult> results;
  results.reserve(queries.size());
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

/// The in-process truth, built EXACTLY the way a shard server builds its
/// replica (net/shard_service.cc): λ derived cold via
/// ComputeSpectralBoundsT on the served snapshot when the method reads
/// it, estimator from the registry, epoch swaps through ApplyEpochUpdate
/// with a freshly derived λ. Any divergence here is a divergence in the
/// contract itself.
class InProcessTruth {
 public:
  explicit InProcessTruth(Graph graph) : dyn_(std::move(graph)) {
    snapshot_ = dyn_.Current();
    reads_lambda_ = EstimatorReadsLambda("GEER");
    ErOptions build = TestErOptions();
    if (reads_lambda_ && !build.lambda.has_value()) {
      build.lambda =
          ComputeSpectralBoundsT<UnitWeight>(*snapshot_->graph).lambda;
    }
    estimator_ = CreateEstimator("GEER", *snapshot_->graph, build);
    service_ = std::make_unique<QueryService>(*estimator_, TestServeOptions());
  }

  DynamicGraph& dyn() { return dyn_; }
  QueryService& service() { return *service_; }

  /// Mirrors ShardServer's prepare + activate: apply + commit + cold λ +
  /// barrier swap.
  bool ApplyAndSwap(const std::vector<EdgeUpdate>& updates) {
    for (const EdgeUpdate& op : updates) dyn_.Apply(op);
    auto snapshot = dyn_.Commit();
    std::optional<double> lambda;
    if (reads_lambda_) {
      lambda = ComputeSpectralBoundsT<UnitWeight>(*snapshot->graph).lambda;
    }
    const bool ok =
        ApplyEpochUpdate<UnitWeight>(*service_, snapshot, lambda).get();
    if (ok) snapshot_ = snapshot;
    return ok;
  }

 private:
  DynamicGraph dyn_;
  std::shared_ptr<const DynSnapshot> snapshot_;
  bool reads_lambda_ = false;
  std::unique_ptr<ErEstimator> estimator_;
  std::unique_ptr<QueryService> service_;
};

/// A 2-shard deployment on loopback: two full-replica shard servers and
/// a router, all in-process, all on ephemeral ports.
class Cluster {
 public:
  explicit Cluster(const Graph& graph) {
    ShardOptions shard;
    shard.num_shards = 2;
    shard.er = TestErOptions();
    shard.serve = TestServeOptions();
    for (int i = 0; i < 2; ++i) {
      shard.shard_id = i;
      shards_.push_back(std::make_unique<ShardServer>(graph, shard));
      std::string error;
      EXPECT_TRUE(shards_.back()->Start(&error)) << error;
    }
    RouterOptions opt;
    opt.strategy = PartitionStrategy::kRange;
    opt.connections_per_shard = 2;
    router_ = std::make_unique<Router>(
        std::vector<ShardAddress>{{"127.0.0.1", shards_[0]->port()},
                                  {"127.0.0.1", shards_[1]->port()}},
        opt);
    std::string error;
    EXPECT_TRUE(router_->Start(&error)) << error;
  }

  ~Cluster() {
    router_->Stop();
    router_->Wait();
    for (auto& shard : shards_) {
      shard->Stop();
      shard->Wait();
    }
  }

  std::uint16_t router_port() const { return router_->port(); }

 private:
  std::vector<std::unique_ptr<ShardServer>> shards_;
  std::unique_ptr<Router> router_;
};

// Runs once per ApplyUpdatesMsg::incremental value. The flag does not
// change how a shard derives λ, so an incremental swap must match the
// cold-λ in-process truth bit for bit too.
TEST(NetDeterminismTest, ClusterMatchesInProcessServiceBitwiseAcrossSwap) {
  for (const bool incremental : {false, true}) {
    auto dataset = MakeDataset("facebook", 0.05);
    ASSERT_TRUE(dataset.has_value());
    const NodeId n = dataset->graph.NumNodes();
    const auto queries = TestQueries(n, 48);

    InProcessTruth truth(dataset->graph);
    // One update batch, generated once and shipped to BOTH transports.
    UpdateGenerator generator(truth.dyn(), kSeed);
    const std::vector<EdgeUpdate> batch = generator.NextBatch(12);

    const auto truth_before = SubmitAll(truth.service(), queries);
    ASSERT_TRUE(truth.ApplyAndSwap(batch));
    const auto truth_after = SubmitAll(truth.service(), queries);

    Cluster cluster(dataset->graph);
    NetSubmitter submitter("127.0.0.1", cluster.router_port(), 3);
    std::string error;
    ASSERT_TRUE(submitter.Connect(&error)) << error;

    // Aggregate HelloAck: the router reports the deployment, not a shard.
    EXPECT_EQ(submitter.info().num_nodes, n);
    EXPECT_EQ(submitter.info().num_edges, dataset->graph.NumEdges());
    EXPECT_EQ(submitter.info().epoch, 0u);
    EXPECT_EQ(submitter.info().num_shards, 2u);

    const auto net_before = SubmitAll(submitter, queries);
    ASSERT_EQ(net_before.size(), truth_before.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(net_before[i].status, ServeStatus::kAnswered)
          << "query " << i << " (" << queries[i].s << "," << queries[i].t
          << ")";
      ASSERT_EQ(truth_before[i].status, ServeStatus::kAnswered);
      // THE contract: the networked answer is the in-process answer, to
      // the last bit, whatever replica and micro-batch it rode through.
      EXPECT_EQ(net_before[i].stats.value, truth_before[i].stats.value)
          << "query " << i << " diverged over the wire (epoch 0)";
      EXPECT_EQ(net_before[i].epoch, 0u);
    }

    // Router-coordinated swap: broadcast, all-acks, new epoch everywhere.
    ApplyUpdatesMsg msg;
    msg.updates = batch;
    msg.incremental = incremental;
    ApplyUpdatesAckMsg ack;
    ASSERT_TRUE(submitter.ApplyUpdates(msg, &ack, &error)) << error;
    EXPECT_TRUE(ack.ok);
    EXPECT_EQ(ack.epoch, 1u);

    const auto net_after = SubmitAll(submitter, queries);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(net_after[i].status, ServeStatus::kAnswered) << "query " << i;
      ASSERT_EQ(truth_after[i].status, ServeStatus::kAnswered);
      EXPECT_EQ(net_after[i].stats.value, truth_after[i].stats.value)
          << "query " << i << " diverged over the wire (epoch 1, incremental "
          << incremental << ")";
      EXPECT_EQ(net_after[i].epoch, 1u);
    }

    // Out-of-range endpoints come back as a serving outcome, not a hang or
    // a dead connection: the router replies kError(kOutOfRange), the
    // submitter resolves kFailed, and the next query still works.
    QueryResult bad = submitter.Submit({n, 0}).get();
    EXPECT_EQ(bad.status, ServeStatus::kFailed);
    QueryResult good = submitter.Submit(queries[0]).get();
    EXPECT_EQ(good.status, ServeStatus::kAnswered);
    EXPECT_EQ(good.stats.value, truth_after[0].stats.value);

    submitter.Close();
  }
}

TEST(NetDeterminismTest, InvalidUpdateStreamAcksFalseAndKeepsServing) {
  const Graph graph = geer::testing::DenseTestGraph(24);
  const NodeId n = graph.NumNodes();
  const auto queries = TestQueries(n, 12);

  InProcessTruth truth(graph);
  const auto want = SubmitAll(truth.service(), queries);

  Cluster cluster(graph);
  NetSubmitter submitter("127.0.0.1", cluster.router_port(), 2);
  std::string error;
  ASSERT_TRUE(submitter.Connect(&error)) << error;

  // Contract violations the shard must pre-validate and ack ok=false —
  // never abort, never half-apply: deleting an absent edge, and inserts
  // whose far endpoint would wrap the node count (0xFFFFFFFF + 1 == 0)
  // or size the CSR for 2^31 nodes.
  ASSERT_FALSE(graph.HasEdge(0, 13));
  const std::vector<EdgeUpdate> invalid = {
      {EdgeUpdateKind::kDelete, 0, 13, 1.0},
      {EdgeUpdateKind::kInsert, 0, 0xFFFFFFFFu, 1.0},
      {EdgeUpdateKind::kInsert, 0, NodeId{1} << 31, 1.0},
  };
  for (const EdgeUpdate& update : invalid) {
    const std::string label = "update (" + std::to_string(update.u) +
                              ", " + std::to_string(update.v) + ")";
    ApplyUpdatesMsg msg;
    msg.updates = {update};
    ApplyUpdatesAckMsg ack;
    ASSERT_TRUE(submitter.ApplyUpdates(msg, &ack, &error))
        << label << ": " << error;
    EXPECT_FALSE(ack.ok) << label;
    EXPECT_EQ(ack.epoch, 0u) << label;

    // The cluster still serves epoch 0, bit-identical to the truth.
    const auto got = SubmitAll(submitter, queries);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(got[i].status, ServeStatus::kAnswered)
          << label << ", query " << i;
      EXPECT_EQ(got[i].stats.value, want[i].stats.value)
          << label << ", query " << i;
      EXPECT_EQ(got[i].epoch, 0u) << label << ", query " << i;
    }
  }
  submitter.Close();
}

/// Shard answers to `queries` over one direct connection.
std::vector<ServiceResponse> QueryAll(Client& client,
                                      std::span<const QueryPair> queries) {
  std::vector<ServiceResponse> out(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ServiceRequest request;
    request.s = queries[i].s;
    request.t = queries[i].t;
    std::string error;
    EXPECT_TRUE(client.Query(request, &out[i], &error)) << error;
  }
  return out;
}

/// Asserts `got` is the truth of `epoch`, bit for bit.
void ExpectEpochAnswers(const std::vector<ServiceResponse>& got,
                        const std::vector<QueryResult>& truth,
                        std::uint64_t epoch) {
  ASSERT_EQ(got.size(), truth.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].status,
              static_cast<std::uint8_t>(ServeStatus::kAnswered))
        << "query " << i;
    EXPECT_EQ(got[i].value, truth[i].stats.value) << "query " << i;
    EXPECT_EQ(got[i].epoch, epoch) << "query " << i;
  }
}

TEST(NetDeterminismTest, OutOfOrderControlFramesAckFalseAndKeepServing) {
  auto dataset = MakeDataset("facebook", 0.05);
  ASSERT_TRUE(dataset.has_value());
  const auto queries = TestQueries(dataset->graph.NumNodes(), 24);

  InProcessTruth truth(dataset->graph);
  UpdateGenerator generator(truth.dyn(), kSeed);
  const std::vector<EdgeUpdate> batch = generator.NextBatch(8);
  const auto truth_before = SubmitAll(truth.service(), queries);
  ASSERT_TRUE(truth.ApplyAndSwap(batch));
  const auto truth_after = SubmitAll(truth.service(), queries);

  ShardOptions options;
  options.er = TestErOptions();
  options.serve = TestServeOptions();
  ShardServer shard(dataset->graph, options);
  std::string error;
  ASSERT_TRUE(shard.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", shard.port(), &error)) << error;

  // Activate with nothing prepared: the next epoch and the served one.
  ApplyUpdatesAckMsg ack;
  for (std::uint64_t epoch : {1u, 0u}) {
    ASSERT_TRUE(client.ActivateEpoch(epoch, &ack, &error)) << error;
    EXPECT_FALSE(ack.ok) << "unprepared activate of epoch " << epoch;
    EXPECT_EQ(ack.epoch, 0u);
  }
  ExpectEpochAnswers(QueryAll(client, queries), truth_before, 0);

  // Prepare stages epoch 1 and keeps serving epoch 0.
  ApplyUpdatesMsg msg;
  msg.updates = batch;
  ASSERT_TRUE(client.PrepareUpdates(msg, &ack, &error)) << error;
  EXPECT_TRUE(ack.ok);
  EXPECT_EQ(ack.epoch, 1u);
  EXPECT_EQ(shard.epoch(), 0u);
  ExpectEpochAnswers(QueryAll(client, queries), truth_before, 0);

  // A second prepare before activate is rejected (the same batch would
  // not even validate now, so ship an empty one).
  ASSERT_TRUE(client.PrepareUpdates(ApplyUpdatesMsg{}, &ack, &error))
      << error;
  EXPECT_FALSE(ack.ok);
  EXPECT_EQ(ack.epoch, 0u);
  // Stale and not-prepared epochs are refused; so is an undecodable
  // payload (a kError reply, the connection stays usable).
  for (std::uint64_t epoch : {0u, 2u}) {
    ASSERT_TRUE(client.ActivateEpoch(epoch, &ack, &error)) << error;
    EXPECT_FALSE(ack.ok) << "activate of epoch " << epoch;
    EXPECT_EQ(ack.epoch, 0u);
  }
  {
    Socket raw = ConnectTo("127.0.0.1", shard.port(), &error);
    ASSERT_TRUE(raw.valid()) << error;
    FrameReader reader;
    Frame reply;
    const std::vector<std::uint8_t> junk = {1, 2, 3};
    ASSERT_TRUE(SendFrame(raw, FrameType::kActivateEpoch, 9, junk));
    ASSERT_TRUE(RecvFrame(raw, reader, &reply, &error)) << error;
    EXPECT_EQ(reply.type, FrameType::kError);
    EXPECT_EQ(reply.request_id, 9u);
  }
  ExpectEpochAnswers(QueryAll(client, queries), truth_before, 0);

  // The staged epoch activates, still bit-identical to the truth.
  ASSERT_TRUE(client.ActivateEpoch(1, &ack, &error)) << error;
  EXPECT_TRUE(ack.ok);
  EXPECT_EQ(ack.epoch, 1u);
  ExpectEpochAnswers(QueryAll(client, queries), truth_after, 1);
  ASSERT_TRUE(client.ActivateEpoch(1, &ack, &error)) << error;
  EXPECT_FALSE(ack.ok) << "re-activating the served epoch";
  EXPECT_EQ(ack.epoch, 1u);

  // kApplyUpdates is prepare + activate on the same path.
  msg.updates = generator.NextBatch(4);
  ASSERT_TRUE(client.ApplyUpdates(msg, &ack, &error)) << error;
  EXPECT_TRUE(ack.ok);
  EXPECT_EQ(ack.epoch, 2u);
  EXPECT_EQ(shard.epoch(), 2u);

  client.Close();
  shard.Stop();
  shard.Wait();
}

/// A relay in front of one shard that forwards Hello, Query, prepare and
/// activate frames, but holds every kPrepareUpdates until Release(): the
/// test's handle on "a swap is in its prepare phase right now".
class PrepareGate {
 public:
  explicit PrepareGate(std::uint16_t shard_port)
      : pool_("127.0.0.1", shard_port, 4) {}
  ~PrepareGate() {
    Release();
    server_.Stop();
  }

  bool Start(std::string* error) {
    return server_.Start("127.0.0.1", 0,
                         [this](const Frame& frame) { return Handle(frame); },
                         error);
  }
  std::uint16_t port() const { return server_.port(); }

  /// Blocks until a prepare arrived and is being held.
  void WaitForPrepare() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return arrived_; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  HandlerReply Handle(const Frame& frame) {
    if (frame.type == FrameType::kPrepareUpdates) {
      std::unique_lock<std::mutex> lock(mu_);
      arrived_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    }
    ClientPool::Lease lease = pool_.Acquire();
    std::string error = pool_.last_error();
    if (lease) {
      ServiceRequest request;
      ServiceResponse response;
      ApplyUpdatesMsg updates;
      ActivateEpochMsg activate;
      ApplyUpdatesAckMsg ack;
      switch (frame.type) {
        case FrameType::kHello:
          if (lease->Hello(&error)) {
            return {FrameType::kHelloAck, EncodeHelloAck(lease->info()),
                    false};
          }
          break;
        case FrameType::kQuery:
          if (DecodeServiceRequest(frame.payload, &request) &&
              lease->Query(request, &response, &error)) {
            return {FrameType::kQueryReply, EncodeServiceResponse(response),
                    false};
          }
          break;
        case FrameType::kPrepareUpdates:
          if (DecodeApplyUpdates(frame.payload, &updates) &&
              lease->PrepareUpdates(updates, &ack, &error)) {
            return {FrameType::kApplyUpdatesAck, EncodeApplyUpdatesAck(ack),
                    false};
          }
          break;
        case FrameType::kActivateEpoch:
          if (DecodeActivateEpoch(frame.payload, &activate) &&
              lease->ActivateEpoch(activate.epoch, &ack, &error)) {
            return {FrameType::kApplyUpdatesAck, EncodeApplyUpdatesAck(ack),
                    false};
          }
          break;
        default:
          error = "not relayed";
          break;
      }
    }
    return {FrameType::kError, EncodeError({ErrorMsg::kUpstream, error}),
            false};
  }

  ClientPool pool_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool arrived_ = false;
  bool released_ = false;
  FrameServer server_;
};

TEST(NetDeterminismTest, ReadsFlowDuringPrepareAndNeverSeeAHalfSwap) {
  auto dataset = MakeDataset("facebook", 0.05);
  ASSERT_TRUE(dataset.has_value());
  const auto queries = TestQueries(dataset->graph.NumNodes(), 32);

  InProcessTruth truth(dataset->graph);
  UpdateGenerator generator(truth.dyn(), kSeed);
  const std::vector<EdgeUpdate> batch = generator.NextBatch(12);
  const std::vector<std::vector<QueryResult>> truth_at = [&] {
    std::vector<std::vector<QueryResult>> at;
    at.push_back(SubmitAll(truth.service(), queries));
    EXPECT_TRUE(truth.ApplyAndSwap(batch));
    at.push_back(SubmitAll(truth.service(), queries));
    return at;
  }();

  // Shard 0 direct, shard 1 behind the gate, a router over both.
  ShardOptions options;
  options.num_shards = 2;
  options.er = TestErOptions();
  options.serve = TestServeOptions();
  std::vector<std::unique_ptr<ShardServer>> shards;
  std::string error;
  for (int i = 0; i < 2; ++i) {
    options.shard_id = i;
    shards.push_back(std::make_unique<ShardServer>(dataset->graph, options));
    ASSERT_TRUE(shards.back()->Start(&error)) << error;
  }
  auto gate = std::make_unique<PrepareGate>(shards[1]->port());
  ASSERT_TRUE(gate->Start(&error)) << error;
  RouterOptions router_options;
  router_options.connections_per_shard = 4;
  Router router({{"127.0.0.1", shards[0]->port()},
                 {"127.0.0.1", gate->port()}},
                router_options);
  ASSERT_TRUE(router.Start(&error)) << error;
  // The trace must reach both shards for "across both shards" to mean
  // anything.
  std::vector<int> per_shard(2, 0);
  for (const QueryPair& q : queries) ++per_shard[router.partition()->HomeShard(q)];
  ASSERT_GT(per_shard[0], 0);
  ASSERT_GT(per_shard[1], 0);

  // Phases, as the readers observe them at submission and completion:
  // 0 before the write, 1 while shard 1's prepare is held, 2 after its
  // release, 3 once the writer is acked.
  std::atomic<int> phase{0};
  std::atomic<bool> stop{false};
  constexpr int kReaders = 3;
  struct Read {
    std::size_t query = 0;
    int submitted = 0;
    int completed = 0;
    bool ok = false;
    ServiceResponse response;
  };
  std::vector<std::vector<Read>> reads(kReaders);
  std::vector<std::atomic<int>> answered_in(4);
  std::vector<std::thread> readers;
  for (int c = 0; c < kReaders; ++c) {
    readers.emplace_back([&, c] {
      Client conn;
      std::string err;
      if (!conn.Connect("127.0.0.1", router.port(), &err)) return;
      for (std::size_t k = static_cast<std::size_t>(c); !stop.load(); ++k) {
        Read r;
        r.query = k % queries.size();
        ServiceRequest request;
        request.s = queries[r.query].s;
        request.t = queries[r.query].t;
        r.submitted = phase.load();
        r.ok = conn.Query(request, &r.response, &err);
        r.completed = phase.load();
        if (r.ok && r.submitted == r.completed) ++answered_in[r.submitted];
        reads[c].push_back(r);
        if (!r.ok) return;
      }
    });
  }
  // Waits (bounded: a held read would otherwise hang the suite) until
  // `count` reads were both submitted and answered within phase `p`.
  auto wait_answered = [&](int p, int count) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (answered_in[p].load() < count &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return answered_in[p].load() >= count;
  };
  constexpr int kReadsPerPhase = 40;
  EXPECT_TRUE(wait_answered(0, kReadsPerPhase));

  const auto swap_ns = [] {
    return obs::Registry::Global().Snapshot("geer_router_swap_").histograms;
  };
  const auto timings_before = swap_ns();
  ApplyUpdatesAckMsg ack;
  bool write_ok = false;
  std::string write_error;
  std::thread writer([&] {
    Client control;
    if (!control.Connect("127.0.0.1", router.port(), &write_error)) return;
    ApplyUpdatesMsg msg;
    msg.updates = batch;
    write_ok = control.ApplyUpdates(msg, &ack, &write_error);
  });
  gate->WaitForPrepare();
  phase.store(1);
  // THE point of the two-phase swap: with a prepare in flight, reads to
  // both shards are still answered, not held at the router.
  EXPECT_TRUE(wait_answered(1, kReadsPerPhase))
      << "reads were held while a shard prepared";
  phase.store(2);
  gate->Release();
  writer.join();
  phase.store(3);
  EXPECT_TRUE(wait_answered(3, kReadsPerPhase));
  stop.store(true);
  for (std::thread& t : readers) t.join();

  ASSERT_TRUE(write_ok) << write_error;
  EXPECT_TRUE(ack.ok);
  EXPECT_EQ(ack.epoch, 1u);
  // One swap timed: its prepare spans the gate's hold, its exclusive
  // window (how long reads were held) does not.
  const auto timings_after = swap_ns();
  const auto delta = [&](const std::string& name) {
    const obs::HistogramData& a = timings_after.at(name);
    const obs::HistogramData& b = timings_before.at(name);
    return std::pair{a.count - b.count, a.sum_ns - b.sum_ns};
  };
  const auto [prepares, prepare_ns] = delta("geer_router_swap_prepare_ns");
  const auto [activations, exclusive_ns] =
      delta("geer_router_swap_exclusive_ns");
  EXPECT_EQ(prepares, 1u);
  EXPECT_EQ(activations, 1u);
  EXPECT_LT(exclusive_ns, prepare_ns);
  for (int c = 0; c < kReaders; ++c) {
    std::uint64_t last_epoch = 0;
    for (const Read& r : reads[c]) {
      ASSERT_TRUE(r.ok) << "reader " << c << " query " << r.query;
      ASSERT_EQ(r.response.status,
                static_cast<std::uint8_t>(ServeStatus::kAnswered));
      ASSERT_LE(r.response.epoch, 1u);
      // Bit for bit the truth of the epoch the answer reports.
      EXPECT_EQ(r.response.value,
                truth_at[r.response.epoch][r.query].stats.value)
          << "reader " << c << " query " << r.query << " epoch "
          << r.response.epoch;
      // Epochs never go backwards on one connection, whichever shard
      // answered.
      EXPECT_GE(r.response.epoch, last_epoch) << "reader " << c;
      last_epoch = r.response.epoch;
      if (r.completed <= 1) EXPECT_EQ(r.response.epoch, 0u);
      if (r.submitted == 3) EXPECT_EQ(r.response.epoch, 1u);
    }
  }

  router.Stop();
  router.Wait();
  gate.reset();
  for (auto& shard : shards) {
    shard->Stop();
    shard->Wait();
  }
}

TEST(NetDeterminismTest, RouterRejectsDisagreeingReplicas) {
  // A mis-deployed cluster (shards serving different graphs) must fail
  // the Hello verification at Start, not answer garbage later.
  ShardOptions opt;
  opt.num_shards = 2;
  opt.er = TestErOptions();
  opt.serve = TestServeOptions();
  ShardServer small(geer::testing::DenseTestGraph(16), opt);
  ShardServer large(geer::testing::DenseTestGraph(24), opt);
  std::string error;
  ASSERT_TRUE(small.Start(&error)) << error;
  ASSERT_TRUE(large.Start(&error)) << error;

  Router router({{"127.0.0.1", small.port()}, {"127.0.0.1", large.port()}},
                RouterOptions{});
  error.clear();
  EXPECT_FALSE(router.Start(&error));
  EXPECT_FALSE(error.empty());

  small.Stop();
  small.Wait();
  large.Stop();
  large.Wait();
}

}  // namespace
}  // namespace geer::net
