// Workload `churn-net`: cheap reads and concurrent writes through a
// loopback deployment — 2 full-replica ShardServers behind a Router, at
// the shipped serve defaults (1 dispatch worker per shard). GEER at
// ε = 0.02 on the facebook stand-in costs tens of µs per query, so the
// serve queue and linger, the net hop and the dyn commit/swap set the
// numbers. Writes share the serving path with reads, so a change that
// speeds one at the other's cost shows.
//
// Reads: open loop, Zipf(1.0) pairs at a fixed 500 q/s over 4 client
// connections, each query timed from its due time. A connection carries
// one query at a time and each shard lingers ~2 ms per micro-batch, so 2
// connections top out near 900 q/s: the backlog a swap leaves then takes
// longer to drain than the swap itself and puts the median on the knee
// of the latency curve, where it jumps between runs. The benchmark
// drives the connections (net::Client, the connection NetSubmitter
// wraps) from its own sender threads because the reply's server_ms,
// which the net hop needs, does not survive into NetSubmitter's
// QueryResult.
// Writes: one 16-edge UpdateGenerator batch every 4 s on a fifth
// connection, strict (non-incremental) epochs. Reads queue at the router
// for the whole swap (each shard re-derives λ cold, ~0.4 s) and the
// shards recover for a while after it. A write every 2 s made that
// stretch so large a share of the run that the median read sat on it and
// swung between runs; at one every 4 s, p50 measures the reads between
// swaps and p99 a read caught by one. The benchmark applies the same
// batches to its own DynamicGraph mirror and checks answers against a
// serial estimator on the mirror's snapshot of the answer's epoch.
// Capacity: after the open loop, its first kBurstReads reads again, all
// due at once, over the same reader connections and with no writes.

#include <condition_variable>
#include <deque>
#include <map>
#include <thread>

#include "bench.h"
#include "core/geer.h"
#include "dyn/dynamic_graph.h"
#include "net/client.h"
#include "net/router.h"
#include "net/shard_service.h"
#include "obs/metrics.h"

namespace perfbench {
namespace {

namespace net = geer::net;

constexpr double kEpsilon = 0.02;
constexpr double kRate = 500.0;
constexpr double kWarmupSeconds = 1.0;
constexpr int kShards = 2;
constexpr int kReaders = 4;
constexpr double kWritePeriod = 4.0;
constexpr std::size_t kUpdatesPerWrite = 16;
constexpr std::size_t kBitwiseChecks = 200;
constexpr std::size_t kBurstReads = 4000;
constexpr const char* kHost = "127.0.0.1";

geer::ErOptions EstimatorOptions() {
  geer::ErOptions options;
  options.epsilon = kEpsilon;
  return options;
}

/// The deployment under test. Members are torn down in reverse order of
/// start: client connections, then the router, then the shards.
struct Deployment {
  Graph graph;
  std::vector<std::unique_ptr<net::ShardServer>> shards;
  std::unique_ptr<net::Router> router;
  std::vector<std::unique_ptr<net::Client>> readers;
  std::unique_ptr<net::Client> control;
  double build_s = 0.0;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    for (auto& c : readers) c->Close();
    if (control != nullptr) control->Close();
    if (router != nullptr) {
      router->Stop();
      router->Wait();
    }
    for (auto& shard : shards) {
      shard->Stop();
      shard->Wait();
    }
  }
};

std::unique_ptr<Deployment> SetUp(Tracer& tracer) {
  auto d = std::make_unique<Deployment>();
  d->build_s = Timed(tracer, "graph.build", "graph",
                     [&] { d->graph = BuildStandIn("facebook"); });
  Timed(tracer, "net.start", "net", [&] {
    std::string error;
    for (int i = 0; i < kShards; ++i) {
      net::ShardOptions options;
      options.shard_id = i;
      options.num_shards = kShards;
      options.method = "GEER";
      options.er = EstimatorOptions();
      d->shards.push_back(
          std::make_unique<net::ShardServer>(d->graph, options));
      // Each shard derives λ itself (cold Lanczos) as a deployment does.
      if (!d->shards.back()->Start(&error)) {
        throw std::runtime_error("shard start: " + error);
      }
    }
    std::vector<net::ShardAddress> addresses;
    for (const auto& shard : d->shards) {
      addresses.push_back({kHost, shard->port()});
    }
    d->router =
        std::make_unique<net::Router>(addresses, net::RouterOptions{});
    if (!d->router->Start(&error)) {
      throw std::runtime_error("router start: " + error);
    }
    for (int i = 0; i <= kReaders; ++i) {
      auto client = std::make_unique<net::Client>();
      if (!client->Connect(kHost, d->router->port(), &error)) {
        throw std::runtime_error("connect: " + error);
      }
      if (i < kReaders) {
        d->readers.push_back(std::move(client));
      } else {
        d->control = std::move(client);
      }
    }
  });
  return d;
}

struct Read {
  QueryPair pair;
  double due = 0.0;  ///< seconds from the phase start
  double submit = 0.0;
  double sent = 0.0;
  double done = 0.0;
  bool ok = false;
  geer::ServiceResponse response;
};

struct Write {
  double start = 0.0;
  double ack_ms = 0.0;
  bool ok = false;
  std::uint64_t epoch = 0;
};

/// The benchmark's mirror of the served graph: same update batches, same
/// epochs, one snapshot per epoch for the checks.
struct Mirror {
  explicit Mirror(const Graph& graph, std::uint64_t seed)
      : dyn(Graph(graph)), generator(dyn, seed) {
    snapshots.push_back(dyn.Current());
  }
  geer::DynamicGraph dyn;
  geer::UpdateGenerator generator;
  std::vector<std::shared_ptr<const geer::DynSnapshot>> snapshots;
};

struct Phase {
  std::vector<Read> reads;
  std::vector<Write> writes;
};

/// Open-loop reads over `seconds`: Zipf pairs at Poisson arrival times
/// of rate kRate.
std::vector<Read> OpenLoopReads(const ZipfPairs& zipf, InputRng& rng,
                                double seconds) {
  const std::vector<double> arrivals = PoissonArrivals(kRate, seconds, rng);
  std::vector<Read> reads(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    reads[i].pair = zipf.Next(rng);
    reads[i].due = arrivals[i];
  }
  return reads;
}

/// Replays `reads`: the calling thread hands each to the kReaders sender
/// threads, which each own one connection, at its due time; with
/// `writes`, a writer thread ships an update batch every kWritePeriod
/// seconds of the phase's `seconds`.
Phase RunPhase(Deployment& d, Mirror& mirror, std::vector<Read> reads,
               double seconds, bool writes) {
  Phase phase;
  phase.reads = std::move(reads);
  const auto start = Clock::now();
  auto now = [&] { return SecondsBetween(start, Clock::now()); };

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::size_t> queue;
  bool closed = false;
  std::vector<std::thread> senders;
  for (int c = 0; c < kReaders; ++c) {
    senders.emplace_back([&, c] {
      net::Client& conn = *d.readers[c];
      while (true) {
        std::size_t i = 0;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return closed || !queue.empty(); });
          if (queue.empty()) return;
          i = queue.front();
          queue.pop_front();
        }
        Read& r = phase.reads[i];
        geer::ServiceRequest request;
        request.s = r.pair.s;
        request.t = r.pair.t;
        std::string error;
        r.sent = now();
        r.ok = conn.Query(request, &r.response, &error) &&
               r.response.status ==
                   static_cast<std::uint8_t>(geer::ServeStatus::kAnswered);
        r.done = now();
      }
    });
  }

  std::thread writer;
  if (writes) {
    writer = std::thread([&] {
      for (double at = kWritePeriod / 2; at < seconds; at += kWritePeriod) {
        SleepUntil(start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(at)));
        Write w;
        net::ApplyUpdatesMsg msg;
        msg.updates = mirror.generator.NextBatch(kUpdatesPerWrite);
        net::ApplyUpdatesAckMsg ack;
        std::string error;
        w.start = now();
        w.ok = d.control->ApplyUpdates(msg, &ack, &error) && ack.ok;
        w.ack_ms = (now() - w.start) * 1e3;
        w.epoch = ack.epoch;
        for (const auto& op : msg.updates) mirror.dyn.Apply(op);
        mirror.snapshots.push_back(mirror.dyn.Commit());
        if (mirror.snapshots.back()->epoch != w.epoch) w.ok = false;
        phase.writes.push_back(w);
      }
    });
  }

  for (std::size_t i = 0; i < phase.reads.size(); ++i) {
    SleepUntil(start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               phase.reads[i].due)));
    phase.reads[i].submit = now();
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(i);
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  cv.notify_all();
  for (std::thread& t : senders) t.join();
  if (writer.joinable()) writer.join();
  return phase;
}

std::vector<double> LatenciesMs(const Phase& phase) {
  std::vector<double> due, done;
  for (const Read& r : phase.reads) {
    if (!r.ok) continue;
    due.push_back(r.due * 1e3);
    done.push_back(r.done * 1e3);
  }
  return DueTimeLatencies(due, done);
}

void Tally(const Phase& phase, Outcome* out) {
  for (const Read& r : phase.reads) out->tally.Add(r.ok);
  for (const Write& w : phase.writes) {
    out->tally.Add(w.ok);
    if (!w.ok) out->Fail("update batch not applied as epoch " +
                         std::to_string(w.epoch));
  }
}

/// Spans from each read's timestamps: generator lateness, the wait for
/// a free connection, the round trip, and inside it the shard's own
/// submission→answer time (placed mid-RTT: the client cannot see where
/// in the round trip it fell). Writes: the swap ack and the mirror
/// commit.
void RecordSpans(Tracer& tracer, Clock::time_point start, const Phase& p) {
  const double t0 = tracer.At(start);
  for (std::size_t i = 0; i < p.reads.size(); ++i) {
    const Read& r = p.reads[i];
    if (!r.ok) continue;
    const std::uint64_t query = i + 1;
    const std::uint64_t root = tracer.Record(
        "client.query", "client", t0 + r.due, t0 + r.done, 0, query);
    tracer.Record("gen.lag", "gen", t0 + r.due, t0 + r.submit, root, query);
    tracer.Record("net.connection_wait", "net", t0 + r.submit, t0 + r.sent,
                  root, query);
    const std::uint64_t rtt = tracer.Record("net.rtt", "net", t0 + r.sent,
                                            t0 + r.done, root, query);
    const double server = r.response.server_ms * 1e-3;
    const double mid = (r.sent + r.done - server) / 2;
    tracer.Record("serve.shard", "serve", t0 + mid, t0 + mid + server, rtt,
                  query);
  }
  for (const Write& w : p.writes) {
    tracer.Record("dyn.apply_updates", "dyn", t0 + w.start,
                  t0 + w.start + w.ack_ms * 1e-3);
  }
}

/// Serving counters of the in-process shards over one phase, from the
/// process-wide metrics registry they publish to.
struct ServeCounters {
  geer::obs::StatsSnapshot snapshot;
  static ServeCounters Take() {
    return {geer::obs::Registry::Global().Snapshot("geer_serve")};
  }
  std::uint64_t Counter(const std::string& prefix) const {
    std::uint64_t sum = 0;
    for (const auto& [name, value] : snapshot.counters) {
      if (name.rfind(prefix, 0) == 0) sum += value;
    }
    return sum;
  }
  geer::obs::HistogramData Histogram(const std::string& prefix) const {
    geer::obs::HistogramData out;
    for (const auto& [name, h] : snapshot.histograms) {
      if (name.rfind(prefix, 0) != 0) continue;
      for (std::size_t b = 0; b < h.buckets.size(); ++b) {
        out.buckets[b] += h.buckets[b];
      }
      out.count += h.count;
      out.sum_ns += h.sum_ns;
    }
    return out;
  }
};

void ReportServe(const ServeCounters& a, const ServeCounters& b,
                 std::size_t swaps, Outcome* out) {
  const double batches =
      static_cast<double>(b.Counter("geer_serve_batches_total") -
                          a.Counter("geer_serve_batches_total"));
  const double answered =
      static_cast<double>(b.Counter("geer_serve_answered_total") -
                          a.Counter("geer_serve_answered_total"));
  AddServeLayerMetrics(batches > 0 ? answered / batches : 0.0,
                       static_cast<double>(swaps), out);
  geer::obs::HistogramData queue = b.Histogram("geer_serve_queue_wait_ns");
  const geer::obs::HistogramData before =
      a.Histogram("geer_serve_queue_wait_ns");
  for (std::size_t i = 0; i < queue.buckets.size(); ++i) {
    queue.buckets[i] -= before.buckets[i];
  }
  queue.count -= before.count;
  out->report.Int("serve.queue_ms_samples", queue.count);
  out->report.Num("serve.queue_ms_p50",
                  geer::obs::HistogramQuantile(queue, 0.5) * 1e-6);
  out->report.Num("serve.queue_ms_p99",
                  geer::obs::HistogramQuantile(queue, 0.99) * 1e-6);
}

}  // namespace

Outcome RunChurnNet(const RunConfig& config) {
  Tracer tracer(config.trace);
  std::unique_ptr<Deployment> d;
  std::vector<double> build_s;
  const double setup_s = RepeatSetup<Deployment>(&d, [&] {
    auto fresh = SetUp(tracer);
    build_s.push_back(fresh->build_s);
    return fresh;
  });

  InputRng rng(config.seed);
  const ZipfPairs zipf(DegreeRanking(d->graph), 1.0);
  Mirror mirror(d->graph, config.seed);
  RunPhase(*d, mirror, OpenLoopReads(zipf, rng, kWarmupSeconds),
           kWarmupSeconds, /*writes=*/false);

  Outcome out;
  Phase phase;
  Phase burst;
  if (!config.trace) {
    const auto start = Clock::now();
    phase = RunPhase(*d, mirror, OpenLoopReads(zipf, rng, config.seconds),
                     config.seconds, true);
    const double wall = SecondsBetween(start, Clock::now());
    const std::vector<double> latency = LatenciesMs(phase);
    // Capacity: the phase's first kBurstReads reads again, all due at
    // once, over the same connections and with no writes.
    std::vector<Read> again(std::min(kBurstReads, phase.reads.size()));
    for (std::size_t i = 0; i < again.size(); ++i) {
      again[i].pair = phase.reads[i].pair;
    }
    burst = RunPhase(*d, mirror, std::move(again), 0.0, false);
    double burst_wall = 0.0;
    std::size_t burst_answered = 0;
    for (const Read& r : burst.reads) {
      burst_wall = std::max(burst_wall, r.done);
      burst_answered += r.ok ? 1 : 0;
    }
    out.Add("setup_s", setup_s, "s");
    out.Add("qps", static_cast<double>(burst_answered) / burst_wall, "1/s");
    out.Add("p50_ms", Median(latency), "ms");
    out.Add("p99_ms", ReportablePercentile(latency, 0.99, "p99_ms"), "ms");
    out.Add("peak_rss_mb", PeakRssMb(), "MiB");
    ReportDistribution("latency_ms", latency, &out.report);
    out.report.Num("open_loop_answered_per_s",
                   static_cast<double>(latency.size()) / wall);
    out.report.Int("burst_reads", burst.reads.size());
  } else {
    const ServeCounters before = ServeCounters::Take();
    const double replay_start = tracer.Now();
    const auto start = Clock::now();
    phase = RunPhase(*d, mirror, OpenLoopReads(zipf, rng, config.seconds),
                     config.seconds, true);
    const double replay_s = SecondsBetween(start, Clock::now());
    const double record_before = tracer.RecordSeconds();
    RecordSpans(tracer, start, phase);
    ReportServe(before, ServeCounters::Take(), phase.writes.size(), &out);
    std::vector<double> hop_ms, server_ms;
    for (const Read& r : phase.reads) {
      if (!r.ok) continue;
      server_ms.push_back(r.response.server_ms);
      hop_ms.push_back((r.done - r.sent) * 1e3 - r.response.server_ms);
    }
    ReportDistribution("net.hop_ms", hop_ms, &out.report);
    ReportDistribution("net.server_ms", server_ms, &out.report);
    std::vector<double> lag_ms;
    for (const Read& r : phase.reads) {
      lag_ms.push_back((r.submit - r.due) * 1e3);
    }
    ReportDistribution("gen.lag_ms", lag_ms, &out.report);
    AddTraceMetrics(config, tracer, replay_start, replay_s,
                    tracer.RecordSeconds() - record_before, &out);
  }
  Tally(phase, &out);
  Tally(burst, &out);
  std::vector<double> swap_ms;
  for (const Write& w : phase.writes) swap_ms.push_back(w.ack_ms);
  ReportDistribution("swap_ms", swap_ms, &out.report);

  // Checks: sampled answers equal, bit for bit, a serial estimator built
  // on the mirror's snapshot of the epoch that answered them (cold λ, as
  // the shards derive it); the first kGroundTruthPairs also lie within ε
  // of the CG ground truth on that epoch's graph.
  std::map<std::uint64_t, std::unique_ptr<geer::GeerEstimator>> serial_by_epoch;
  std::vector<double> lanczos_s;
  geer::SpectralBounds epoch0_spectral;
  auto serial_for = [&](std::uint64_t epoch) -> geer::GeerEstimator& {
    auto& slot = serial_by_epoch[epoch];
    if (slot == nullptr) {
      if (epoch >= mirror.snapshots.size()) {
        throw std::runtime_error("answer from unknown epoch " +
                                 std::to_string(epoch));
      }
      const Graph& g = *mirror.snapshots[epoch]->graph;
      const auto t0 = Clock::now();
      const geer::SpectralBounds spectral = geer::ComputeSpectralBounds(g);
      lanczos_s.push_back(SecondsBetween(t0, Clock::now()));
      if (epoch == 0) epoch0_spectral = spectral;
      geer::ErOptions options = EstimatorOptions();
      options.lambda = spectral.lambda;
      slot = std::make_unique<geer::GeerEstimator>(g, options);
    }
    return *slot;
  };
  std::vector<Read> reads = phase.reads;
  reads.insert(reads.end(), burst.reads.begin(), burst.reads.end());
  std::vector<QueryPair> sample;
  std::vector<double> values;
  std::vector<std::uint64_t> epochs;
  std::vector<QueryStats> serial;
  const std::size_t stride =
      std::max<std::size_t>(1, reads.size() / kBitwiseChecks);
  for (std::size_t i = 0; i < reads.size(); i += stride) {
    const Read& r = reads[i];
    if (!r.ok) continue;
    sample.push_back(r.pair);
    values.push_back(r.response.value);
    epochs.push_back(r.response.epoch);
    serial.push_back(
        serial_for(r.response.epoch).EstimateWithStats(r.pair.s, r.pair.t));
    if (serial.back().value != r.response.value) {
      out.Fail("networked answer differs from the serial estimator on epoch " +
               std::to_string(r.response.epoch) + " at read " +
               std::to_string(i));
    }
  }
  double err_max = 0.0;
  std::size_t n_truth = 0;
  using Checked = std::pair<std::vector<QueryPair>, std::vector<double>>;
  std::map<std::uint64_t, Checked> truth_by_epoch;
  for (std::size_t i = 0; i < sample.size() && n_truth < kGroundTruthPairs;
       ++i, ++n_truth) {
    truth_by_epoch[epochs[i]].first.push_back(sample[i]);
    truth_by_epoch[epochs[i]].second.push_back(values[i]);
  }
  for (const auto& [epoch, group] : truth_by_epoch) {
    err_max = std::max(
        err_max, CheckAgainstGroundTruth(*mirror.snapshots[epoch]->graph,
                                         group.first, group.second, kEpsilon,
                                         &out));
  }
  out.report.Num("err_max_over_eps", err_max);
  out.report.Int("checked_ground_truth", n_truth);
  out.report.Int("checked_bitwise", sample.size());
  out.report.Int("epochs_checked", serial_by_epoch.size());

  if (config.trace) {
    geer::GeerEstimator& epoch0 = serial_for(0);
    AddSetupLayerMetrics(build_s, lanczos_s, d->graph, epoch0_spectral, &out);
    // Cost counts on epoch 0 for every sampled pair: which epoch answered
    // a read depends on timing, the epoch-0 cost does not.
    std::vector<QueryStats> epoch0_stats;
    for (const QueryPair& p : sample) {
      epoch0_stats.push_back(epoch0.EstimateWithStats(p.s, p.t));
    }
    AddCoreCostMetrics(epoch0_stats, &out);
    std::vector<QueryPair> stream;
    for (const Read& r : phase.reads) stream.push_back(r.pair);
    ProbeInputs probe;
    probe.graph = mirror.snapshots[0]->graph.get();
    probe.estimator = &epoch0;
    probe.stream = stream;
    probe.sample = sample;
    probe.sample_stats = epoch0_stats;
    probe.seed = config.seed;
    RunProbes(probe, &out);
  }
  return out;
}

}  // namespace perfbench
