// Workload `uniform-offline`: the paper's §5.1 protocol — GEER at
// ε = 0.05 on query sets of 100 uniform random node pairs — on the
// livejournal stand-in at scale 1/4, each set answered offline through
// RunQueryBatch with 2 workers. Uniform pairs share no endpoints, so the
// walk and SpMV kernels, GEER's control and the Lanczos set-up do the
// work; serve, net and dyn stay idle. The graph's CSR (1.2 MiB) fits in
// one core's 2 MiB L2: random walks over a graph that lives in the
// shared L3 run as fast as the other tenants of the machine let them,
// and their speed swung too far between runs to gate on.
//
// Every query of a set is due when the set is handed to RunQueryBatch
// and answered when the engine's call for its plan group returns.

#include <map>
#include <mutex>

#include "bench.h"
#include "core/batch_engine.h"
#include "core/geer.h"

namespace perfbench {
namespace {

constexpr double kEpsilon = 0.05;
constexpr int kWorkers = 2;
constexpr std::size_t kBatch = 100;

/// Forwards every call to the estimator under test and timestamps each
/// EstimateBatch call — the engine's per-group call — so the benchmark
/// learns when each query was answered without instrumenting the
/// library. Clones made for the engine's workers share the log.
class TimedEstimator final : public geer::ErEstimator {
 public:
  struct Call {
    double start = 0.0;
    double end = 0.0;
    std::vector<QueryPair> answered;
  };
  struct Log {
    explicit Log(const Tracer& clock) : clock(clock) {}
    const Tracer& clock;
    std::mutex mu;
    std::vector<Call> calls;  // guarded by mu
  };

  TimedEstimator(geer::ErEstimator& inner, std::shared_ptr<Log> log)
      : inner_(&inner), log_(std::move(log)) {}
  TimedEstimator(std::unique_ptr<geer::ErEstimator> owned,
                 std::shared_ptr<Log> log)
      : owned_(std::move(owned)), inner_(owned_.get()), log_(std::move(log)) {}

  std::string Name() const override { return inner_->Name(); }
  QueryStats EstimateWithStats(NodeId s, NodeId t) override {
    return inner_->EstimateWithStats(s, t);
  }
  bool SupportsQuery(NodeId s, NodeId t) const override {
    return inner_->SupportsQuery(s, t);
  }
  std::size_t EstimateBatch(std::span<const QueryPair> queries,
                            std::span<QueryStats> stats,
                            const geer::BatchContext& context) override {
    Call call;
    call.start = log_->clock.Now();
    const std::size_t answered = inner_->EstimateBatch(queries, stats, context);
    call.end = log_->clock.Now();
    call.answered.assign(queries.begin(), queries.begin() + answered);
    std::lock_guard<std::mutex> lock(log_->mu);
    log_->calls.push_back(std::move(call));
    return answered;
  }
  geer::BatchPlan PlanBatch(std::span<const QueryPair> queries) const override {
    return inner_->PlanBatch(queries);
  }
  bool SharesBatchWork() const override { return inner_->SharesBatchWork(); }
  std::unique_ptr<geer::ErEstimator> CloneForBatch() const override {
    std::unique_ptr<geer::ErEstimator> clone = inner_->CloneForBatch();
    if (clone == nullptr) return nullptr;
    return std::make_unique<TimedEstimator>(std::move(clone), log_);
  }

 private:
  std::unique_ptr<geer::ErEstimator> owned_;
  geer::ErEstimator* inner_;
  std::shared_ptr<Log> log_;
};

struct Deployment {
  Graph graph;
  geer::SpectralBounds spectral;
  std::unique_ptr<geer::GeerEstimator> estimator;
  double build_s = 0.0;
  double lanczos_s = 0.0;
};

std::unique_ptr<Deployment> SetUp(Tracer& tracer) {
  auto d = std::make_unique<Deployment>();
  d->build_s = Timed(tracer, "graph.build", "graph",
                     [&] { d->graph = BuildStandIn("livejournal/4"); });
  d->lanczos_s = Timed(tracer, "linalg.lanczos", "linalg", [&] {
    d->spectral = geer::ComputeSpectralBounds(d->graph);
  });
  Timed(tracer, "core.construct", "core", [&] {
    geer::ErOptions options;
    options.epsilon = kEpsilon;
    options.lambda = d->spectral.lambda;
    d->estimator = std::make_unique<geer::GeerEstimator>(d->graph, options);
  });
  return d;
}

struct Replay {
  FailureTally tally;
  std::vector<double> latency_ms;  ///< per answered query
  std::vector<double> batch_qps;   ///< answered ÷ wall, per batch
  double wall_s = 0.0;             ///< Σ batch wall time
  double call_s = 0.0;             ///< Σ time inside EstimateBatch calls
  std::vector<QueryPair> pairs;    ///< every query, in order
  std::vector<double> values;      ///< its answer (0 if unanswered)
};

/// Answers query sets of kBatch uniform pairs until `seconds` passed
/// (at least one set). With `trace`, each set is an engine.batch span
/// and each engine call a core.estimate_batch span inside it.
Replay RunReplay(Deployment& d, InputRng& rng, double seconds,
                 Tracer& clock, bool trace) {
  Replay r;
  auto log = std::make_shared<TimedEstimator::Log>(clock);
  TimedEstimator timed(*d.estimator, log);
  std::vector<QueryPair> pairs(kBatch);
  std::vector<QueryStats> stats(kBatch);
  geer::BatchOptions options;
  options.threads = kWorkers;
  const auto start = Clock::now();
  do {
    for (QueryPair& p : pairs) p = UniformPair(d.graph.NumNodes(), rng);
    std::fill(stats.begin(), stats.end(), QueryStats{});
    log->calls.clear();
    const double t0 = clock.Now();
    const geer::BatchReport report =
        geer::RunQueryBatch(timed, pairs, stats, options);
    const double t1 = clock.Now();

    // Completion time per pair: pairs sharing an endpoint share a plan
    // group, so equal pairs are always answered by the same call.
    std::map<std::pair<NodeId, NodeId>, double> done_at;
    std::map<std::pair<NodeId, NodeId>, std::uint64_t> first_index;
    for (std::size_t i = 0; i < kBatch; ++i) {
      first_index.try_emplace({pairs[i].s, pairs[i].t},
                              r.pairs.size() + i + 1);
    }
    const std::uint64_t batch_span =
        trace ? clock.Record("engine.batch", "engine", t0, t1, 0,
                             r.pairs.size() + 1)
              : 0;
    for (const TimedEstimator::Call& call : log->calls) {
      r.call_s += call.end - call.start;
      for (const QueryPair& p : call.answered) done_at[{p.s, p.t}] = call.end;
      if (trace && !call.answered.empty()) {
        const QueryPair& p = call.answered.front();
        clock.Record("core.estimate_batch", "core", call.start, call.end,
                     batch_span, first_index[{p.s, p.t}]);
      }
    }
    r.wall_s += t1 - t0;
    r.batch_qps.push_back(static_cast<double>(report.answered) / (t1 - t0));
    for (std::size_t i = 0; i < kBatch; ++i) {
      const bool answered = report.processed[i] != 0;
      r.tally.Add(answered);
      if (answered) {
        r.latency_ms.push_back((done_at.at({pairs[i].s, pairs[i].t}) - t0) *
                               1e3);
      }
      r.pairs.push_back(pairs[i]);
      r.values.push_back(answered ? stats[i].value : 0.0);
    }
  } while (SecondsBetween(start, Clock::now()) < seconds);
  return r;
}

}  // namespace

Outcome RunUniformOffline(const RunConfig& config) {
  Tracer tracer(config.trace);
  std::unique_ptr<Deployment> d;
  std::vector<double> build_s;
  std::vector<double> lanczos_s;
  const double setup_s = RepeatSetup<Deployment>(&d, [&] {
    auto fresh = SetUp(tracer);
    build_s.push_back(fresh->build_s);
    lanczos_s.push_back(fresh->lanczos_s);
    return fresh;
  });

  InputRng rng(config.seed);
  // One untimed set first, so page faults and first-touch costs are
  // paid before timing.
  RunReplay(*d, rng, 0.0, tracer, false);

  Outcome out;
  Replay replay;
  if (!config.trace) {
    replay = RunReplay(*d, rng, config.seconds, tracer, false);
    out.Add("setup_s", setup_s, "s");
    out.Add("qps", Median(replay.batch_qps), "1/s");
    out.Add("p50_ms", Median(replay.latency_ms), "ms");
    out.Add("p99_ms", ReportablePercentile(replay.latency_ms, 0.99, "p99_ms"),
            "ms");
    out.Add("peak_rss_mb", PeakRssMb(), "MiB");
  } else {
    const double replay_start = tracer.Now();
    const double record_before = tracer.RecordSeconds();
    replay = RunReplay(*d, rng, config.seconds, tracer, true);
    const double replay_s = tracer.Now() - replay_start;
    AddSetupLayerMetrics(build_s, lanczos_s, d->graph, d->spectral, &out);
    out.report.Num("engine.busy_share",
                   replay.call_s / (kWorkers * replay.wall_s));
    AddServeLayerMetrics(0.0, 0.0, &out);
    AddTraceMetrics(config, tracer, replay_start, replay_s,
                    tracer.RecordSeconds() - record_before, &out);
  }
  out.tally = replay.tally;
  ReportDistribution("latency_ms", replay.latency_ms, &out.report);
  ReportDistribution("batch_qps", replay.batch_qps, &out.report);
  out.report.Num("qps_overall",
                 static_cast<double>(replay.tally.answered) / replay.wall_s);
  out.report.Int("batch_size", kBatch);

  // Checks on the first kGroundTruthPairs queries of the timed replay:
  // bitwise equal to the serial estimator (the engine's determinism
  // contract) and within ε of the CG ground truth (Theorem 3.1).
  const std::size_t n_check = std::min(kGroundTruthPairs, replay.pairs.size());
  std::vector<QueryPair> sample(replay.pairs.begin(),
                                replay.pairs.begin() + n_check);
  std::vector<double> values(replay.values.begin(),
                             replay.values.begin() + n_check);
  std::vector<QueryStats> serial;
  for (std::size_t i = 0; i < n_check; ++i) {
    serial.push_back(d->estimator->EstimateWithStats(sample[i].s, sample[i].t));
    if (serial.back().value != values[i]) {
      out.Fail("batched answer differs from serial Estimate at query " +
               std::to_string(i));
    }
  }
  out.report.Num("err_max_over_eps",
                 CheckAgainstGroundTruth(d->graph, sample, values, kEpsilon,
                                         &out));
  out.report.Int("checked_ground_truth", n_check);
  out.report.Int("checked_bitwise", n_check);

  if (config.trace) {
    AddCoreCostMetrics(serial, &out);
    ProbeInputs probe;
    probe.graph = &d->graph;
    probe.estimator = d->estimator.get();
    probe.stream = replay.pairs;
    probe.sample = sample;
    probe.sample_stats = serial;
    probe.seed = config.seed;
    RunProbes(probe, &out);
  }
  return out;
}

}  // namespace perfbench
