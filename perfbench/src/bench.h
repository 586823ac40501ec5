// Shared pieces of the benchmark program: run configuration, result
// reporting, the in-memory span tracer, input generation (graphs, query
// streams, arrival schedules), the machine fingerprint and the kernel
// probes of the traced run. Everything here is the benchmark's own
// code; the library under test is only called, never instrumented.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "aggregate.h"
#include "core/estimator.h"
#include "graph/graph.h"
#include "linalg/spectral.h"

namespace perfbench {

using geer::Graph;
using geer::NodeId;
using geer::QueryPair;
using geer::QueryStats;
using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;
/// Queries whose answers are checked against the CG ground truth.
inline constexpr std::size_t kGroundTruthPairs = 32;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  ///< where the traced run writes its spans
};

/// A minimal ordered JSON object builder (numbers keep all their digits).
class Json {
 public:
  Json& Num(const std::string& key, double value);
  Json& Int(const std::string& key, std::uint64_t value);
  Json& Str(const std::string& key, const std::string& value);
  Json& Bool(const std::string& key, bool value);
  Json& Obj(const std::string& key, const Json& value);
  std::string Dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced.
struct Outcome {
  bool correct = true;
  std::vector<std::string> check_failures;
  FailureTally tally;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced
  /// run); run.py checks the names against BENCHMARK.json.
  std::vector<Metric> metrics;
  /// Everything else worth reading: sample counts, checks, layer
  /// metrics of other layers, set-up breakdown.
  Json report;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Fail(const std::string& why) {
    correct = false;
    check_failures.push_back(why);
  }
};

/// In-memory span recorder and the run's clock. Disabled, recording is
/// one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  /// Seconds since the tracer's epoch.
  double Now() const;
  double At(Clock::time_point t) const { return SecondsBetween(epoch_, t); }
  /// Records a finished span; returns its id (0 when disabled).
  std::uint64_t Record(const std::string& name, const std::string& layer,
                       double start, double end, std::uint64_t parent = 0,
                       std::uint64_t query = 0);
  /// Seconds spent inside Record so far: what tracing costs.
  double RecordSeconds() const;
  std::vector<Span> Spans() const;
  /// Writes the spans as a Chrome trace_event JSON file.
  void WriteChromeTrace(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
  double record_s_ = 0.0;
};

/// Times `fn` as one span when tracing (always returns fn's duration in
/// seconds).
double Timed(Tracer& tracer, const std::string& name, const std::string& layer,
             const std::function<void()>& fn);

/// Deterministic input generator (SplitMix64): the benchmark's inputs
/// depend only on --seed, never on the library's own generators.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  double NextDouble();  ///< uniform in [0, 1)
  std::uint64_t Below(std::uint64_t bound) { return Next() % bound; }

 private:
  std::uint64_t state_;
};

/// The synthetic stand-ins of the paper's datasets ("facebook" at scale
/// 1, "livejournal/4" at scale 1/4), built through the graph module's
/// generators and normalized to a connected, non-bipartite graph (the
/// same recipe as eval/datasets.cc).
Graph BuildStandIn(const std::string& name);

/// Nodes by descending degree, ties by ascending id.
std::vector<NodeId> DegreeRanking(const Graph& graph);

/// Zipf(exponent) over a popularity ranking (rank k has weight
/// (k+1)^-exponent); both endpoints drawn independently, t ≠ s.
class ZipfPairs {
 public:
  ZipfPairs(std::vector<NodeId> ranking, double exponent);
  QueryPair Next(InputRng& rng) const;

 private:
  NodeId Draw(InputRng& rng) const;
  std::vector<NodeId> ranking_;
  std::vector<double> cdf_;
};

/// Uniform pairs over V×V with s ≠ t.
QueryPair UniformPair(NodeId n, InputRng& rng);

/// Poisson arrival offsets (seconds) at `rate` per second in
/// [0, duration).
std::vector<double> PoissonArrivals(double rate, double duration,
                                    InputRng& rng);

/// Reports the distribution of `values` under `name`: sample count,
/// p10…p99 (each, p50 aside, only with ≥ 10 samples beyond it), max and
/// mean.
void ReportDistribution(const std::string& name,
                        const std::vector<double>& values, Json* report);

double Mean(const std::vector<double>& values);

/// Sleeps until `deadline` (no-op when already past).
void SleepUntil(Clock::time_point deadline);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Machine and build provenance for the report.
Json Fingerprint(const RunConfig& config);

/// CSR bytes of `graph` (offsets + neighbors), in MiB — computed.
double CsrMb(const Graph& graph);

/// Adds the paper's per-query cost counts (Table 1) over `stats`.
void AddCoreCostMetrics(std::span<const QueryStats> stats, Outcome* out);

/// Everything a workload hands the kernel probes: its graph, an
/// estimator to clone, its own query stream and the checked sample's
/// serial stats.
struct ProbeInputs {
  const Graph* graph = nullptr;
  const geer::ErEstimator* estimator = nullptr;
  std::span<const QueryPair> stream;
  std::span<const QueryPair> sample;
  std::span<const QueryStats> sample_stats;
  std::uint64_t seed = 1;
};

/// Runs the per-layer probes shared by every workload's traced run and
/// appends their metrics: linalg.ns_per_arc, rw.ns_per_step,
/// core.service_ms_p50/p95, engine.plan_ms, engine.groups_per_plan,
/// net.codec_ns, net.bytes_per_query, dyn.commit_ms,
/// dyn.touched_per_commit.
void RunProbes(const ProbeInputs& in, Outcome* out);

/// Appends the span-derived metrics — each replay layer's share of self
/// time over spans starting at or after `replay_start`, and the tracing
/// overhead (`record_s`, the seconds the replay's spans took to record,
/// over the replay's wall time `replay_s`) — and writes the spans to the
/// trace file.
void AddTraceMetrics(const RunConfig& config, const Tracer& tracer,
                     double replay_start, double replay_s, double record_s,
                     Outcome* out);

/// Set-up layers of the traced run: graph.build_s, graph.csr_mb,
/// linalg.lanczos_s (medians over the set-ups) and linalg.lanczos_iters.
void AddSetupLayerMetrics(const std::vector<double>& build_s,
                          const std::vector<double>& lanczos_s,
                          const Graph& graph,
                          const geer::SpectralBounds& spectral, Outcome* out);

/// Serving-tier counters of the traced run (0 where the workload does
/// not serve): serve.batch_mean, dyn.swaps.
void AddServeLayerMetrics(double batch_mean, double swaps, Outcome* out);

/// Checks answers against CG ground truth on `graph`: fails the run if
/// any |r' − r| > ε. Returns max |r' − r| / ε.
double CheckAgainstGroundTruth(const Graph& graph,
                               std::span<const QueryPair> pairs,
                               std::span<const double> values, double epsilon,
                               Outcome* out);

/// Builds a deployment kSetupRepeats times with `setup`, keeping the last
/// in `*keep`, and returns the median set-up time. Each previous
/// deployment is torn down, untimed, before the next is built.
template <typename T>
double RepeatSetup(std::unique_ptr<T>* keep,
                   const std::function<std::unique_ptr<T>()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    keep->reset();
    const auto t0 = Clock::now();
    *keep = setup();
    seconds.push_back(SecondsBetween(t0, Clock::now()));
  }
  return Median(seconds);
}

Outcome RunUniformOffline(const RunConfig& config);
Outcome RunChurnNet(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
