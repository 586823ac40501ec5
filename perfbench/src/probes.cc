// Per-layer probes of the traced run. Each calls one layer's public
// functions directly on the workload's own graph, pairs and frames, so
// the layer's unit cost is measured on every workload, including those
// whose replay leaves the layer idle.

#include <filesystem>
#include <memory>

#include "bench.h"
#include "core/batch_engine.h"
#include "dyn/dynamic_graph.h"
#include "linalg/transition.h"
#include "net/codec.h"
#include "net/frame.h"
#include "rw/rng.h"
#include "rw/walker.h"

namespace perfbench {
namespace {

constexpr double kProbeSeconds = 0.25;
constexpr std::size_t kServiceProbeQueries = 200;
constexpr std::size_t kPlanChunk = 64;
constexpr std::size_t kPlanChunks = 20;
constexpr int kCommitRounds = 5;
constexpr std::size_t kUpdatesPerCommit = 16;

/// Repeats `body` (a fixed amount of work) until kProbeSeconds passed and
/// returns the median repetition's seconds, which a passing slowdown of
/// the machine does not move.
template <typename F>
double MedianRepetition(F&& body) {
  const auto start = Clock::now();
  std::vector<double> seconds;
  do {
    const auto t0 = Clock::now();
    body();
    seconds.push_back(SecondsBetween(t0, Clock::now()));
  } while (SecondsBetween(start, Clock::now()) < kProbeSeconds);
  return Median(seconds);
}

void ProbeTransition(const Graph& graph, Outcome* out) {
  geer::TransitionOperator op(graph);
  geer::Vector x(graph.NumNodes(), 1.0 / graph.NumNodes());
  geer::Vector y;
  const double seconds = MedianRepetition([&] {
    op.ApplyDense(x, &y);
    x.swap(y);
  });
  out->Add("linalg.ns_per_arc", seconds * 1e9 / graph.NumArcs(), "ns");
}

void ProbeWalks(const ProbeInputs& in, Outcome* out) {
  // AMC's walks for each sampled pair: length-ℓ walks from both
  // endpoints, ℓ as GEER chose it for that pair.
  geer::Walker walker(*in.graph);
  geer::Rng rng(in.seed);
  std::uint64_t steps = 0;
  for (const QueryStats& s : in.sample_stats) {
    steps += 2ull * std::max<std::uint32_t>(s.ell, 1);
  }
  NodeId sink = 0;
  const double seconds = MedianRepetition([&] {
    for (std::size_t i = 0; i < in.sample.size(); ++i) {
      const std::uint32_t ell = std::max<std::uint32_t>(
          in.sample_stats[i].ell, 1);
      sink ^= walker.WalkEndpoint(in.sample[i].s, ell, rng);
      sink ^= walker.WalkEndpoint(in.sample[i].t, ell, rng);
    }
  });
  volatile NodeId keep = sink;  // the walks' result must be observable
  (void)keep;
  out->Add("rw.ns_per_step", seconds * 1e9 / static_cast<double>(steps), "ns");
}

void ProbeService(const ProbeInputs& in, Outcome* out) {
  // One query per SubmitGroup call on a fresh clone: the estimator's
  // per-query service time with no sharing and no session cache.
  std::unique_ptr<geer::ErEstimator> clone = in.estimator->CloneForBatch();
  std::vector<double> ms;
  for (std::size_t i = 0; i < kServiceProbeQueries; ++i) {
    QueryStats stats;
    const auto t0 = Clock::now();
    geer::SubmitGroup(*clone, in.stream.subspan(i % in.stream.size(), 1),
                      {&stats, 1});
    ms.push_back(SecondsBetween(t0, Clock::now()) * 1e3);
  }
  out->Add("core.service_ms_p50", Median(ms), "ms");
  out->Add("core.service_ms_p95",
           ReportablePercentile(ms, 0.95, "core.service_ms_p95"), "ms");
  out->report.Int("core.service_ms_samples", ms.size());
}

void ProbePlan(const ProbeInputs& in, Outcome* out) {
  std::vector<double> ms;
  double groups = 0.0;
  for (std::size_t c = 0; c < kPlanChunks; ++c) {
    const std::size_t begin = c * kPlanChunk;
    if (begin + kPlanChunk > in.stream.size()) break;
    const auto t0 = Clock::now();
    const geer::BatchPlan plan =
        in.estimator->PlanBatch(in.stream.subspan(begin, kPlanChunk));
    ms.push_back(SecondsBetween(t0, Clock::now()) * 1e3);
    groups += static_cast<double>(plan.NumGroups());
  }
  out->Add("engine.plan_ms", Median(ms), "ms");
  out->Add("engine.groups_per_plan", groups / static_cast<double>(ms.size()),
           "count");
}

void ProbeCodec(const ProbeInputs& in, Outcome* out) {
  // One query's wire round trip: request and reply frames encoded,
  // reassembled and decoded, as a client and a shard do them.
  namespace net = geer::net;
  net::FrameReader server_side;
  net::FrameReader client_side;
  net::Frame frame;
  std::uint64_t request_id = 0;
  std::size_t bytes = 0;
  bool ok = true;
  const double seconds = MedianRepetition([&] {
    for (std::size_t i = 0; i < in.sample.size(); ++i) {
      geer::ServiceRequest request;
      request.s = in.sample[i].s;
      request.t = in.sample[i].t;
      const auto req_bytes = net::EncodeFrame(
          net::FrameType::kQuery, ++request_id,
          net::EncodeServiceRequest(request));
      server_side.Feed(req_bytes);
      geer::ServiceRequest decoded;
      ok &= server_side.Next(&frame) == net::FrameReader::Status::kFrame &&
            net::DecodeServiceRequest(frame.payload, &decoded);
      geer::ServiceResponse response;
      response.status = 0;
      response.value = in.sample_stats[i].value;
      const auto reply_bytes = net::EncodeFrame(
          net::FrameType::kQueryReply, frame.request_id,
          net::EncodeServiceResponse(response));
      client_side.Feed(reply_bytes);
      geer::ServiceResponse reply;
      ok &= client_side.Next(&frame) == net::FrameReader::Status::kFrame &&
            net::DecodeServiceResponse(frame.payload, &reply) &&
            reply.value == response.value;
      bytes = req_bytes.size() + reply_bytes.size();
    }
  });
  if (!ok) out->Fail("codec probe: a frame did not round-trip");
  out->Add("net.codec_ns",
           seconds * 1e9 / static_cast<double>(in.sample.size()), "ns");
  out->Add("net.bytes_per_query", static_cast<double>(bytes), "B");
}

void ProbeCommit(const ProbeInputs& in, Outcome* out) {
  geer::DynamicGraph mirror(Graph(*in.graph));
  geer::UpdateGenerator generator(mirror, in.seed);
  std::vector<double> commit_ms;
  double touched = 0.0;
  for (int round = 0; round < kCommitRounds; ++round) {
    for (const auto& op : generator.NextBatch(kUpdatesPerCommit)) {
      mirror.Apply(op);
    }
    const auto t0 = Clock::now();
    const auto snapshot = mirror.Commit();
    commit_ms.push_back(SecondsBetween(t0, Clock::now()) * 1e3);
    touched += static_cast<double>(snapshot->touched.size());
  }
  out->Add("dyn.commit_ms", Median(commit_ms), "ms");
  out->Add("dyn.touched_per_commit", touched / kCommitRounds, "count");
}

}  // namespace

void AddSetupLayerMetrics(const std::vector<double>& build_s,
                          const std::vector<double>& lanczos_s,
                          const Graph& graph,
                          const geer::SpectralBounds& spectral, Outcome* out) {
  out->Add("graph.build_s", Median(build_s), "s");
  out->Add("graph.csr_mb", CsrMb(graph), "MiB");
  out->Add("linalg.lanczos_s", Median(lanczos_s), "s");
  out->Add("linalg.lanczos_iters", spectral.lanczos_iterations, "count");
}

void AddServeLayerMetrics(double batch_mean, double swaps, Outcome* out) {
  out->Add("serve.batch_mean", batch_mean, "count");
  out->Add("dyn.swaps", swaps, "count");
}

void RunProbes(const ProbeInputs& in, Outcome* out) {
  ProbeTransition(*in.graph, out);
  ProbeWalks(in, out);
  ProbeService(in, out);
  ProbePlan(in, out);
  ProbeCodec(in, out);
  ProbeCommit(in, out);
}

void AddTraceMetrics(const RunConfig& config, const Tracer& tracer,
                     double replay_start, double replay_s, double record_s,
                     Outcome* out) {
  const std::vector<Span> spans = tracer.Spans();
  std::vector<Span> replay;
  for (const Span& s : spans) {
    if (s.start >= replay_start) replay.push_back(s);
  }
  const auto self = SelfTimeByLayer(replay);
  double total = 0.0;
  for (const auto& [layer, seconds] : self) total += seconds;
  Json self_s;
  for (const auto& [layer, seconds] : SelfTimeByLayer(spans)) {
    self_s.Num(layer, seconds);
  }
  out->report.Obj("self_s", self_s);
  out->report.Int("spans", spans.size());
  for (const char* layer :
       {"gen", "net", "serve", "engine", "core", "dyn"}) {
    const auto it = self.find(layer);
    const double share =
        (it == self.end() || total <= 0.0) ? 0.0 : it->second / total;
    out->Add(std::string("self.") + layer + "_share", share, "share");
  }
  out->Add("trace.overhead_share", record_s / replay_s, "share");
  out->report.Num("trace.record_s", record_s);

  std::filesystem::create_directories(config.trace_dir);
  const std::string path = config.trace_dir + "/" + config.workload +
                           "-seed" + std::to_string(config.seed) + ".json";
  tracer.WriteChromeTrace(path);
  out->report.Str("trace_file", path);
}

}  // namespace perfbench
