#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "eval/ground_truth.h"
#include "graph/algorithms.h"
#include "graph/generators.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (in) std::getline(in, line);
  return line;
}

}  // namespace

// --------------------------------------------------------------------------
// Json

Json& Json::Num(const std::string& key, double value) {
  if (!std::isfinite(value)) {
    fields_.emplace_back(key, "null");
    return *this;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  fields_.emplace_back(key, buf);
  return *this;
}

Json& Json::Int(const std::string& key, std::uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

Json& Json::Str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, Quote(value));
  return *this;
}

Json& Json::Bool(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

Json& Json::Obj(const std::string& key, const Json& value) {
  fields_.emplace_back(key, value.Dump());
  return *this;
}

std::string Json::Dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

// --------------------------------------------------------------------------
// Tracer

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

double Tracer::Now() const { return SecondsBetween(epoch_, Clock::now()); }

std::uint64_t Tracer::Record(const std::string& name, const std::string& layer,
                             double start, double end, std::uint64_t parent,
                             std::uint64_t query) {
  if (!enabled_) return 0;
  const auto t0 = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = next_id_++;
  spans_.push_back({id, parent, query, name, layer, start, end});
  record_s_ += SecondsBetween(t0, Clock::now());
  return id;
}

double Tracer::RecordSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return record_s_;
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const Span& s : Spans()) {
    if (!first) out << ",\n";
    first = false;
    Json args;
    args.Int("id", s.id).Int("parent", s.parent).Int("query", s.query);
    Json ev;
    ev.Str("name", s.name)
        .Str("cat", s.layer)
        .Str("ph", "X")
        .Num("ts", s.start * 1e6)
        .Num("dur", (s.end - s.start) * 1e6)
        .Int("pid", 1)
        .Int("tid", s.query)
        .Obj("args", args);
    out << ev.Dump();
  }
  out << "]}\n";
}

double Timed(Tracer& tracer, const std::string& name, const std::string& layer,
             const std::function<void()>& fn) {
  const double start = tracer.Now();
  fn();
  const double end = tracer.Now();
  tracer.Record(name, layer, start, end);
  return end - start;
}

// --------------------------------------------------------------------------
// Inputs

std::uint64_t InputRng::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double InputRng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

Graph BuildStandIn(const std::string& name) {
  Graph g;
  if (name == "livejournal/4") {
    // R-MAT scale 16 − 2: scale 1/4, as eval/datasets.cc scales it.
    g = geer::gen::RMat(14, 9, /*seed=*/0x15);
  } else if (name == "facebook") {
    g = geer::gen::BarabasiAlbert(4000, 22, /*seed=*/0xFB);
  } else {
    throw std::invalid_argument("unknown stand-in " + name);
  }
  if (!geer::IsConnected(g)) g = geer::LargestConnectedComponent(g);
  if (geer::IsBipartite(g)) g = geer::EnsureNonBipartite(g);
  return g;
}

std::vector<NodeId> DegreeRanking(const Graph& graph) {
  std::vector<NodeId> order(graph.NumNodes());
  std::iota(order.begin(), order.end(), NodeId{0});
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return graph.Degree(a) > graph.Degree(b);
  });
  return order;
}

ZipfPairs::ZipfPairs(std::vector<NodeId> ranking, double exponent)
    : ranking_(std::move(ranking)), cdf_(ranking_.size()) {
  double total = 0.0;
  for (std::size_t k = 0; k < ranking_.size(); ++k) {
    total += std::pow(static_cast<double>(k + 1), -exponent);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

NodeId ZipfPairs::Draw(InputRng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const std::size_t k = std::min<std::size_t>(it - cdf_.begin(),
                                              ranking_.size() - 1);
  return ranking_[k];
}

QueryPair ZipfPairs::Next(InputRng& rng) const {
  const NodeId s = Draw(rng);
  NodeId t = Draw(rng);
  while (t == s) t = Draw(rng);
  return {s, t};
}

QueryPair UniformPair(NodeId n, InputRng& rng) {
  const NodeId s = static_cast<NodeId>(rng.Below(n));
  NodeId t = static_cast<NodeId>(rng.Below(n));
  while (t == s) t = static_cast<NodeId>(rng.Below(n));
  return {s, t};
}

std::vector<double> PoissonArrivals(double rate, double duration,
                                    InputRng& rng) {
  std::vector<double> out;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= duration) return out;
    out.push_back(t);
  }
}

void ReportDistribution(const std::string& name,
                        const std::vector<double>& values, Json* report) {
  Json d;
  d.Int("samples", values.size());
  static constexpr std::pair<const char*, double> kPercentiles[] = {
      {"p10", 0.10}, {"p25", 0.25}, {"p50", 0.50}, {"p75", 0.75},
      {"p90", 0.90}, {"p95", 0.95}, {"p99", 0.99}};
  for (const auto& [key, q] : kPercentiles) {
    if (q == 0.5 || PercentileReportable(values.size(), q)) {
      d.Num(key, Percentile(values, q));
    }
  }
  if (!values.empty()) {
    d.Num("max", *std::max_element(values.begin(), values.end()));
    d.Num("mean", Mean(values));
  }
  report->Obj(name, d);
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

void SleepUntil(Clock::time_point deadline) {
  if (Clock::now() < deadline) std::this_thread::sleep_until(deadline);
}

// --------------------------------------------------------------------------
// Machine

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MiB
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

Json Fingerprint(const RunConfig& config) {
  Json fp;
  fp.Int("nproc", static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  std::string model = "unknown";
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        model = line.substr(line.find(':') + 2);
        break;
      }
    }
  }
  fp.Str("cpu_model", model);
  const std::string cache = "/sys/devices/system/cpu/cpu0/cache/";
  for (int index = 0; index < 8; ++index) {
    const std::string dir = cache + "index" + std::to_string(index) + "/";
    const std::string level = ReadFirstLine(dir + "level");
    const std::string type = ReadFirstLine(dir + "type");
    if (level.empty()) break;
    if (type == "Instruction") continue;
    fp.Str("l" + level + "_size", ReadFirstLine(dir + "size"));
  }
  const std::string governor = ReadFirstLine(
      "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  fp.Str("governor", governor.empty() ? "unreadable" : governor);
  fp.Str("compiler", __VERSION__);
  fp.Str("cxx_flags", PERFBENCH_CXX_FLAGS);
  fp.Str("build_type", PERFBENCH_BUILD_TYPE);
  fp.Int("seed", config.seed);
  fp.Num("seconds", config.seconds);
  fp.Int("setup_repeats", kSetupRepeats);
  return fp;
}

double CsrMb(const Graph& graph) {
  const double bytes =
      static_cast<double>(graph.Offsets().size() * sizeof(std::uint64_t)) +
      static_cast<double>(graph.NumArcs() * sizeof(NodeId));
  return bytes / (1024.0 * 1024.0);
}

// --------------------------------------------------------------------------
// Checks and cost counts

double CheckAgainstGroundTruth(const Graph& graph,
                               std::span<const QueryPair> pairs,
                               std::span<const double> values, double epsilon,
                               Outcome* out) {
  const std::vector<QueryPair> queries(pairs.begin(), pairs.end());
  const std::vector<double> truth =
      geer::GroundTruthCg(graph, queries, /*num_threads=*/2);
  double worst = 0.0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const double err = std::abs(values[i] - truth[i]);
    worst = std::max(worst, err / epsilon);
    if (err > epsilon) {
      std::ostringstream why;
      why << "|r'-r| = " << err << " > eps = " << epsilon << " at ("
          << queries[i].s << "," << queries[i].t << ")";
      out->Fail(why.str());
    }
  }
  return worst;
}

void AddCoreCostMetrics(std::span<const QueryStats> stats, Outcome* out) {
  double walks = 0, steps = 0, arcs = 0, ell = 0, ell_b = 0, early = 0,
         truncated = 0;
  for (const QueryStats& s : stats) {
    walks += static_cast<double>(s.walks);
    steps += static_cast<double>(s.walk_steps);
    arcs += static_cast<double>(s.spmv_ops);
    ell += s.ell;
    ell_b += s.ell_b;
    early += s.early_stop ? 1 : 0;
    truncated += s.truncated ? 1 : 0;
  }
  const double n = static_cast<double>(std::max<std::size_t>(stats.size(), 1));
  out->Add("core.walks_per_q", walks / n, "count");
  out->Add("core.walk_steps_per_q", steps / n, "count");
  out->Add("core.spmv_arcs_per_q", arcs / n, "count");
  out->Add("core.ell_mean", ell / n, "count");
  out->Add("core.ell_b_mean", ell_b / n, "count");
  out->Add("core.early_stop_share", early / n, "share");
  out->Add("core.truncated_share", truncated / n, "share");
}

}  // namespace perfbench
