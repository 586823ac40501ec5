// Pure aggregation rules of the benchmark, kept free of I/O and of the
// library under test so tests/aggregate_test.cc can pin them down:
// percentiles and the rule for which percentile may be reported,
// latency timed from each request's due time, failure accounting, and
// per-layer self time from nested spans.

#ifndef PERFBENCH_AGGREGATE_H_
#define PERFBENCH_AGGREGATE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// Rank (1-based) of the nearest-rank q-th percentile of n samples.
inline std::size_t PercentileRank(std::size_t n, double q) {
  if (n == 0) return 0;
  const double rank = std::ceil(q * static_cast<double>(n));
  return static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(n)));
}

/// Samples ranked after the q-th percentile.
inline std::size_t SamplesBeyond(std::size_t n, double q) {
  return n - PercentileRank(n, q);
}

/// A percentile is reported only when at least ten samples lie beyond
/// it; with fewer, the value is set by a handful of outliers.
inline bool PercentileReportable(std::size_t n, double q) {
  return n > 0 && SamplesBeyond(n, q) >= 10;
}

/// Nearest-rank percentile of an unsorted sample (0 when empty).
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t rank = PercentileRank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + (rank - 1),
                   values.end());
  return values[rank - 1];
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Like Percentile, but throws when the sample cannot support q.
inline double ReportablePercentile(const std::vector<double>& values,
                                   double q, const std::string& what) {
  if (!PercentileReportable(values.size(), q)) {
    throw std::runtime_error(what + ": " + std::to_string(values.size()) +
                             " samples leave fewer than 10 beyond p" +
                             std::to_string(q * 100.0));
  }
  return Percentile(values, q);
}

/// Open-loop latency: each request is timed from when it was DUE to be
/// sent, not from when the generator got round to sending it, so a
/// stall charges its wait to every request scheduled behind it.
inline std::vector<double> DueTimeLatencies(std::span<const double> due,
                                            std::span<const double> done) {
  if (due.size() != done.size()) {
    throw std::invalid_argument("due/done sizes differ");
  }
  std::vector<double> out(due.size());
  for (std::size_t i = 0; i < due.size(); ++i) out[i] = done[i] - due[i];
  return out;
}

/// Requests that got no answer, counted against those attempted.
struct FailureTally {
  std::uint64_t attempted = 0;
  std::uint64_t answered = 0;

  void Add(bool was_answered) {
    ++attempted;
    if (was_answered) ++answered;
  }
  std::uint64_t failed() const { return attempted - answered; }
  /// failed ÷ attempted; a run that attempted nothing is an error, not
  /// a perfect score.
  double FailedShare() const {
    if (attempted == 0) throw std::logic_error("no request attempted");
    return static_cast<double>(failed()) / static_cast<double>(attempted);
  }
};

/// One timed interval recorded by the benchmark around a call into a
/// layer. `parent` is the id of the enclosing span (0 = root); spans of
/// one query share `query`.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t query = 0;
  std::string name;
  std::string layer;
  double start = 0.0;  ///< seconds since the run's epoch
  double end = 0.0;
};

/// Self time per layer: each span's duration minus the part of its
/// interval that its children cover (children clipped to the parent;
/// overlapping children counted once).
inline std::map<std::string, double> SelfTimeByLayer(
    std::span<const Span> spans) {
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cursor = s.start;
      for (const auto& [a, b] : iv) {
        const double lo = std::max(a, cursor);
        const double hi = std::min(b, s.end);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
    }
    self[s.layer] += std::max(0.0, (s.end - s.start) - covered);
  }
  return self;
}

}  // namespace perfbench

#endif  // PERFBENCH_AGGREGATE_H_
