// Self-test of the benchmark's own aggregation (src/aggregate.h): the
// percentile reporting rule, latency timed from due time under a
// synthetic stall, failure accounting and per-layer self time. run.py
// runs it before every benchmark run; a failure stops the run.

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "aggregate.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,    \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

bool Near(double a, double b) { return std::abs(a - b) < 1e-9; }

template <typename F>
bool Throws(F&& f) {
  try {
    f();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

using namespace perfbench;

void PercentileRule() {
  // Nearest rank: p99 of 1..1000 is the 990th value, with 10 beyond it.
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT(Near(Percentile(v, 0.99), 990));
  EXPECT(Near(Median(v), 500));
  EXPECT(SamplesBeyond(1000, 0.99) == 10);
  EXPECT(PercentileReportable(1000, 0.99));
  // 999 samples leave only 9 beyond p99: not reportable, and asking for
  // it is an error rather than a silently noisy number.
  v.pop_back();
  EXPECT(SamplesBeyond(999, 0.99) == 9);
  EXPECT(!PercentileReportable(999, 0.99));
  EXPECT(Throws([&] { ReportablePercentile(v, 0.99, "p99"); }));
  EXPECT(PercentileReportable(200, 0.95));
  EXPECT(!PercentileReportable(199, 0.95));
  EXPECT(!PercentileReportable(0, 0.5));
  EXPECT(Near(Percentile({}, 0.5), 0.0));
  // Order does not matter.
  EXPECT(Near(Percentile({5, 1, 4, 2, 3}, 0.5), 3));
}

void DueTimeLatencyUnderStall() {
  // Requests due every 1 ms; the server stalls from t = 2 ms to 12 ms,
  // and the generator, blocked behind it, sends requests 2..11 only when
  // the stall ends. Each answer takes 0.5 ms once sent.
  std::vector<double> due, sent, done;
  for (int i = 0; i < 20; ++i) {
    due.push_back(i);
    sent.push_back((i >= 2 && i < 12) ? 12.0 : i);
    done.push_back(sent.back() + 0.5);
  }
  const std::vector<double> from_due = DueTimeLatencies(due, done);
  const std::vector<double> from_send = DueTimeLatencies(sent, done);
  // Timed from sending, the stall is invisible: every request took 0.5.
  EXPECT(Near(Percentile(from_send, 0.99), 0.5));
  // Timed from due time, request 2 waited the whole stall.
  EXPECT(Near(from_due[2], 10.5));
  EXPECT(Near(from_due[11], 1.5));
  EXPECT(Near(Percentile(from_due, 0.99), 10.5));
  EXPECT(Near(Percentile(from_due, 0.9), 8.5));
  EXPECT(Near(Median(from_due), 0.5));  // half the requests never waited
  EXPECT(Throws([&] { DueTimeLatencies(due, std::vector<double>(3)); }));
}

void FailedShareAccounting() {
  FailureTally tally;
  EXPECT(Throws([&] { tally.FailedShare(); }));  // nothing attempted
  for (int i = 0; i < 97; ++i) tally.Add(true);
  for (int i = 0; i < 3; ++i) tally.Add(false);
  EXPECT(tally.attempted == 100);
  EXPECT(tally.answered == 97);
  EXPECT(tally.failed() == 3);
  EXPECT(Near(tally.FailedShare(), 0.03));
}

void SelfTime() {
  // root [0,10] with children [1,4] and [3,6] (overlapping: covered 1..6)
  // and a child [8,12] clipped to the root's end; a grandchild [2,3].
  std::vector<Span> spans = {
      {1, 0, 1, "root", "client", 0, 10}, {2, 1, 1, "a", "net", 1, 4},
      {3, 1, 1, "b", "serve", 3, 6},     {4, 1, 1, "c", "net", 8, 12},
      {5, 2, 1, "d", "serve", 2, 3},
  };
  const auto self = SelfTimeByLayer(spans);
  EXPECT(Near(self.at("client"), 10 - 5 - 2));
  EXPECT(Near(self.at("net"), (3 - 1) + 4));  // a minus d, plus c
  EXPECT(Near(self.at("serve"), 3 + 1));
}

}  // namespace

int main() {
  PercentileRule();
  DueTimeLatencyUnderStall();
  FailedShareAccounting();
  SelfTime();
  if (g_failures != 0) {
    std::fprintf(stderr, "aggregate_test: %d failure(s)\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "aggregate_test: all checks passed\n");
  return 0;
}
