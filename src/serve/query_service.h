// The asynchronous serving front end: QueryService accepts single PER
// queries from any number of client threads through a non-blocking
// Submit() -> std::future<QueryResult> API and answers them through the
// batch engine (core/batch_engine.h).
//
// A deadline-aware micro-batching scheduler sits between the two: queued
// queries coalesce until the batch fills (max_batch_size), the oldest
// query has lingered long enough (max_linger_seconds), or the earliest
// per-query deadline is about to expire — then the whole micro-batch is
// planned by the estimator's BatchPlan (same-source queries land in the
// same group, sharing walk populations / SpMV iterates) and dispatched
// over the work-stealing pool. The service's worker estimators persist
// across micro-batches with their session caches enabled
// (ErEstimator::EnableSessionCache), so EXACT/CG/RP preprocessing and
// SMM/GEER per-source iterate caches amortize across the whole session,
// not one batch.
//
// Determinism contract: every answer value equals the serial
// `estimator.Estimate(s, t)` for the construction seed, bit for bit —
// regardless of worker count, micro-batch boundaries, arrival order, or
// scheduler interleaving (estimators derive each query's random stream
// from (seed, s, t); serve_determinism_test enforces this under TSan).
// What IS timing-dependent: which queries get coalesced together, the
// cost instrumentation, and which deadline-carrying queries expire.

#ifndef GEER_SERVE_QUERY_SERVICE_H_
#define GEER_SERVE_QUERY_SERVICE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/estimator.h"
#include "obs/metrics.h"
#include "serve/service_api.h"

namespace geer {

/// Deadline classes for miss accounting: expiry counts are broken down
/// by how tight the lapsed budget was, which is what an admission
/// controller needs (shedding load helps tight-deadline traffic first).
/// Classified at Submit() from the requested budget.
enum class DeadlineClass : std::uint8_t {
  kNone = 0,    ///< no deadline requested
  kTight = 1,   ///< budget < 10 ms
  kNormal = 2,  ///< 10 ms ≤ budget < 100 ms
  kLoose = 3,   ///< budget ≥ 100 ms
};
inline constexpr std::size_t kNumDeadlineClasses = 4;

DeadlineClass ClassifyDeadline(double deadline_seconds);
const char* DeadlineClassName(DeadlineClass c);

/// Scheduler and dispatch knobs for one QueryService.
struct ServeOptions {
  /// Flush as soon as this many queries are queued. 1 = no coalescing
  /// (the batch-size-1 baseline the serve bench compares against).
  std::size_t max_batch_size = 64;
  /// Flush once the oldest queued query has waited this long — the
  /// latency price of coalescing. ≤ 0 flushes as soon as the scheduler
  /// is free (load-adaptive batching: whatever queued during the
  /// previous dispatch rides together).
  double max_linger_seconds = 0.002;
  /// Scheduler worker threads for each dispatched micro-batch (engine
  /// workers; 0 = hardware concurrency). Worker 0 is the scheduler
  /// thread itself. Values are bit-identical at any count.
  int threads = 1;
  /// Backpressure: submissions beyond this many queued queries are
  /// rejected immediately (status kRejected) instead of queued.
  std::size_t max_queue = 1 << 16;
  /// Per-worker session-cache budget in bytes passed to
  /// ErEstimator::EnableSessionCache (0 disables session caches — every
  /// micro-batch then rebuilds its shared precomputation).
  std::size_t session_cache_bytes = 64ull << 20;
};

// ServeStatus and QueryResult moved to serve/service_api.h — the
// transport-neutral surface shared with the wire codec and the CLI.
// Their numeric ServeStatus values are frozen there (wire stability).

/// Aggregate counters since construction (monotone; snapshot via
/// Metrics()).
struct ServeMetrics {
  std::uint64_t submitted = 0;
  std::uint64_t answered = 0;
  std::uint64_t unsupported = 0;
  std::uint64_t expired = 0;
  std::uint64_t rejected = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t failed = 0;     ///< resolved kFailed (dispatch threw)
  std::uint64_t batches = 0;    ///< micro-batches dispatched
  std::uint64_t coalesced = 0;  ///< queries dispatched in those batches
  std::uint64_t max_batch = 0;  ///< largest micro-batch seen
  // Which trigger flushed each micro-batch.
  std::uint64_t flush_size = 0;      ///< batch filled to max_batch_size
  std::uint64_t flush_linger = 0;    ///< oldest query hit max_linger
  std::uint64_t flush_deadline = 0;  ///< earliest deadline was imminent
  std::uint64_t flush_drain = 0;     ///< explicit Flush()/Shutdown drain
  std::uint64_t flush_swap = 0;      ///< pre-swap barrier drain
  std::uint64_t epoch_swaps = 0;     ///< ApplyUpdates swaps applied
  /// RebindGraph calls across all workers that reused previous-epoch
  /// state instead of rebuilding cold (incrementally updated
  /// factor/solver, selective visit-set session retention) —
  /// summed from ErEstimator::IncrementalRebinds after every swap. The
  /// incremental-epochs tests assert this is > 0 when
  /// GraphEpoch::incremental workloads actually take the fast path.
  std::uint64_t incremental_rebinds = 0;
  /// Session cache counters summed over all workers, refreshed after
  /// every dispatched micro-batch (ErEstimator::SessionCacheStats)
  /// and from Flush() when the workers are idle — so one-shot CLI runs
  /// that end on a Flush() report final cache state.
  /// hits/misses/evictions are monotone — LruByteCache keeps them across
  /// epoch flushes; bytes/entries are current-resident gauges.
  CacheStats session_cache;
  /// kExpired results broken down by DeadlineClass (indexed by its
  /// numeric value; sums to `expired`).
  std::array<std::uint64_t, kNumDeadlineClasses> expired_by_class{};
  /// Served latency (submit → answer) of every resolved query, from the
  /// obs registry's log2-bucketed histogram — quantiles via
  /// obs::HistogramQuantile. Shares the process-wide series, so in a
  /// multi-service process it aggregates across services of the same
  /// estimator method.
  obs::HistogramData served_latency;

  /// Mean coalesced micro-batch size.
  double AvgBatch() const {
    return batches > 0
               ? static_cast<double>(coalesced) / static_cast<double>(batches)
               : 0.0;
  }
};

/// The serving front end over one estimator. The service borrows the
/// estimator exclusively for its lifetime (it becomes dispatch worker 0
/// and may carry a session cache); don't query it concurrently.
///
/// QueryService is the in-process QuerySubmitter (serve/service_api.h):
/// workload drivers written against the submitter interface run
/// unchanged over this service or a networked net::NetSubmitter.
class QueryService : public QuerySubmitter {
 public:
  explicit QueryService(ErEstimator& estimator,
                        const ServeOptions& options = {});
  ~QueryService();  // Shutdown(): drains, then joins the scheduler

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Enqueues one query; the returned future resolves when it is
  /// answered, expired, or rejected. Never blocks on query work (only on
  /// the queue mutex). `deadline_seconds` ≤ 0 = no deadline; a deadline
  /// drops the query (kExpired) if it is still QUEUED when the budget
  /// lapses, and pulls the flush forward so it usually is not — work
  /// already dispatched runs to completion and may answer late.
  /// Thread-safe: any number of client threads may submit concurrently.
  std::future<QueryResult> Submit(QueryPair query,
                                  double deadline_seconds = 0.0) override;

  /// Asks the scheduler to dispatch whatever is queued without waiting
  /// for a flush trigger. Non-blocking.
  void Flush() override;

  /// Applied to every worker estimator during an epoch swap; returns
  /// false if the estimator cannot rebind (the swap is then abandoned
  /// with nothing mutated). Built by dyn/dyn_serve.h from a committed
  /// DynamicGraph snapshot.
  using EpochRebindFn = std::function<bool(ErEstimator&)>;

  /// Schedules an atomic epoch swap — the dynamic-graph entry point.
  /// The swap is applied by the scheduler BETWEEN micro-batches, never
  /// concurrently with dispatch, with linearized barrier semantics:
  /// every query submitted before this call is dispatched on the old
  /// epoch first (their linger is cut short, as by Flush()); every query
  /// submitted after it is answered on the new epoch. In-flight work is
  /// never disturbed, so readers always see one consistent snapshot.
  ///
  /// `epoch` stamps subsequent QueryResults and keys the shared-
  /// preprocessing rebuilds (must be monotone); `keep_alive` pins the
  /// snapshot the rebinder installs for as long as the service reads it
  /// (released on the NEXT swap or at destruction). The future resolves
  /// true once every worker rebound, false if the swap was abandoned
  /// (unsupported estimator, or shutdown before application). Multiple
  /// pending swaps apply in submission order. Thread-safe. The rebinder
  /// runs while dispatch is paused, so callers derive λ before the call
  /// (dyn/dyn_serve.h's `lambda`) to keep the Lanczos run out of it.
  std::future<bool> ApplyUpdates(std::uint64_t epoch, EpochRebindFn rebind,
                                 std::shared_ptr<const void> keep_alive =
                                     nullptr);

  /// Pure earliest-deadline-first selection (exposed for the dispatch-
  /// order unit test): indices of the `take` earliest-deadline entries —
  /// time_point::max() = no deadline, ties broken by index, i.e. by
  /// arrival — in dispatch order.
  static std::vector<std::size_t> EdfOrder(
      std::span<const std::chrono::steady_clock::time_point> deadlines,
      std::size_t take);

  /// Stops accepting new queries, answers everything already queued,
  /// then stops the scheduler. Idempotent; safe from any thread.
  void Shutdown();

  /// Shutdown without the drain: queued queries resolve kCancelled and
  /// the in-flight micro-batch is cut at its next query boundary via the
  /// engine's cancellation token.
  void ShutdownNow();

  /// Counter snapshot.
  ServeMetrics Metrics() const;

  /// Dispatch workers in use (1 + clones; ≤ options.threads when the
  /// estimator is not clonable).
  int workers() const override { return static_cast<int>(workers_.size()); }

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    QueryPair query;
    std::promise<QueryResult> promise;
    Clock::time_point submitted;
    Clock::time_point deadline;  // time_point::max() = none
    std::uint64_t seq = 0;       // submission order (for swap barriers)
    DeadlineClass dclass = DeadlineClass::kNone;  // for miss accounting
  };

  /// Metric ids registered once at construction (labeled with the
  /// estimator's method name); recording through them is wait-free.
  struct ObsIds {
    obs::Registry::MetricId submitted = 0;
    obs::Registry::MetricId answered = 0;
    obs::Registry::MetricId rejected = 0;
    obs::Registry::MetricId batches = 0;
    std::array<obs::Registry::MetricId, kNumDeadlineClasses> expired{};
    obs::Registry::MetricId served_latency_ns = 0;
    obs::Registry::MetricId queue_wait_ns = 0;
    obs::Registry::MetricId epoch_swap_ns = 0;
    std::string cache_bytes_gauge;  ///< gauge name (set by name, not id)
  };

  /// One scheduled ApplyUpdates call, applied between micro-batches once
  /// every query with seq < watermark has been dispatched.
  struct PendingSwap {
    std::uint64_t epoch = 0;
    EpochRebindFn rebind;
    std::shared_ptr<const void> keep_alive;
    std::uint64_t watermark = 0;
    std::promise<bool> done;
  };

  void SchedulerLoop();
  void DispatchBatch(std::vector<Pending> batch, std::uint64_t batch_id);
  /// Pops `take` of the first `limit` queued queries in EDF order
  /// (requires mu_ held) and refreshes earliest_deadline_.
  std::vector<Pending> PopBatchLocked(std::size_t take, std::size_t limit);
  void Fulfill(Pending& p, ServeStatus status, const QueryStats& stats,
               Clock::time_point dispatched, Clock::time_point done,
               std::uint32_t batch_size, std::uint64_t batch_id) const;

  ServeOptions options_;
  ErEstimator* primary_;
  std::vector<std::unique_ptr<ErEstimator>> session_clones_;
  std::vector<ErEstimator*> workers_;  // [primary_, clones…]

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  std::deque<PendingSwap> swaps_;
  std::uint64_t next_seq_ = 0;        // submission counter
  std::uint64_t next_batch_id_ = 1;   // dispatched micro-batch counter
  /// Epoch currently served. Written only by the scheduler thread while
  /// applying a swap; read by the scheduler during dispatch.
  std::uint64_t current_epoch_ = 0;
  std::shared_ptr<const void> epoch_keep_alive_;
  /// Earliest deadline over queue_ (time_point::max() = none), maintained
  /// on push and recomputed once per batch pop — the scheduler wakes on
  /// every submission, so an O(queue) rescan per wakeup would be
  /// quadratic under load.
  std::chrono::steady_clock::time_point earliest_deadline_ =
      std::chrono::steady_clock::time_point::max();
  bool flush_requested_ = false;
  bool shutdown_ = false;
  /// True while the scheduler runs worker estimators outside mu_
  /// (dispatch or epoch rebind). Flush() reads cache stats from the
  /// estimators only when this is false — they are not thread-safe.
  bool workers_busy_ = false;
  ServeMetrics metrics_;
  ObsIds obs_;

  std::atomic<bool> cancel_{false};  // engine token for ShutdownNow()

  std::mutex lifecycle_mu_;  // serializes the scheduler join
  std::thread scheduler_;
};

}  // namespace geer

#endif  // GEER_SERVE_QUERY_SERVICE_H_
