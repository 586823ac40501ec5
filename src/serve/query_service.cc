#include "serve/query_service.h"

#include <algorithm>
#include <span>
#include <utility>

#include "core/batch_engine.h"
#include "obs/trace.h"
#include "util/check.h"

namespace geer {
namespace {

using MillisD = std::chrono::duration<double, std::milli>;

std::chrono::steady_clock::duration SecondsToDuration(double seconds) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(seconds));
}

std::uint64_t ToNs(std::chrono::steady_clock::duration d) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(d);
  return ns.count() > 0 ? static_cast<std::uint64_t>(ns.count()) : 0;
}

/// steady_clock time_point on obs::NowNs()'s axis (same clock).
std::uint64_t ToNs(std::chrono::steady_clock::time_point t) {
  return ToNs(t.time_since_epoch());
}

}  // namespace

DeadlineClass ClassifyDeadline(double deadline_seconds) {
  if (deadline_seconds <= 0.0) return DeadlineClass::kNone;
  if (deadline_seconds < 0.010) return DeadlineClass::kTight;
  if (deadline_seconds < 0.100) return DeadlineClass::kNormal;
  return DeadlineClass::kLoose;
}

const char* DeadlineClassName(DeadlineClass c) {
  switch (c) {
    case DeadlineClass::kNone: return "none";
    case DeadlineClass::kTight: return "tight";
    case DeadlineClass::kNormal: return "normal";
    case DeadlineClass::kLoose: return "loose";
  }
  return "?";
}

QueryService::QueryService(ErEstimator& estimator,
                           const ServeOptions& options)
    : options_(options), primary_(&estimator) {
  if (options_.max_batch_size == 0) options_.max_batch_size = 1;
  int requested = options_.threads;
  if (requested <= 0) {
    requested = static_cast<int>(std::thread::hardware_concurrency());
  }
  if (requested < 1) requested = 1;
  workers_.push_back(primary_);
  // Non-clonable estimators degrade to a single worker, exactly like the
  // one-shot engine path.
  for (int w = 1; w < requested; ++w) {
    std::unique_ptr<ErEstimator> clone = primary_->CloneForBatch();
    if (clone == nullptr) break;
    workers_.push_back(clone.get());
    session_clones_.push_back(std::move(clone));
  }
  if (options_.session_cache_bytes > 0) {
    for (ErEstimator* worker : workers_) {
      worker->EnableSessionCache(options_.session_cache_bytes);
    }
  }
  {
    // One registration per method label; re-construction over the same
    // method reuses the process-wide series (registration is idempotent).
    obs::Registry& reg = obs::Registry::Global();
    const std::string method = "{method=\"" + primary_->Name() + "\"}";
    obs_.submitted = reg.Counter("geer_serve_submitted_total" + method);
    obs_.answered = reg.Counter("geer_serve_answered_total" + method);
    obs_.rejected = reg.Counter("geer_serve_rejected_total" + method);
    obs_.batches = reg.Counter("geer_serve_batches_total" + method);
    for (std::size_t c = 0; c < kNumDeadlineClasses; ++c) {
      obs_.expired[c] = reg.Counter(
          "geer_serve_expired_total{method=\"" + primary_->Name() +
          "\",class=\"" +
          DeadlineClassName(static_cast<DeadlineClass>(c)) + "\"}");
    }
    obs_.served_latency_ns = reg.Histogram("geer_serve_latency_ns" + method);
    obs_.queue_wait_ns = reg.Histogram("geer_serve_queue_wait_ns" + method);
    obs_.epoch_swap_ns = reg.Histogram("geer_serve_epoch_swap_ns" + method);
    obs_.cache_bytes_gauge = "geer_serve_session_cache_bytes" + method;
  }
  scheduler_ = std::thread(&QueryService::SchedulerLoop, this);
}

QueryService::~QueryService() { Shutdown(); }

std::future<QueryResult> QueryService::Submit(QueryPair query,
                                              double deadline_seconds) {
  std::promise<QueryResult> promise;
  std::future<QueryResult> future = promise.get_future();
  const Clock::time_point now = Clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      QueryResult result;
      result.status = ServeStatus::kShutdown;
      promise.set_value(result);
      return future;
    }
    if (queue_.size() >= options_.max_queue) {
      ++metrics_.rejected;
      obs::Registry::Global().Add(obs_.rejected);
      QueryResult result;
      result.status = ServeStatus::kRejected;
      promise.set_value(result);
      return future;
    }
    ++metrics_.submitted;
    obs::Registry::Global().Add(obs_.submitted);
    Pending pending;
    pending.query = query;
    pending.promise = std::move(promise);
    pending.submitted = now;
    pending.deadline = deadline_seconds > 0.0
                           ? now + SecondsToDuration(deadline_seconds)
                           : Clock::time_point::max();
    pending.dclass = ClassifyDeadline(deadline_seconds);
    pending.seq = next_seq_++;
    earliest_deadline_ = std::min(earliest_deadline_, pending.deadline);
    queue_.push_back(std::move(pending));
  }
  cv_.notify_one();
  return future;
}

void QueryService::Flush() {
  bool notify = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Publish final cache state: dispatch/swap refresh these counters
    // too, but a one-shot run whose LAST action touched the caches (an
    // epoch swap flush) would otherwise report stale numbers. Safe only
    // while the scheduler is not running the worker estimators (they are
    // not thread-safe).
    if (!workers_busy_) {
      metrics_.session_cache = CacheStats{};
      for (const ErEstimator* worker : workers_) {
        metrics_.session_cache += worker->SessionCacheStats();
      }
      obs::Registry::Global().SetGauge(
          obs_.cache_bytes_gauge,
          static_cast<double>(metrics_.session_cache.bytes));
    }
    if (!queue_.empty()) {  // a stale flag would drain the NEXT arrival
      flush_requested_ = true;  // uncoalesced
      notify = true;
    }
  }
  if (notify) cv_.notify_one();
}

std::future<bool> QueryService::ApplyUpdates(
    std::uint64_t epoch, EpochRebindFn rebind,
    std::shared_ptr<const void> keep_alive) {
  GEER_CHECK(rebind != nullptr);
  PendingSwap swap;
  swap.epoch = epoch;
  swap.rebind = std::move(rebind);
  swap.keep_alive = std::move(keep_alive);
  std::future<bool> future = swap.done.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      swap.done.set_value(false);
      return future;
    }
    // Barrier: everything submitted so far dispatches on the old epoch
    // before this swap applies.
    swap.watermark = next_seq_;
    swaps_.push_back(std::move(swap));
  }
  cv_.notify_one();
  return future;
}

void QueryService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  std::lock_guard<std::mutex> join_lock(lifecycle_mu_);
  if (scheduler_.joinable()) scheduler_.join();
}

void QueryService::ShutdownNow() {
  cancel_.store(true, std::memory_order_relaxed);
  Shutdown();
}

ServeMetrics QueryService::Metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServeMetrics snapshot = metrics_;
  snapshot.served_latency =
      obs::Registry::Global().ReadHistogram(obs_.served_latency_ns);
  return snapshot;
}

std::vector<std::size_t> QueryService::EdfOrder(
    std::span<const std::chrono::steady_clock::time_point> deadlines,
    std::size_t take) {
  std::vector<std::size_t> order(deadlines.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const auto earlier = [&deadlines](std::size_t a, std::size_t b) {
    if (deadlines[a] != deadlines[b]) return deadlines[a] < deadlines[b];
    return a < b;  // arrival order among equal deadlines
  };
  // Select-then-sort: O(n + take log take), not a full O(n log n) sort —
  // under deadline pressure this runs per micro-batch over the whole
  // backlog. The comparator is a total order, so the result equals the
  // full sort's prefix.
  if (order.size() > take) {
    std::nth_element(order.begin(),
                     order.begin() + static_cast<std::ptrdiff_t>(take),
                     order.end(), earlier);
    order.resize(take);
  }
  std::sort(order.begin(), order.end(), earlier);
  return order;
}

std::vector<QueryService::Pending> QueryService::PopBatchLocked(
    std::size_t take, std::size_t limit) {
  limit = std::min(limit, queue_.size());
  take = std::min(take, limit);
  // Fast path: with no deadline anywhere in the queue, EDF order IS
  // arrival order — pop the front without the selection machinery (the
  // common high-qps case; per-dispatch allocations would dominate
  // microsecond queries).
  if (earliest_deadline_ == Clock::time_point::max()) {
    std::vector<Pending> batch;
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    return batch;  // earliest_deadline_ is already ::max()
  }
  std::vector<Clock::time_point> deadlines;
  deadlines.reserve(limit);
  for (std::size_t i = 0; i < limit; ++i) {
    deadlines.push_back(queue_[i].deadline);
  }
  const std::vector<std::size_t> order =
      EdfOrder(std::span<const Clock::time_point>(deadlines), take);

  std::vector<Pending> batch;
  batch.reserve(order.size());
  std::vector<char> selected(limit, 0);
  for (const std::size_t idx : order) {
    batch.push_back(std::move(queue_[idx]));
    selected[idx] = 1;
  }
  std::deque<Pending> remaining;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (i < limit && selected[i] != 0) continue;
    remaining.push_back(std::move(queue_[i]));
  }
  queue_ = std::move(remaining);
  earliest_deadline_ = Clock::time_point::max();
  for (const Pending& p : queue_) {
    earliest_deadline_ = std::min(earliest_deadline_, p.deadline);
  }
  return batch;
}

void QueryService::SchedulerLoop() {
  const Clock::duration linger =
      SecondsToDuration(std::max(options_.max_linger_seconds, 0.0));
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (cancel_.load(std::memory_order_relaxed) &&
        (!queue_.empty() || !swaps_.empty())) {
      // ShutdownNow(): drop the queue and abandon pending swaps.
      std::vector<Pending> dropped(std::make_move_iterator(queue_.begin()),
                                   std::make_move_iterator(queue_.end()));
      queue_.clear();
      earliest_deadline_ = Clock::time_point::max();
      metrics_.cancelled += dropped.size();
      std::deque<PendingSwap> abandoned = std::move(swaps_);
      swaps_.clear();
      lock.unlock();
      const Clock::time_point now = Clock::now();
      for (Pending& p : dropped) {
        Fulfill(p, ServeStatus::kCancelled, QueryStats{}, now, now, 0, 0);
      }
      for (PendingSwap& swap : abandoned) swap.done.set_value(false);
      lock.lock();
      continue;
    }

    // A pending epoch swap acts as a barrier: drain every pre-watermark
    // query now (no lingering — the writer is waiting), then rebind all
    // workers between micro-batches.
    if (!swaps_.empty()) {
      const std::uint64_t watermark = swaps_.front().watermark;
      std::size_t dispatchable = 0;
      // queue_ is submission-ordered, so the pre-watermark queries are a
      // prefix.
      while (dispatchable < queue_.size() &&
             queue_[dispatchable].seq < watermark) {
        ++dispatchable;
      }
      if (dispatchable > 0) {
        const std::size_t take =
            std::min(dispatchable, options_.max_batch_size);
        std::vector<Pending> batch = PopBatchLocked(take, dispatchable);
        ++metrics_.flush_swap;
        const std::uint64_t batch_id = next_batch_id_++;
        workers_busy_ = true;
        lock.unlock();
        DispatchBatch(std::move(batch), batch_id);
        lock.lock();
        workers_busy_ = false;
        continue;
      }
      PendingSwap swap = std::move(swaps_.front());
      swaps_.pop_front();
      workers_busy_ = true;
      lock.unlock();
      // Worker 0 first: a false return means "cannot rebind", which by
      // the RebindGraph contract mutated nothing — the swap is abandoned
      // with every worker still on the old epoch. Once any worker
      // rebound, the rest MUST follow (they are clones of the same
      // estimator); a mixed fleet would answer inconsistently.
      bool ok = true;
      {
        obs::Span swap_span("epoch_swap");
        swap_span.Arg("epoch", swap.epoch);
        swap_span.Arg("workers", workers_.size());
        const std::uint64_t swap_start = obs::NowNs();
        for (std::size_t w = 0; w < workers_.size(); ++w) {
          if (!swap.rebind(*workers_[w])) {
            GEER_CHECK(w == 0)
                << "epoch swap failed on worker " << w
                << " after earlier workers rebound — heterogeneous workers?";
            ok = false;
            break;
          }
        }
        obs::Registry::Global().RecordNs(obs_.epoch_swap_ns,
                                         obs::NowNs() - swap_start);
      }
      lock.lock();
      workers_busy_ = false;
      if (ok) {
        current_epoch_ = swap.epoch;
        epoch_keep_alive_ = std::move(swap.keep_alive);
        ++metrics_.epoch_swaps;
        // Refresh here as well as post-dispatch, so swap-only sequences
        // (no queries after the swap) still observe the counter.
        metrics_.incremental_rebinds = 0;
        for (const ErEstimator* worker : workers_) {
          metrics_.incremental_rebinds += worker->IncrementalRebinds();
        }
      }
      swap.done.set_value(ok);
      continue;
    }

    if (queue_.empty()) {
      flush_requested_ = false;  // nothing left to flush
      if (shutdown_) break;
      cv_.wait(lock, [this] {
        return !queue_.empty() || shutdown_ || !swaps_.empty();
      });
      continue;
    }

    enum class Trigger { kSize, kLinger, kDeadline, kDrain };
    Trigger trigger;
    const Clock::time_point now = Clock::now();
    if (queue_.size() >= options_.max_batch_size) {
      trigger = Trigger::kSize;
    } else if (flush_requested_ || shutdown_) {
      trigger = Trigger::kDrain;
    } else {
      // Next flush instant: the oldest query's linger expiry, pulled
      // forward if some queued deadline would lapse before a
      // linger-length dispatch window (earliest_deadline_ is maintained
      // incrementally — the scheduler wakes per submission, so an
      // O(queue) rescan per wakeup would be quadratic under load).
      Clock::time_point flush_at = queue_.front().submitted + linger;
      Trigger cause = Trigger::kLinger;
      if (earliest_deadline_ != Clock::time_point::max() &&
          earliest_deadline_ - linger < flush_at) {
        flush_at = earliest_deadline_ - linger;
        cause = Trigger::kDeadline;
      }
      if (now < flush_at) {
        cv_.wait_until(lock, flush_at);
        continue;  // re-evaluate: new arrivals may have filled the batch
      }
      trigger = cause;
    }

    const std::size_t take =
        std::min(queue_.size(), options_.max_batch_size);
    // Earliest-deadline-first: when the flush cannot take everything, a
    // tight-deadline query is never stuck behind earlier loose ones.
    std::vector<Pending> batch = PopBatchLocked(take, queue_.size());
    switch (trigger) {
      case Trigger::kSize: ++metrics_.flush_size; break;
      case Trigger::kLinger: ++metrics_.flush_linger; break;
      case Trigger::kDeadline: ++metrics_.flush_deadline; break;
      case Trigger::kDrain: ++metrics_.flush_drain; break;
    }
    const std::uint64_t batch_id = next_batch_id_++;
    workers_busy_ = true;
    lock.unlock();
    DispatchBatch(std::move(batch), batch_id);
    lock.lock();
    workers_busy_ = false;
  }
  // Shutdown with swaps still pending (submitted after the final drain):
  // resolve their futures so no writer blocks forever.
  std::deque<PendingSwap> leftover = std::move(swaps_);
  swaps_.clear();
  lock.unlock();
  for (PendingSwap& swap : leftover) swap.done.set_value(false);
}

void QueryService::DispatchBatch(std::vector<Pending> batch,
                                 std::uint64_t batch_id) {
  const Clock::time_point dispatched = Clock::now();
  obs::Span batch_span("batch");
  batch_span.Arg("batch", batch_id);
  batch_span.Arg("size", batch.size());

  // Queue-drop expiry: a query whose deadline lapsed while queued is
  // answered kExpired without costing any estimator work.
  std::vector<std::size_t> live;
  live.reserve(batch.size());
  std::uint64_t dropped = 0;
  std::array<std::uint64_t, kNumDeadlineClasses> expired_by_class{};
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].deadline <= dispatched) {
      Fulfill(batch[i], ServeStatus::kExpired, QueryStats{}, dispatched,
              dispatched, 0, batch_id);
      ++dropped;
      ++expired_by_class[static_cast<std::size_t>(batch[i].dclass)];
    } else {
      live.push_back(i);
    }
  }

  std::uint64_t answered = 0;
  std::uint64_t unsupported = 0;
  std::uint64_t expired = dropped;
  std::uint64_t cancelled = 0;
  if (!live.empty()) {
    std::vector<QueryPair> queries;
    queries.reserve(live.size());
    bool all_deadlined = true;
    Clock::time_point latest_deadline = Clock::time_point::min();
    for (const std::size_t i : live) {
      queries.push_back(batch[i].query);
      if (batch[i].deadline == Clock::time_point::max()) {
        all_deadlined = false;
      } else {
        latest_deadline = std::max(latest_deadline, batch[i].deadline);
      }
    }

    BatchOptions engine_options;
    engine_options.session_workers =
        std::span<ErEstimator* const>(workers_.data(), workers_.size());
    engine_options.cancel = &cancel_;  // ShutdownNow() cuts in-flight work
    if (all_deadlined) {
      // Once every deadline in the batch has passed there is nobody left
      // to answer — let the engine's deadline machinery cut the run (it
      // still guarantees ≥ 1 answered query).
      engine_options.deadline_seconds =
          std::chrono::duration<double>(latest_deadline - dispatched)
              .count();
    }
    // A dispatch that throws (the pool rethrows the first task exception
    // here — realistically an allocation failure) must not escape the
    // scheduler thread: that would std::terminate the process with every
    // client's future left unresolved. Resolve the batch as kFailed and
    // keep serving instead.
    std::vector<QueryStats> stats(queries.size());
    BatchReport report;
    bool dispatch_failed = false;
    try {
      report = RunQueryBatch(*primary_, queries, stats, engine_options);
    } catch (...) {
      dispatch_failed = true;
    }
    if (dispatch_failed) {
      const Clock::time_point done = Clock::now();
      for (const std::size_t i : live) {
        Fulfill(batch[i], ServeStatus::kFailed, QueryStats{}, dispatched,
                done, static_cast<std::uint32_t>(live.size()), batch_id);
      }
      std::lock_guard<std::mutex> lock(mu_);
      metrics_.failed += live.size();
      metrics_.expired += dropped;  // queue-drop expiries above still count
      for (std::size_t c = 0; c < kNumDeadlineClasses; ++c) {
        metrics_.expired_by_class[c] += expired_by_class[c];
      }
      return;
    }

    const Clock::time_point done = Clock::now();
    const std::uint32_t batch_size = static_cast<std::uint32_t>(live.size());
    obs::Span reply_span("reply");
    reply_span.Arg("batch", batch_id);
    for (std::size_t k = 0; k < live.size(); ++k) {
      Pending& p = batch[live[k]];
      if (!report.processed[k]) {
        if (cancel_.load(std::memory_order_relaxed)) {
          Fulfill(p, ServeStatus::kCancelled, QueryStats{}, dispatched, done,
                  batch_size, batch_id);
          ++cancelled;
        } else {
          Fulfill(p, ServeStatus::kExpired, QueryStats{}, dispatched, done,
                  batch_size, batch_id);
          ++expired;
          ++expired_by_class[static_cast<std::size_t>(p.dclass)];
        }
      } else if (!primary_->SupportsQuery(p.query.s, p.query.t)) {
        Fulfill(p, ServeStatus::kUnsupported, QueryStats{}, dispatched, done,
                batch_size, batch_id);
        ++unsupported;
      } else {
        Fulfill(p, ServeStatus::kAnswered, stats[k], dispatched, done,
                batch_size, batch_id);
        ++answered;
      }
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (!live.empty()) {
    ++metrics_.batches;
    metrics_.coalesced += live.size();
    metrics_.max_batch =
        std::max<std::uint64_t>(metrics_.max_batch, live.size());
    obs::Registry::Global().Add(obs_.batches);
  }
  metrics_.answered += answered;
  metrics_.unsupported += unsupported;
  metrics_.expired += expired;
  metrics_.cancelled += cancelled;
  for (std::size_t c = 0; c < kNumDeadlineClasses; ++c) {
    metrics_.expired_by_class[c] += expired_by_class[c];
  }
  // Cache counters are read worker-by-worker AFTER the batch finished
  // (workers are idle between dispatches), then published under mu_ —
  // Metrics() readers never race the estimators themselves.
  metrics_.session_cache = CacheStats{};
  metrics_.incremental_rebinds = 0;
  for (const ErEstimator* worker : workers_) {
    metrics_.session_cache += worker->SessionCacheStats();
    metrics_.incremental_rebinds += worker->IncrementalRebinds();
  }
}

void QueryService::Fulfill(Pending& p, ServeStatus status,
                           const QueryStats& stats,
                           Clock::time_point dispatched,
                           Clock::time_point done, std::uint32_t batch_size,
                           std::uint64_t batch_id) const {
  QueryResult result;
  result.status = status;
  result.stats = stats;
  result.queue_ms = MillisD(dispatched - p.submitted).count();
  result.total_ms = MillisD(done - p.submitted).count();
  result.batch_size = batch_size;
  result.batch_id = batch_id;
  // Written only by the scheduler thread, which also runs every Fulfill.
  result.epoch = current_epoch_;

  obs::Registry& reg = obs::Registry::Global();
  reg.RecordNs(obs_.served_latency_ns, ToNs(done - p.submitted));
  reg.RecordNs(obs_.queue_wait_ns, ToNs(dispatched - p.submitted));
  if (status == ServeStatus::kAnswered) {
    reg.Add(obs_.answered);
  } else if (status == ServeStatus::kExpired) {
    reg.Add(obs_.expired[static_cast<std::size_t>(p.dclass)]);
  }
  if (obs::Tracer* tracer = obs::Tracer::Current()) {
    // Per-query slices go on synthetic lanes (hashed by submission seq)
    // so concurrent queries render side by side instead of stacking on
    // the scheduler's lane; queue_wait nests inside the query slice.
    const std::uint32_t lane =
        10000 + static_cast<std::uint32_t>(p.seq % 64);
    obs::SpanEvent query_ev;
    query_ev.name = "query";
    query_ev.tid = lane;
    query_ev.start_ns = ToNs(p.submitted);
    query_ev.dur_ns = ToNs(done - p.submitted);
    query_ev.arg_key0 = "batch";
    query_ev.arg_val0 = batch_id;
    query_ev.arg_key1 = "status";
    query_ev.arg_val1 = static_cast<std::uint64_t>(status);
    tracer->Record(query_ev);
    obs::SpanEvent wait_ev;
    wait_ev.name = "queue_wait";
    wait_ev.tid = lane;
    wait_ev.start_ns = ToNs(p.submitted);
    wait_ev.dur_ns = ToNs(dispatched - p.submitted);
    tracer->Record(wait_ev);
  }

  p.promise.set_value(result);
}

}  // namespace geer
