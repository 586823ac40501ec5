// TP baseline [Peng et al., KDD'21]: truncated-walk Monte Carlo on the
// Eq. (4) expansion with the generic ℓ of Eq. (5). For every length
// i ∈ [1, ℓ] it draws 40 ℓ² ln(8ℓ/δ)/ε² walks from s and from t and uses
// the end-node frequencies as estimates of p_i(s,·), p_i(t,·). The sheer
// walk count makes it impractical at small ε — the inefficiency AMC/GEER
// fix. Weight-generic: weighted walks step through the alias sampler and
// every 1/d(·) becomes 1/w(·). options.tp_scale linearly rescales the
// sample constant so the harness can extrapolate timings (see
// EXPERIMENTS.md).
//
// Batching: each endpoint's walks come from a content-addressed stream
// seeded by (seed, node) — not (seed, s, t) — and the walk schedule
// (ℓ and the per-length count η depend only on ε, δ, λ) is
// query-independent. A query's value is therefore a pure function of
// its endpoint SET: per-length terms are accumulated in canonical
// (min, max) order, so Estimate(s, t) ≡ Estimate(t, s) bitwise. A query
// group keyed by EITHER shared endpoint simulates the key's walks ONCE
// per length, counting endpoint hits for every query's other side in
// the same pass — the per-query walk cost halves and the saved half is
// shared by the whole group. EstimateBatch does exactly that; serial
// Estimate is the one-query instance of the same code path, so batched
// values are bit-identical to serial ones.

#ifndef GEER_CORE_TP_H_
#define GEER_CORE_TP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/estimator.h"
#include "core/options.h"
#include "graph/weight_policy.h"
#include "rw/walker_policy.h"
#include "util/lru_byte_cache.h"
#include "util/visit_filter.h"

namespace geer {

/// Cross-batch session state for TP (ErEstimator::EnableSessionCache):
/// per-NODE walk populations, materialized as one endpoint histogram per
/// length. A node's population is a pure function of (seed, node, ℓ, η)
/// — the per-source stream law — so it serves BOTH roles: the shared
/// source side of a group and the per-query target side. A session hit
/// answers every count lookup (p̂_i(v, s), p̂_i(v, t)) from the histogram
/// without simulating a single walk; values stay bit-identical because
/// the counts are exactly what the serial simulation would produce.
/// LRU over nodes under a byte budget (LruByteCache admission layer).
template <WeightPolicy WP>
class TpSessionCacheT {
 public:
  struct NodePopulation {
    NodeId node = 0;
    std::uint32_t ell = 0;   ///< lengths materialized: 1..ell
    std::uint64_t eta = 0;   ///< walks per length
    /// hist[i-1]: (endpoint, count) pairs of the η length-i walks, in
    /// first-visit order (deterministic; NOT sorted — consumers splat
    /// into a dense scratch or scan for the two keys they need).
    std::vector<std::vector<std::pair<NodeId, std::uint32_t>>> hist;
    /// Every node the walks stepped FROM (start node included; final
    /// endpoints excluded — their rows never influenced a step). On an
    /// epoch swap the population stays valid iff this set is disjoint
    /// from epoch.touched: the stream is content-addressed by
    /// (seed, node), so untouched rows replay bit-identically.
    VisitFilter visits;
    std::size_t bytes = 0;

    /// Count of length-i walks from `node` ending at `v` (linear scan —
    /// for the target side's two lookups per length).
    std::uint32_t Count(std::uint32_t i, NodeId v) const;
  };

  /// `budget_bytes` = 0 picks the 64 MB default.
  explicit TpSessionCacheT(std::size_t budget_bytes);

  /// The retained population for `node` (bumped to most recently used),
  /// or nullptr. Counts a cache hit or miss. The caller checks ell/η
  /// compatibility.
  const NodePopulation* Find(NodeId node);

  /// Retains `pop` (replacing any entry for the same node), evicting
  /// least-recently-used populations beyond the byte budget.
  void Insert(NodePopulation pop);

  void Clear() { cache_.Clear(); }

  /// Removes every population matching pred(node, population) — the
  /// epoch-swap selective-invalidation hook. Returns the number removed.
  template <typename Pred>
  std::size_t EvictIf(Pred&& pred) {
    return cache_.EvictIf(std::forward<Pred>(pred));
  }

  std::size_t num_nodes_retained() const { return cache_.size(); }
  std::size_t bytes_retained() const { return cache_.bytes(); }
  CacheStats stats() const { return cache_.stats(); }

 private:
  LruByteCache<NodeId, NodePopulation> cache_;
};

template <WeightPolicy WP>
class TpEstimatorT : public ErEstimator {
 public:
  using GraphT = typename WP::GraphT;

  explicit TpEstimatorT(const GraphT& graph, ErOptions options = {});
  // Stores a pointer to `graph`; a temporary would dangle.
  explicit TpEstimatorT(GraphT&&, ErOptions = {}) = delete;

  std::string Name() const override {
    return std::string(WP::kNamePrefix) + "TP";
  }
  QueryStats EstimateWithStats(NodeId s, NodeId t) override;

  /// Shares the key-side walk populations across consecutive queries
  /// with a common endpoint — on EITHER side (see the header comment).
  std::size_t EstimateBatch(std::span<const QueryPair> queries,
                            std::span<QueryStats> stats,
                            const BatchContext& context = {}) override;
  BatchPlan PlanBatch(std::span<const QueryPair> queries) const override {
    return BatchPlan::GroupByEndpoint(queries);
  }
  bool SharesBatchWork() const override { return true; }
  std::unique_ptr<ErEstimator> CloneForBatch() const override {
    ErOptions opt = options_;
    opt.lambda = lambda_;  // clones never re-run Lanczos
    return std::make_unique<TpEstimatorT<WP>>(*graph_, opt);
  }

  /// Retains per-node walk populations (endpoint histograms per length)
  /// across EstimateBatch calls — the serving layer's session state.
  /// Retained counts never change answer values, only the walks charged.
  void EnableSessionCache(std::size_t budget_bytes = 0) override {
    session_ = std::make_unique<TpSessionCacheT<WP>>(budget_bytes);
  }
  CacheStats SessionCacheStats() const override {
    return session_ != nullptr ? session_->stats() : CacheStats{};
  }

  /// Dynamic-graph hook: repoints at the new snapshot, rebuilds the walk
  /// sampler, and re-derives λ (epoch.lambda or a cold Lanczos run).
  /// Session populations are invalidated SELECTIVELY: each records the
  /// rows its walks stepped from (VisitFilter), and only populations
  /// whose visit set intersects epoch.touched are evicted — bit-identical
  /// retention, because the per-node walk streams are content-addressed
  /// by (seed, node) and an untouched row replays the exact same steps. A
  /// λ change that alters the walk schedule (ℓ, η) or a resize still
  /// flushes wholesale.
  using ErEstimator::RebindGraph;
  bool RebindGraph(const GraphT& graph, const GraphEpoch& epoch) override;

  std::uint64_t IncrementalRebinds() const override {
    return incremental_rebinds_.load(std::memory_order_relaxed);
  }

  double lambda() const { return lambda_; }

  /// Walks per length per endpoint at the current options (after scaling).
  std::uint64_t WalksPerLength(std::uint32_t ell) const;

 private:
  using SessionPopulation = typename TpSessionCacheT<WP>::NodePopulation;

  /// Answers a run of queries sharing endpoint `key` (on either side) in
  /// lockstep over the walk length i, simulating the key's η walks once
  /// per length. Per-length terms accumulate in canonical (min, max)
  /// endpoint order, so the value is independent of which endpoint is
  /// the key. Shared-side cost is charged to the first live query of the
  /// run. Dispatches to the direct path (no session: chain-counted, the
  /// original hot loop) or the session path (histogram-backed hits and
  /// recording).
  void EstimateKeyGroup(NodeId key, std::span<const QueryPair> queries,
                        std::span<QueryStats> stats);
  void EstimateKeyGroupDirect(NodeId key, std::span<const QueryPair> queries,
                              std::span<QueryStats> stats);
  void EstimateKeyGroupSession(NodeId key,
                               std::span<const QueryPair> queries,
                               std::span<QueryStats> stats);

  /// Session path: resets the dense histogram scratch, then either
  /// simulates the η length-i walks of `node` (appending the compacted
  /// row to `record` when non-null) or splats a retained row into it.
  void SimulateLength(NodeId node, std::uint32_t i, std::uint64_t eta,
                      Rng& rng, SessionPopulation* record);
  void SplatRow(const std::vector<std::pair<NodeId, std::uint32_t>>& row);
  void ResetHistScratch();

  const GraphT* graph_;
  ErOptions options_;
  double lambda_;
  WalkerFor<WP> walker_;
  std::unique_ptr<TpSessionCacheT<WP>> session_;
  // Direct-path scratch for multi-target endpoint counting: per-node
  // chain heads (1-based query index) + per-query next links, reset via
  // the touched list after every group.
  std::vector<std::uint32_t> target_head_;
  std::vector<std::uint32_t> target_next_;
  std::vector<NodeId> target_touched_;
  // Session-path scratch: dense endpoint histogram with a touched list;
  // counts one population's length-i endpoints (simulated or splatted
  // from a retained row) and doubles as the session recorder.
  std::vector<std::uint32_t> hist_count_;
  std::vector<NodeId> hist_touched_;
  // RebindGraph calls that kept session populations by selective
  // visit-set retention. Atomic: serve workers may read the
  // metric while another thread rebinds.
  std::atomic<std::uint64_t> incremental_rebinds_{0};
};

/// The two stacks, by their historical names.
using TpEstimator = TpEstimatorT<UnitWeight>;
using WeightedTpEstimator = TpEstimatorT<EdgeWeight>;
using TpSessionCache = TpSessionCacheT<UnitWeight>;
using WeightedTpSessionCache = TpSessionCacheT<EdgeWeight>;

extern template class TpSessionCacheT<UnitWeight>;
extern template class TpSessionCacheT<EdgeWeight>;
extern template class TpEstimatorT<UnitWeight>;
extern template class TpEstimatorT<EdgeWeight>;

}  // namespace geer

#endif  // GEER_CORE_TP_H_
