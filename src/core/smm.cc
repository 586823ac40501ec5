#include "core/smm.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "core/ell.h"
#include "linalg/spectral.h"
#include "util/check.h"

namespace geer {

template <WeightPolicy WP>
SmmSessionCacheT<WP>::SmmSessionCacheT(const GraphT& graph,
                                       TransitionOperatorT<WP>* op,
                                       std::size_t budget_bytes,
                                       bool deep_entries)
    : graph_(&graph), op_(op), cache_(budget_bytes) {
  constexpr std::size_t kDefaultBudgetBytes = 64ull << 20;
  if (budget_bytes == 0) {
    budget_bytes = kDefaultBudgetBytes;
    cache_.set_budget_bytes(budget_bytes);
  }
  // Depth cap per entry: the session splits its budget across
  // kMaxSources resident streams; the one-shot pool instead grants each
  // stream the historical standalone SmmSourceCacheT budget (~256 MB)
  // so batch-local runs keep their depth.
  constexpr std::uint64_t kDeepEntryBytes = 256ull << 20;
  const std::uint64_t entry_budget =
      deep_entries ? kDeepEntryBytes : budget_bytes / kMaxSources;
  const std::uint64_t per_iterate =
      static_cast<std::uint64_t>(graph.NumNodes()) * sizeof(double);
  const std::uint64_t derived =
      entry_budget / std::max<std::uint64_t>(per_iterate, 1);
  // Floor of 2 so there is always something to share.
  per_source_cap_ = static_cast<std::uint32_t>(
      std::clamp<std::uint64_t>(derived, 2, 1u << 20));
}

template <WeightPolicy WP>
void SmmSessionCacheT<WP>::Rebind(const GraphT& graph,
                                  const GraphEpoch& epoch) {
  graph_ = &graph;
  if (epoch.resized) {
    cache_.Clear();  // dense iterates are sized to the old node count
    return;
  }
  cache_.EvictIf([&epoch](NodeId, const SmmSourceCacheT<WP>& cache) {
    return cache.DependsOn(epoch.touched);
  });
}

template <WeightPolicy WP>
SmmSourceCacheT<WP>* SmmSessionCacheT<WP>::CacheFor(NodeId node) {
  return cache_.GetOrCreate(node, [this, node] {
    return SmmSourceCacheT<WP>(*graph_, op_, node, per_source_cap_);
  });
}

template <WeightPolicy WP>
void SmmSessionCacheT<WP>::Sweep(std::initializer_list<NodeId> grown) {
  for (const NodeId node : grown) {
    if (const SmmSourceCacheT<WP>* cache = cache_.Peek(node)) {
      cache_.SetBytes(node, cache->ApproxBytes());
    }
  }
  cache_.EvictOverBudget();
}

template <WeightPolicy WP>
SmmSourceCacheT<WP>::SmmSourceCacheT(const GraphT& graph,
                                     TransitionOperatorT<WP>* op,
                                     NodeId source, std::uint32_t max_cached)
    : source_(source), op_(op) {
  GEER_CHECK(source < graph.NumNodes());
  if (max_cached > 0) {
    max_cached_ = max_cached;
  } else {
    // ~256 MB of cached dense iterates: deep enough for every ℓ_b that
    // arises on graphs small enough for the cache to be cheap, and a
    // hard bound on the ones where it would not be (the floor is 2 so
    // there is always SOMETHING to share — never enough to break the
    // byte budget by more than one iterate).
    constexpr std::uint64_t kMaxCachedBytes = 256ull << 20;
    const std::uint64_t per_iterate =
        static_cast<std::uint64_t>(graph.NumNodes()) * sizeof(double);
    const std::uint64_t derived = kMaxCachedBytes / std::max<std::uint64_t>(
                                                        per_iterate, 1);
    max_cached_ = static_cast<std::uint32_t>(
        std::clamp<std::uint64_t>(derived, 2, 1u << 20));
  }
  live_.InitOneHot(source, graph);
  iterates_.push_back(live_.values);
  support_costs_.push_back(live_.support_degree_sum);
  dep_mark_.assign(graph.NumNodes(), 0);
  AbsorbSupport();
}

template <WeightPolicy WP>
void SmmSourceCacheT<WP>::AbsorbSupport() {
  if (live_.dense) {
    dep_dense_ = true;  // support tracking stopped; dependency unknown
    return;
  }
  for (const NodeId v : live_.support) dep_mark_[v] = 1;
}

template <WeightPolicy WP>
bool SmmSourceCacheT<WP>::DependsOn(std::span<const NodeId> touched) const {
  if (dep_dense_) return true;
  for (const NodeId v : touched) {
    if (v < dep_mark_.size() && dep_mark_[v] != 0) return true;
  }
  return false;
}

template <WeightPolicy WP>
void SmmSourceCacheT<WP>::EnsureIterations(std::uint32_t j,
                                           std::uint64_t* fresh_ops) {
  const std::uint32_t target = std::min(j, max_cached_);
  while (iterates_.size() <= target) {
    *fresh_ops += op_->ApplyAuto(&live_);
    iterates_.push_back(live_.values);
    support_costs_.push_back(live_.support_degree_sum);
    AbsorbSupport();
  }
}

template <WeightPolicy WP>
SmmIteratorT<WP>::SmmIteratorT(const GraphT& graph,
                               TransitionOperatorT<WP>* op, NodeId s,
                               NodeId t, SmmSourceCacheT<WP>* s_cache,
                               SmmSourceCacheT<WP>* t_cache)
    : graph_(&graph),
      op_(op),
      s_(s),
      t_(t),
      s_cache_(s_cache),
      t_cache_(t_cache) {
  GEER_CHECK(s < graph.NumNodes());
  GEER_CHECK(t < graph.NumNodes());
  inv_ws_ = 1.0 / WP::NodeWeight(graph, s);
  inv_wt_ = 1.0 / WP::NodeWeight(graph, t);
  if (s_cache_ != nullptr) {
    GEER_CHECK_EQ(s_cache_->source(), s);
  } else {
    s_vec_.InitOneHot(s, graph);
  }
  if (t_cache_ != nullptr) {
    GEER_CHECK_EQ(t_cache_->source(), t);
  } else {
    t_vec_.InitOneHot(t, graph);
  }
  // i = 0 term of Eq. (4): p_0(s,s)/w(s) + p_0(t,t)/w(t)
  //                        − p_0(s,t)/w(s) − p_0(t,s)/w(t).
  const Vector& sv = svec();
  const Vector& tv = tvec();
  rb_ = sv[s_] * inv_ws_ + tv[t_] * inv_wt_ -
        sv[t_] * inv_ws_ - tv[s_] * inv_wt_;
}

template <WeightPolicy WP>
void SmmIteratorT<WP>::AdvanceSide(SmmSourceCacheT<WP>* cache,
                                   bool& spilled, SparseVector& vec) {
  const bool reads_cache = cache != nullptr && !spilled;
  if (reads_cache && iterations_ + 1 > cache->max_cached_iterations()) {
    // Past the cache's memory cap: continue on a private copy of the
    // boundary state. The copy is the exact live state a serial query
    // would hold at this depth, so the remaining iteration stays
    // bit-identical — it just stops being shared.
    vec = cache->BoundaryState();
    spilled = true;
  }
  if (cache != nullptr && !spilled) {
    // Only freshly materialized cache steps cost anything — the point of
    // node-keyed sharing. The cached vector is produced by the same
    // ApplyAuto sequence the uncached path runs, so rb stays
    // bit-identical.
    std::uint64_t fresh = 0;
    cache->EnsureIterations(iterations_ + 1, &fresh);
    spmv_ops_ += fresh;
  } else {
    spmv_ops_ += op_->ApplyAuto(&vec);
  }
}

template <WeightPolicy WP>
void SmmIteratorT<WP>::Advance() {
  AdvanceSide(s_cache_, s_spilled_, s_vec_);
  AdvanceSide(t_cache_, t_spilled_, t_vec_);
  ++iterations_;
  const Vector& sv = svec();
  const Vector& tv = tvec();
  rb_ += sv[s_] * inv_ws_ + tv[t_] * inv_wt_ -
         sv[t_] * inv_ws_ - tv[s_] * inv_wt_;
}

template <WeightPolicy WP>
SmmEstimatorT<WP>::SmmEstimatorT(const GraphT& graph, ErOptions options)
    : graph_(&graph), options_(options), op_(graph) {
  ValidateOptions(options_);
  lambda_ = options_.lambda.has_value()
                ? *options_.lambda
                : ComputeSpectralBoundsT<WP>(graph).lambda;
}

template <WeightPolicy WP>
bool SmmEstimatorT<WP>::RebindGraph(const GraphT& graph,
                                    const GraphEpoch& epoch) {
  graph_ = &graph;
  op_ = TransitionOperatorT<WP>(graph);  // member address is stable, so
                                         // retained caches keep their op_
  lambda_ = epoch.lambda.has_value()
                ? *epoch.lambda
                : ComputeSpectralBoundsT<WP>(graph).lambda;
  if (session_ != nullptr) session_->Rebind(graph, epoch);
  return true;
}

template <WeightPolicy WP>
QueryStats SmmEstimatorT<WP>::EstimateWithCache(
    NodeId s, NodeId t, SmmSourceCacheT<WP>* s_cache,
    SmmSourceCacheT<WP>* t_cache) {
  QueryStats stats;
  if (s == t) return stats;
  const double ws = WP::NodeWeight(*graph_, s);
  const double wt = WP::NodeWeight(*graph_, t);
  std::uint32_t ell;
  if (options_.smm_iterations > 0) {
    ell = options_.smm_iterations;
  } else if (options_.use_peng_ell) {
    ell = PengEll(options_.epsilon, lambda_, options_.max_ell);
    stats.truncated = EllWasTruncated(options_.epsilon, lambda_, 1, 1,
                                      options_.max_ell, /*use_peng=*/true);
  } else {
    ell = RefinedEllWeighted(options_.epsilon, lambda_, ws, wt,
                             options_.max_ell);
    stats.truncated = EllWasTruncated(options_.epsilon, lambda_, ws, wt,
                                      options_.max_ell, /*use_peng=*/false);
  }
  SmmIteratorT<WP> iter(*graph_, &op_, s, t, s_cache, t_cache);
  for (std::uint32_t i = 0; i < ell; ++i) iter.Advance();
  stats.value = iter.rb();
  stats.ell = ell;
  stats.ell_b = iter.iterations();
  stats.spmv_ops = iter.spmv_ops();
  return stats;
}

template <WeightPolicy WP>
QueryStats SmmEstimatorT<WP>::EstimateWithStats(NodeId s, NodeId t) {
  GEER_CHECK(s < graph_->NumNodes());
  GEER_CHECK(t < graph_->NumNodes());
  // Canonical endpoint order with a fixed accumulation order makes
  // Estimate(s, t) ≡ Estimate(t, s) bitwise — the symmetry the
  // node-keyed batch caches rely on.
  const NodeId u = std::min(s, t);
  const NodeId v = std::max(s, t);
  return EstimateWithCache(u, v, nullptr, nullptr);
}

template <WeightPolicy WP>
std::size_t SmmEstimatorT<WP>::EstimateBatch(
    std::span<const QueryPair> queries, std::span<QueryStats> stats,
    const BatchContext& context) {
  GEER_CHECK(stats.size() >= queries.size());
  // Every endpoint's iterate stream lives in a node-keyed pool — the
  // session when enabled, a batch-local pool otherwise — so both query
  // sides reuse streams across the whole batch. The canonical (min, max)
  // evaluation order matches the serial path bit-for-bit.
  std::optional<SmmSessionCacheT<WP>> local;
  SmmSessionCacheT<WP>* pool = session_.get();
  if (pool == nullptr) {
    constexpr std::size_t kOneShotPoolBytes = 256ull << 20;
    local.emplace(*graph_, &op_, kOneShotPoolBytes, /*deep_entries=*/true);
    pool = &*local;
  }
  // Admission: a cached stream materializes every iterate densely, which
  // only pays off when the stream is read more than once. Create one for
  // a node that recurs in this batch; a batch-singleton endpoint reads a
  // stream another batch left resident (Lookup) but iterates privately
  // in place otherwise — both paths run the identical ApplyAuto
  // sequence, so the answer never moves.
  std::unordered_map<NodeId, std::uint32_t> uses;
  for (const QueryPair& q : queries) {
    if (q.s == q.t) continue;
    ++uses[q.s];
    ++uses[q.t];
  }
  const auto stream_for = [&](NodeId node) -> SmmSourceCacheT<WP>* {
    if (uses[node] > 1) return pool->CacheFor(node);
    return pool->Lookup(node);
  };
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (context.Cancelled()) return i;
    const QueryPair& q = queries[i];
    GEER_CHECK(q.s < graph_->NumNodes());
    GEER_CHECK(q.t < graph_->NumNodes());
    if (q.s == q.t) {
      stats[i] = QueryStats{};
      context.ReportAnswered();
      continue;
    }
    const NodeId u = std::min(q.s, q.t);
    const NodeId v = std::max(q.s, q.t);
    SmmSourceCacheT<WP>* u_cache = stream_for(u);
    SmmSourceCacheT<WP>* v_cache = stream_for(v);
    stats[i] = EstimateWithCache(u, v, u_cache, v_cache);
    pool->Sweep({u, v});
    context.ReportAnswered();
  }
  return queries.size();
}

template class SmmSourceCacheT<UnitWeight>;
template class SmmSourceCacheT<EdgeWeight>;
template class SmmSessionCacheT<UnitWeight>;
template class SmmSessionCacheT<EdgeWeight>;
template class SmmIteratorT<UnitWeight>;
template class SmmIteratorT<EdgeWeight>;
template class SmmEstimatorT<UnitWeight>;
template class SmmEstimatorT<EdgeWeight>;

}  // namespace geer
