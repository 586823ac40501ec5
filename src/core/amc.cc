#include "core/amc.h"

#include <cmath>

#include "core/ell.h"
#include "linalg/spectral.h"
#include "stats/accumulator.h"
#include "stats/bounds.h"
#include "util/check.h"

namespace geer {

double AmcPsi(std::uint32_t ell_f, double max1_s, double max2_s,
              double weight_s, double max1_t, double max2_t,
              double weight_t) {
  const double half_up = std::ceil(ell_f / 2.0);
  const double half_down = std::floor(ell_f / 2.0);
  return 2.0 * half_up * (max1_s / weight_s + max1_t / weight_t) +
         2.0 * half_down * (max2_s / weight_s + max2_t / weight_t);
}

template <WeightPolicy WP>
AmcRunResult RunAmcT(const typename WP::GraphT& graph,
                     const WalkerFor<WP>& walker, NodeId s, NodeId t,
                     const Vector& svec, const Vector& tvec,
                     const AmcParams& params, Rng& rng) {
  GEER_CHECK_NE(s, t);
  GEER_CHECK_EQ(svec.size(), static_cast<std::size_t>(graph.NumNodes()));
  GEER_CHECK_EQ(tvec.size(), static_cast<std::size_t>(graph.NumNodes()));
  GEER_CHECK(params.epsilon > 0.0);
  GEER_CHECK(params.delta > 0.0 && params.delta < 1.0);
  GEER_CHECK_GE(params.tau, 1);

  AmcRunResult result;
  if (params.ell_f == 0) return result;  // q over an empty length range

  const double ws = WP::NodeWeight(graph, s);
  const double wt = WP::NodeWeight(graph, t);
  const double inv_ws = 1.0 / ws;
  const double inv_wt = 1.0 / wt;

  const auto [max1_s, max2_s] = TopTwo(svec);
  const auto [max1_t, max2_t] = TopTwo(tvec);
  const double psi =
      AmcPsi(params.ell_f, max1_s, max2_s, ws, max1_t, max2_t, wt);
  result.psi = psi;
  if (psi <= 0.0) return result;  // |Z_k| ≤ ψ/2 = 0: q is exactly 0

  // Line 1: η* by Eq. (8), ψ by Eq. (9). Line 2: η ← ⌈η*/2^{τ−1}⌉.
  const std::uint64_t eta_star =
      AmcMaxSamples(params.epsilon, psi, params.delta, params.tau);
  result.eta_star = eta_star;
  const double pow_tau = std::pow(2.0, params.tau - 1);
  std::uint64_t eta = static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(eta_star) / pow_tau));
  if (eta == 0) eta = 1;

  const double per_batch_delta = params.delta / params.tau;
  MeanVarAccumulator acc;

  double z_mean = 0.0;
  for (int batch = 1; batch <= params.tau; ++batch) {
    // Lines 4–12: fresh batch; previous samples are discarded.
    acc.Reset();
    for (std::uint64_t k = 0; k < eta; ++k) {
      // Walk S_k from s and T_k from t, both of length ℓf; accumulate
      //   Z_k = Σ_{u∈S_k} (s(u)/w(s) − t(u)/w(t))
      //       + Σ_{u∈T_k} (t(u)/w(t) − s(u)/w(s)).
      double z = 0.0;
      NodeId cur = s;
      for (std::uint32_t step = 0; step < params.ell_f; ++step) {
        cur = walker.Step(cur, rng);
        z += svec[cur] * inv_ws - tvec[cur] * inv_wt;
      }
      cur = t;
      for (std::uint32_t step = 0; step < params.ell_f; ++step) {
        cur = walker.Step(cur, rng);
        z += tvec[cur] * inv_wt - svec[cur] * inv_ws;
      }
      acc.Add(z);
    }
    result.walks += 2 * eta;
    result.steps += 2 * eta * params.ell_f;
    result.batches = batch;
    z_mean = acc.Mean();
    // Line 13: Bernstein stopping rule. The shift Z' = Z + ψ/2 ∈ [0, ψ]
    // leaves the empirical variance unchanged, so f applies directly.
    const double bound = EmpiricalBernsteinBound(eta, acc.Variance(), psi,
                                                 per_batch_delta);
    if (bound <= params.epsilon / 2.0) {
      result.early_stop = batch < params.tau;
      break;
    }
    eta *= 2;  // Line 14.
  }
  result.r_f = z_mean;
  return result;
}

template <WeightPolicy WP>
AmcEstimatorT<WP>::AmcEstimatorT(const GraphT& graph, ErOptions options)
    : graph_(&graph),
      options_(options),
      walker_(graph),
      svec_(graph.NumNodes(), 0.0),
      tvec_(graph.NumNodes(), 0.0) {
  ValidateOptions(options_);
  lambda_ = options_.lambda.has_value()
                ? *options_.lambda
                : ComputeSpectralBoundsT<WP>(graph).lambda;
}

template <WeightPolicy WP>
bool AmcEstimatorT<WP>::RebindGraph(const GraphT& graph,
                                    const GraphEpoch& epoch) {
  graph_ = &graph;
  walker_ = WalkerFor<WP>(graph);
  // λ belongs to the graph, not the options: a stale construction-time
  // (or clone-baked) value would change walk lengths vs a fresh build.
  lambda_ = epoch.lambda.has_value()
                ? *epoch.lambda
                : ComputeSpectralBoundsT<WP>(graph).lambda;
  svec_.assign(graph.NumNodes(), 0.0);
  tvec_.assign(graph.NumNodes(), 0.0);
  return true;
}

template <WeightPolicy WP>
QueryStats AmcEstimatorT<WP>::EstimateWithStats(NodeId s, NodeId t) {
  GEER_CHECK(s < graph_->NumNodes());
  GEER_CHECK(t < graph_->NumNodes());
  QueryStats stats;
  if (s == t) return stats;

  const double ws = WP::NodeWeight(*graph_, s);
  const double wt = WP::NodeWeight(*graph_, t);
  const std::uint32_t ell =
      options_.use_peng_ell
          ? PengEll(options_.epsilon, lambda_, options_.max_ell)
          : RefinedEllWeighted(options_.epsilon, lambda_, ws, wt,
                               options_.max_ell);
  stats.ell = ell;
  stats.truncated = EllWasTruncated(options_.epsilon, lambda_, ws, wt,
                                    options_.max_ell, options_.use_peng_ell);

  svec_[s] = 1.0;
  tvec_[t] = 1.0;
  AmcParams params;
  params.epsilon = options_.epsilon;
  params.delta = options_.delta;
  params.tau = options_.tau;
  params.ell_f = ell;
  // Per-query deterministic stream: reordering queries never changes an
  // individual answer.
  Rng rng(options_.seed ^ (static_cast<std::uint64_t>(s) << 32) ^ t);
  AmcRunResult run =
      RunAmcT<WP>(*graph_, walker_, s, t, svec_, tvec_, params, rng);
  svec_[s] = 0.0;
  tvec_[t] = 0.0;

  // Theorem 3.4: add the i = 0 term 1_{s≠t}(1/w(s) + 1/w(t)).
  stats.value = run.r_f + 1.0 / ws + 1.0 / wt;
  stats.walks = run.walks;
  stats.walk_steps = run.steps;
  stats.eta_star = run.eta_star;
  stats.batches = run.batches;
  stats.early_stop = run.early_stop;
  return stats;
}

template AmcRunResult RunAmcT<UnitWeight>(const Graph&, const Walker&,
                                          NodeId, NodeId, const Vector&,
                                          const Vector&, const AmcParams&,
                                          Rng&);
template AmcRunResult RunAmcT<EdgeWeight>(const WeightedGraph&,
                                          const WeightedWalker&, NodeId,
                                          NodeId, const Vector&,
                                          const Vector&, const AmcParams&,
                                          Rng&);
template class AmcEstimatorT<UnitWeight>;
template class AmcEstimatorT<EdgeWeight>;

}  // namespace geer
