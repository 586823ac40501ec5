// High-accuracy ER via a preconditioned CG Laplacian solve per query.
// Not one of the paper's competitors; used as a scalable ground-truth
// cross-check for the SMM-based ground truth of §5.1, in both weight
// modes (the EdgeWeight instantiation is the weighted W-CG oracle).

#ifndef GEER_CORE_SOLVER_ER_H_
#define GEER_CORE_SOLVER_ER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/epoch_shared.h"
#include "core/estimator.h"
#include "core/options.h"
#include "graph/weight_policy.h"
#include "linalg/laplacian_solver.h"
#include "util/lru_byte_cache.h"

namespace geer {

template <WeightPolicy WP>
class SolverEstimatorT : public ErEstimator {
 public:
  using GraphT = typename WP::GraphT;

  explicit SolverEstimatorT(const GraphT& graph, ErOptions options = {});
  // Stores a pointer to `graph`; a temporary would dangle.
  explicit SolverEstimatorT(GraphT&&, ErOptions = {}) = delete;

  std::string Name() const override {
    return std::string(WP::kNamePrefix) + "CG";
  }

  /// r(s, t) = (y_u[u] − y_u[v]) − (y_v[u] − y_v[v]) from the two CG
  /// COLUMNS y_x = L† ê_x (the solver centers e_x onto 𝟙^⊥) with
  /// (u, v) = (min, max): the centering parts cancel in the difference,
  /// the combination is bitwise symmetric in (s, t), and — because a
  /// column is a pure function of its node — identical whether the
  /// columns come from the session cache or a direct solve.
  QueryStats EstimateWithStats(NodeId s, NodeId t) override;

  /// Batch workers share the solver (graph view + Jacobi preconditioner);
  /// Solve() is const and allocates per call, so sharing is race-free.
  /// The clone's column cache starts cold (per-worker, no sharing races).
  std::unique_ptr<ErEstimator> CloneForBatch() const override {
    return std::unique_ptr<ErEstimator>(new SolverEstimatorT<WP>(*this));
  }

  /// Retains CG solution columns L† ê_v per node across queries. Values
  /// are unchanged: the direct path combines the same two columns.
  void EnableSessionCache(std::size_t budget_bytes = 0) override {
    session_ = std::make_unique<LruByteCache<NodeId, Column>>(
        budget_bytes == 0 ? 64ull << 20 : budget_bytes);
  }
  CacheStats SessionCacheStats() const override {
    return session_ != nullptr ? session_->stats() : CacheStats{};
  }

  /// Dynamic-graph hook: once per epoch across every clone sharing the
  /// holder (core/epoch_shared.h), the solver is rebound — by refreshing
  /// only the touched rows of the Jacobi diagonal (O(|touched|),
  /// bit-identical to a fresh construction, so it needs no opt-in) when
  /// the node count is unchanged, else by a full rebuild — and the
  /// per-worker column cache is flushed.
  using ErEstimator::RebindGraph;
  bool RebindGraph(const GraphT& graph, const GraphEpoch& epoch) override;

  std::uint64_t IncrementalRebinds() const override {
    return incremental_rebinds_.load(std::memory_order_relaxed);
  }

 private:
  /// One cached CG solve; `converged` feeds QueryStats::truncated.
  struct Column {
    Vector y;
    bool converged = false;
  };

  // One epoch's shared solver plus its provenance (full rebuild vs
  // touched-row refresh) — adopters read the flag into their counters.
  struct SolverEntry {
    std::shared_ptr<const LaplacianSolverT<WP>> solver;
    bool incremental = false;
  };

  // Clone constructor: adopts the shared solver and its epoch holder;
  // the column cache starts empty (per-worker state).
  SolverEstimatorT(const SolverEstimatorT& other)
      : graph_(other.graph_),
        solver_(other.solver_),
        shared_solver_(other.shared_solver_) {}

  const Column* ColumnFor(NodeId node, Column* scratch);
  Column SolveColumn(NodeId node) const;

  const GraphT* graph_;
  std::shared_ptr<const LaplacianSolverT<WP>> solver_;
  std::shared_ptr<EpochShared<SolverEntry>> shared_solver_;
  std::unique_ptr<LruByteCache<NodeId, Column>> session_;
  std::atomic<std::uint64_t> incremental_rebinds_{0};
};

/// The two stacks, by their historical names. The EdgeWeight
/// instantiation is the weighted ground-truth oracle ("W-CG").
using SolverEstimator = SolverEstimatorT<UnitWeight>;
using WeightedSolverEstimator = SolverEstimatorT<EdgeWeight>;

extern template class SolverEstimatorT<UnitWeight>;
extern template class SolverEstimatorT<EdgeWeight>;

}  // namespace geer

#endif  // GEER_CORE_SOLVER_ER_H_
