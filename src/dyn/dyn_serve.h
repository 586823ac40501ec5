// Glue between the dynamic-graph subsystem and the serving front end:
// turns a committed DynSnapshotT into the type-erased epoch swap
// QueryService::ApplyUpdates consumes. The swap rebinds every worker
// estimator in place (ErEstimator::RebindGraph) between micro-batches,
// with the snapshot kept alive for as long as the service reads it.

#ifndef GEER_DYN_DYN_SERVE_H_
#define GEER_DYN_DYN_SERVE_H_

#include <future>
#include <memory>
#include <optional>

#include "dyn/dynamic_graph.h"
#include "serve/query_service.h"

namespace geer {

/// Schedules `snapshot` (a DynamicGraphT<WP>::Commit() result) onto the
/// service. `lambda` is the precomputed λ of the snapshot's graph — pass
/// it when the estimator reads λ (registry EstimatorReadsLambda) so the
/// Lanczos preprocessing runs once per epoch instead of once per worker;
/// leave it empty otherwise (or to let each worker recompute).
/// `incremental` opts the swap into the incremental maintenance paths
/// (GraphEpoch::incremental — EXACT's rank-1-updated factor; answers may
/// drift within the documented tolerance, see README "Incremental
/// epochs"). See QueryService::ApplyUpdates for the barrier semantics;
/// the returned future resolves true once every worker serves the new
/// epoch.
template <WeightPolicy WP>
std::future<bool> ApplyEpochUpdate(
    QueryService& service,
    std::shared_ptr<const DynSnapshotT<WP>> snapshot,
    std::optional<double> lambda = std::nullopt, bool incremental = false);

extern template std::future<bool> ApplyEpochUpdate<UnitWeight>(
    QueryService&, std::shared_ptr<const DynSnapshotT<UnitWeight>>,
    std::optional<double>, bool);
extern template std::future<bool> ApplyEpochUpdate<EdgeWeight>(
    QueryService&, std::shared_ptr<const DynSnapshotT<EdgeWeight>>,
    std::optional<double>, bool);

}  // namespace geer

#endif  // GEER_DYN_DYN_SERVE_H_
