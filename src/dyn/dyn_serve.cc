#include "dyn/dyn_serve.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace geer {

template <WeightPolicy WP>
std::future<bool> ApplyEpochUpdate(
    QueryService& service, std::shared_ptr<const DynSnapshotT<WP>> snapshot,
    std::optional<double> lambda, bool incremental) {
  GEER_CHECK(snapshot != nullptr && snapshot->graph != nullptr);
  const std::uint64_t epoch = snapshot->epoch;
  // The rebinder captures the snapshot, so the touched span and the graph
  // stay alive for the duration of every worker rebind; keep_alive then
  // pins them for as long as the service answers on this epoch.
  auto rebind = [snapshot, lambda, incremental](ErEstimator& estimator) {
    obs::Span rebind_span("rebind");
    rebind_span.Arg("epoch", snapshot->epoch);
    rebind_span.Arg("touched", snapshot->touched.size());
    static const obs::Registry::MetricId rebind_ns =
        obs::Registry::Global().Histogram("geer_rebind_ns");
    GraphEpoch info;
    info.epoch = snapshot->epoch;
    info.touched = std::span<const NodeId>(snapshot->touched);
    info.resized = snapshot->resized;
    info.lambda = lambda;
    info.incremental = incremental;
    const std::uint64_t start = obs::NowNs();
    const bool ok = estimator.RebindGraph(*snapshot->graph, info);
    obs::Registry::Global().RecordNs(rebind_ns, obs::NowNs() - start);
    return ok;
  };
  return service.ApplyUpdates(epoch, std::move(rebind),
                              std::move(snapshot));
}

template std::future<bool> ApplyEpochUpdate<UnitWeight>(
    QueryService&, std::shared_ptr<const DynSnapshotT<UnitWeight>>,
    std::optional<double>, bool);
template std::future<bool> ApplyEpochUpdate<EdgeWeight>(
    QueryService&, std::shared_ptr<const DynSnapshotT<EdgeWeight>>,
    std::optional<double>, bool);

}  // namespace geer
