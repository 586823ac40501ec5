// Landmark (hub) selection: the K highest-centrality nodes, most central
// first. The full ranking is the popularity order the Zipf workload
// generators (serve/trace.h MakeZipfQueries) draw skewed traffic over.
//
// Two interchangeable scores, both fully deterministic:
//   * Node weight (degree / strength) — O(n), the default.
//   * Spanning centrality — Σ over incident edges of the UST-sampled
//     edge ER (src/centrality/spanning_edge_centrality.h), deterministic
//     in its seed; picks articulation-heavy hubs rather than merely
//     high-degree ones. Unweighted graphs only.
//
// Ties always break toward the SMALLER node id, so selection is a pure
// function of the graph (+ seed) — identical across runs, thread counts
// and processes, which the landmark determinism suite enforces.

#ifndef GEER_CENTRALITY_LANDMARKS_H_
#define GEER_CENTRALITY_LANDMARKS_H_

#include <cstddef>
#include <vector>

#include "centrality/spanning_edge_centrality.h"
#include "graph/graph.h"
#include "graph/weighted_graph.h"

namespace geer {

/// The `count` nodes of largest node weight (degree for Graph, strength
/// for WeightedGraph), descending, ties broken by ascending node id.
/// `count` >= n returns all nodes — i.e. the full popularity ranking.
std::vector<NodeId> SelectLandmarks(const Graph& graph, std::size_t count);
std::vector<NodeId> SelectLandmarks(const WeightedGraph& graph,
                                    std::size_t count);

/// The `count` nodes of largest spanning centrality (sum of incident
/// edges' UST-sampled ER), descending, ties by ascending node id.
/// Deterministic in `options.seed`.
std::vector<NodeId> SelectLandmarksBySpanningCentrality(
    const Graph& graph, std::size_t count,
    const SpanningCentralityOptions& options = {});

}  // namespace geer

#endif  // GEER_CENTRALITY_LANDMARKS_H_
