// Breadth-first shortest paths and shortest-path counting.
//
// The paper measures distance in hops (each intermediary charges f^T_avg per
// hop, II-C), so BFS is the shortest-path engine. `shortest_path_dag` is the
// Brandes front-end: besides distances it records the number of shortest
// paths sigma(v) and the shortest-path predecessor DAG, which both the
// betweenness computation (Eq. 2) and the rate estimator consume.
//
// Every kernel here walks the frozen CSR view (graph/csr.h), the one
// traversal representation; the mutable digraph is the builder. The digraph
// entry points below freeze and forward. A caller running many traversals
// over one topology freezes once and calls the CSR kernels directly.

#ifndef LCG_GRAPH_TRAVERSAL_H
#define LCG_GRAPH_TRAVERSAL_H

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/digraph.h"

namespace lcg::graph {

class csr_graph;  // graph/csr.h

/// Distance value for unreachable nodes.
inline constexpr std::int32_t unreachable = -1;

/// Hop distances from `src` over the view's edges. dist[src] = 0,
/// dist[v] = `unreachable` if no path exists.
[[nodiscard]] std::vector<std::int32_t> bfs_distances(const csr_graph& c,
                                                      node_id src);

/// bfs_distances(c, src) into `dist`, with `queue` as the FIFO; both keep
/// their storage across calls.
void bfs_distances(const csr_graph& c, node_id src,
                   std::vector<std::int32_t>& dist,
                   std::vector<node_id>& queue);

/// bfs_distances(freeze(g), src): hop distances over g's active edges.
[[nodiscard]] std::vector<std::int32_t> bfs_distances(const digraph& g,
                                                      node_id src);

/// Result of a single-source shortest-path-DAG computation.
///
/// The predecessor DAG is stored flat, CSR style: the shortest-path in-edges
/// of v are pred_edge[pred_begin[v] .. pred_begin[v + 1]), read through
/// pred(v). A sweep therefore allocates a fixed handful of arrays, never one
/// per node. Grouping contract: each pred(v) lists its edge keys in BFS
/// DISCOVERY order, the order in which the sweep scanned them (tail in
/// `order`, then the tail's row order). The backward accumulations iterate
/// pred(v) in that order, so their float operation sequence is fixed by the
/// graph alone.
///
/// The keys in pred_edge are PACKED edge ids of the view the DAG was swept
/// on: read a key's tail through that view's edge_src() and its original
/// digraph edge id through its edge_slot(). A DAG is only meaningful
/// together with the view it came from.
struct sp_dag {
  std::vector<std::int32_t> dist;         // hop distance or `unreachable`
  std::vector<double> sigma;              // number of shortest paths from src
  std::vector<std::uint32_t> pred_begin;  // n + 1 offsets into pred_edge
  std::vector<edge_id> pred_edge;         // packed DAG edge keys, by head
  std::vector<node_id> order;             // nodes in non-decreasing distance

  /// Shortest-path in-edges of v, in discovery order.
  [[nodiscard]] std::span<const edge_id> pred(node_id v) const {
    return {pred_edge.data() + pred_begin[v],
            pred_edge.data() + pred_begin[v + 1]};
  }
};

/// BFS from `src` computing distances, path counts and the predecessor DAG.
/// sigma is stored as double: path counts grow exponentially with graph
/// size and only the ratios sigma_sv/sigma_sw are consumed downstream.
[[nodiscard]] sp_dag shortest_path_dag(const csr_graph& c, node_id src);

/// One DAG edge as a sweep discovers it: (head node, edge key).
using dag_edge = std::pair<node_id, edge_id>;

/// shortest_path_dag(c, src) into `out`, with `found` as the discovery
/// buffer; both keep their storage across calls.
void shortest_path_dag(const csr_graph& c, node_id src, sp_dag& out,
                       std::vector<dag_edge>& found);

/// Stable counting sort of `found` (discovery order) by head into the flat
/// pred_begin / pred_edge arrays of an n-node DAG, O(n + |found|). Stability
/// is the grouping contract of sp_dag: keys sharing a head keep discovery
/// order. Shared by shortest_path_dag and by sweeps that build their own
/// DAG (pcn::network's capacity-filtered path sampler).
void group_by_head(std::size_t n, const std::vector<dag_edge>& found,
                   std::vector<std::uint32_t>& pred_begin,
                   std::vector<edge_id>& pred_edge);

/// One shortest path (as node sequence, src first) or empty if unreachable.
[[nodiscard]] std::vector<node_id> shortest_path(const digraph& g, node_id src,
                                                 node_id dst);

}  // namespace lcg::graph

#endif  // LCG_GRAPH_TRAVERSAL_H
