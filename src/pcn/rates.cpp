#include "pcn/rates.h"

#include "graph/betweenness.h"
#include "graph/csr.h"
#include "graph/subgraph.h"
#include "graph/traversal.h"

namespace lcg::pcn {

rate_result edge_transaction_rates(const graph::digraph& g,
                                   const dist::demand_model& demand,
                                   double tx_size,
                                   const graph::betweenness_options& options) {
  LCG_EXPECTS(demand.node_count() == g.node_count());
  rate_result result;
  result.edge_rate.assign(g.edge_slots(), 0.0);

  const auto compute = [&](const graph::digraph& host,
                           const std::vector<graph::edge_id>* edge_map) {
    // One freeze serves the Brandes sweep and the reachability BFS loop.
    const graph::csr_graph frozen = graph::freeze(host);
    const graph::betweenness_result b =
        graph::weighted_betweenness(frozen, demand.weight_fn(), options);
    for (graph::edge_id e = 0; e < b.edge.size(); ++e) {
      const graph::edge_id original = edge_map ? (*edge_map)[e] : e;
      result.edge_rate[original] = b.edge[e];
    }
    // Demand between pairs disconnected in `host` is unroutable.
    for (graph::node_id s = 0; s < host.node_count(); ++s) {
      const auto dist_s = graph::bfs_distances(frozen, s);
      for (graph::node_id r = 0; r < host.node_count(); ++r) {
        if (r != s && dist_s[r] == graph::unreachable)
          result.unroutable_rate += demand.pair_weight(s, r);
      }
    }
  };

  if (tx_size > 0.0) {
    const graph::subgraph_result reduced =
        graph::reduced_by_capacity(g, tx_size);
    compute(reduced.graph, &reduced.original_edge);
  } else {
    compute(g, nullptr);
  }
  return result;
}

double node_through_rate(const graph::digraph& g,
                         const dist::demand_model& demand, graph::node_id v,
                         double tx_size,
                         const graph::betweenness_options& options) {
  LCG_EXPECTS(demand.node_count() == g.node_count());
  if (tx_size > 0.0) {
    const graph::subgraph_result reduced =
        graph::reduced_by_capacity(g, tx_size);
    return graph::node_betweenness_of(reduced.graph, v, demand.weight_fn(),
                                      options);
  }
  return graph::node_betweenness_of(g, v, demand.weight_fn(), options);
}

}  // namespace lcg::pcn
