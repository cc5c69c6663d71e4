#include "graph/traversal.h"

#include <algorithm>
#include <limits>
#include <queue>

namespace lcg::graph {

std::vector<std::int32_t> bfs_distances(const digraph& g, node_id src) {
  LCG_EXPECTS(g.has_node(src));
  std::vector<std::int32_t> dist(g.node_count(), unreachable);
  std::queue<node_id> frontier;
  dist[src] = 0;
  frontier.push(src);
  while (!frontier.empty()) {
    const node_id v = frontier.front();
    frontier.pop();
    g.for_each_out(v, [&](edge_id, const edge& e) {
      if (dist[e.dst] == unreachable) {
        dist[e.dst] = dist[v] + 1;
        frontier.push(e.dst);
      }
    });
  }
  return dist;
}

sp_dag shortest_path_dag(const digraph& g, node_id src) {
  LCG_EXPECTS(g.has_node(src));
  return detail::sweep_sp_dag(
      g.node_count(), g.edge_count(), src, [&g](node_id v, auto&& visit) {
        g.for_each_out(v, [&](edge_id e, const edge& ed) { visit(e, ed.dst); });
      });
}

void group_by_head(std::size_t n, const std::vector<dag_edge>& found,
                   std::vector<std::uint32_t>& pred_begin,
                   std::vector<edge_id>& pred_edge) {
  LCG_EXPECTS(found.size() <= std::numeric_limits<std::uint32_t>::max());
  // Counts land one slot ahead of their head (begin[w + 2]), so after the
  // prefix sum begin[w + 1] is w's first offset and serves as its write
  // cursor; once every key is placed, begin[w + 1] has advanced to w's end,
  // i.e. (w + 1)'s start, and begin[0 .. n] are the final offsets.
  pred_begin.assign(n + 2, 0);
  for (const dag_edge& de : found) ++pred_begin[de.first + 2];
  for (std::size_t v = 2; v < n + 2; ++v) pred_begin[v] += pred_begin[v - 1];
  pred_edge.resize(found.size());
  for (const auto& [w, key] : found) pred_edge[pred_begin[w + 1]++] = key;
  pred_begin.pop_back();
}

std::vector<std::vector<std::int32_t>> all_pairs_distances(const digraph& g) {
  std::vector<std::vector<std::int32_t>> dist;
  dist.reserve(g.node_count());
  for (node_id s = 0; s < g.node_count(); ++s)
    dist.push_back(bfs_distances(g, s));
  return dist;
}

std::vector<node_id> shortest_path(const digraph& g, node_id src,
                                   node_id dst) {
  LCG_EXPECTS(g.has_node(src) && g.has_node(dst));
  const sp_dag dag = shortest_path_dag(g, src);
  if (dag.dist[dst] == unreachable) return {};
  std::vector<node_id> path;
  node_id v = dst;
  path.push_back(v);
  while (v != src) {
    const edge_id e = dag.pred(v).front();
    v = g.edge_at(e).src;
    path.push_back(v);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace lcg::graph
