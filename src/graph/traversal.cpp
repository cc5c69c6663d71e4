#include "graph/traversal.h"

#include <algorithm>
#include <limits>

#include "graph/csr.h"

namespace lcg::graph {

std::vector<std::int32_t> bfs_distances(const csr_graph& c, node_id src) {
  std::vector<std::int32_t> dist;
  std::vector<node_id> queue;
  bfs_distances(c, src, dist, queue);
  return dist;
}

void bfs_distances(const csr_graph& c, node_id src,
                   std::vector<std::int32_t>& dist,
                   std::vector<node_id>& queue) {
  LCG_EXPECTS(c.has_node(src));
  dist.assign(c.node_count(), unreachable);
  queue.clear();
  queue.reserve(c.node_count());
  dist[src] = 0;
  queue.push_back(src);
  for (std::size_t popped = 0; popped < queue.size(); ++popped) {
    const node_id v = queue[popped];
    for (csr_graph::packed_id k = c.row_begin(v); k < c.row_end(v); ++k) {
      const node_id w = c.edge_dst(k);
      if (dist[w] == unreachable) {
        dist[w] = dist[v] + 1;
        queue.push_back(w);
      }
    }
  }
}

std::vector<std::int32_t> bfs_distances(const digraph& g, node_id src) {
  return bfs_distances(freeze(g), src);
}

sp_dag shortest_path_dag(const csr_graph& c, node_id src) {
  sp_dag r;
  std::vector<dag_edge> found;
  shortest_path_dag(c, src, r, found);
  return r;
}

void shortest_path_dag(const csr_graph& c, node_id src, sp_dag& r,
                       std::vector<dag_edge>& found) {
  LCG_EXPECTS(c.has_node(src));
  const std::size_t n = c.node_count();
  r.dist.assign(n, unreachable);
  r.sigma.assign(n, 0.0);
  r.order.clear();
  r.order.reserve(n);
  found.clear();
  found.reserve(c.edge_count());
  r.dist[src] = 0;
  r.sigma[src] = 1.0;
  r.order.push_back(src);
  // `order` doubles as the FIFO queue: nodes are popped in exactly the
  // order they were pushed.
  for (std::size_t popped = 0; popped < r.order.size(); ++popped) {
    const node_id v = r.order[popped];
    const std::int32_t next = r.dist[v] + 1;
    for (csr_graph::packed_id k = c.row_begin(v); k < c.row_end(v); ++k) {
      const node_id w = c.edge_dst(k);
      if (r.dist[w] == unreachable) {
        r.dist[w] = next;
        r.order.push_back(w);
      }
      if (r.dist[w] == next) {
        r.sigma[w] += r.sigma[v];
        found.emplace_back(w, k);
      }
    }
  }
  group_by_head(n, found, r.pred_begin, r.pred_edge);
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

std::vector<node_id> shortest_path(const digraph& g, node_id src,
                                   node_id dst) {
  LCG_EXPECTS(g.has_node(src) && g.has_node(dst));
  const csr_graph c = freeze(g);
  const sp_dag dag = shortest_path_dag(c, src);
  if (dag.dist[dst] == unreachable) return {};
  std::vector<node_id> path;
  node_id v = dst;
  path.push_back(v);
  while (v != src) {
    v = c.edge_src(dag.pred(v).front());
    path.push_back(v);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace lcg::graph
