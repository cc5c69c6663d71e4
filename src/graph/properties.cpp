#include "graph/properties.h"

#include <algorithm>

#include "graph/csr.h"
#include "graph/traversal.h"

namespace lcg::graph {

bool is_strongly_connected(const digraph& g) {
  const std::size_t n = g.node_count();
  if (n <= 1) return true;
  // Forward reachability from node 0.
  const auto fwd = bfs_distances(g, 0);
  if (std::any_of(fwd.begin(), fwd.end(),
                  [](std::int32_t d) { return d == unreachable; }))
    return false;
  // Backward reachability: BFS on the reverse adjacency.
  std::vector<char> seen(n, 0);
  std::vector<node_id> stack{0};
  seen[0] = 1;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const node_id v = stack.back();
    stack.pop_back();
    g.for_each_in(v, [&](edge_id, const edge& e) {
      if (!seen[e.src]) {
        seen[e.src] = 1;
        ++visited;
        stack.push_back(e.src);
      }
    });
  }
  return visited == n;
}

std::int32_t eccentricity(const csr_graph& c, node_id v) {
  const auto dist = bfs_distances(c, v);
  std::int32_t ecc = 0;
  for (const std::int32_t d : dist) {
    if (d == unreachable) return unreachable;
    ecc = std::max(ecc, d);
  }
  return ecc;
}

std::int32_t eccentricity(const digraph& g, node_id v) {
  return eccentricity(freeze(g), v);
}

std::int32_t diameter(const digraph& g) {
  const csr_graph c = freeze(g);
  std::int32_t diam = 0;
  for (node_id v = 0; v < g.node_count(); ++v) {
    const std::int32_t ecc = eccentricity(c, v);
    if (ecc == unreachable) return unreachable;
    diam = std::max(diam, ecc);
  }
  return diam;
}

std::int32_t longest_shortest_path_through(const digraph& g, node_id v) {
  LCG_EXPECTS(g.has_node(v));
  const std::size_t n = g.node_count();
  // d(s, v) for all s: BFS on reverse edges from v; d(v, t): forward BFS.
  const csr_graph c = freeze(g);
  const auto from_v = bfs_distances(c, v);
  std::vector<std::int32_t> to_v(n, unreachable);
  {
    std::vector<node_id> queue{v};
    to_v[v] = 0;
    std::size_t head = 0;
    while (head < queue.size()) {
      const node_id w = queue[head++];
      g.for_each_in(w, [&](edge_id, const edge& e) {
        if (to_v[e.src] == unreachable) {
          to_v[e.src] = to_v[w] + 1;
          queue.push_back(e.src);
        }
      });
    }
  }
  std::int32_t best = unreachable;
  for (node_id s = 0; s < n; ++s) {
    if (to_v[s] == unreachable) continue;
    const auto dist_s = bfs_distances(c, s);
    for (node_id t = 0; t < n; ++t) {
      if (t == s || dist_s[t] == unreachable || from_v[t] == unreachable)
        continue;
      if (to_v[s] + from_v[t] == dist_s[t])
        best = std::max(best, dist_s[t]);
    }
  }
  return best;
}

std::vector<std::size_t> in_degrees(const digraph& g) {
  std::vector<std::size_t> degrees(g.node_count());
  for (node_id v = 0; v < g.node_count(); ++v) degrees[v] = g.in_degree(v);
  return degrees;
}

node_id max_degree_node(const digraph& g) {
  LCG_EXPECTS(g.node_count() > 0);
  node_id best = 0;
  std::size_t best_degree = 0;
  for (node_id v = 0; v < g.node_count(); ++v) {
    const std::size_t d = g.in_degree(v) + g.out_degree(v);
    if (d > best_degree) {
      best_degree = d;
      best = v;
    }
  }
  return best;
}

}  // namespace lcg::graph
