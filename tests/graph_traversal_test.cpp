// graph/traversal.h: BFS distances, the shortest-path DAG and path
// reconstruction against hand-computed values. The kernels walk a frozen
// view; the digraph entry points freeze and forward.

#include "graph/traversal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "graph/csr.h"
#include "graph/generators.h"

namespace lcg::graph {
namespace {

TEST(Bfs, PathGraphDistances) {
  const digraph g = path_graph(5);
  const auto dist = bfs_distances(g, 0);
  for (node_id v = 0; v < 5; ++v)
    EXPECT_EQ(dist[v], static_cast<std::int32_t>(v));
}

TEST(Bfs, UnreachableIsMinusOne) {
  digraph g(3);
  g.add_edge(0, 1);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[2], unreachable);
}

TEST(Bfs, RespectsDirection) {
  digraph g(2);
  g.add_edge(0, 1);
  EXPECT_EQ(bfs_distances(g, 1)[0], unreachable);
}

TEST(Bfs, IgnoresInactiveEdges) {
  digraph g(3);
  const edge_id e = g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.remove_edge(e);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[1], unreachable);
  EXPECT_EQ(dist[2], unreachable);
}

TEST(SpDag, CountsShortestPathsInDiamond) {
  // 0 -> {1, 2} -> 3: two shortest paths from 0 to 3.
  digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  const csr_graph c = freeze(g);
  const sp_dag dag = shortest_path_dag(c, 0);
  EXPECT_EQ(dag.dist[3], 2);
  EXPECT_DOUBLE_EQ(dag.sigma[3], 2.0);
  EXPECT_DOUBLE_EQ(dag.sigma[1], 1.0);
  ASSERT_EQ(dag.pred(3).size(), 2u);
  // Discovery order: 1 -> 3 is scanned before 2 -> 3.
  EXPECT_EQ(c.edge_src(dag.pred(3)[0]), 1u);
  EXPECT_EQ(c.edge_src(dag.pred(3)[1]), 2u);
  EXPECT_EQ(dag.order, (std::vector<node_id>{0, 1, 2, 3}));
  // Order is non-decreasing in distance.
  for (std::size_t i = 1; i < dag.order.size(); ++i)
    EXPECT_LE(dag.dist[dag.order[i - 1]], dag.dist[dag.order[i]]);
}

TEST(SpDag, ParallelEdgesMultiplyPaths) {
  digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  const sp_dag dag = shortest_path_dag(freeze(g), 0);
  EXPECT_DOUBLE_EQ(dag.sigma[1], 2.0);
}

TEST(SpDag, CycleGraphTwoWayCounts) {
  const digraph g = cycle_graph(4);
  const sp_dag dag = shortest_path_dag(freeze(g), 0);
  // Opposite node reachable two ways around the cycle.
  EXPECT_EQ(dag.dist[2], 2);
  EXPECT_DOUBLE_EQ(dag.sigma[2], 2.0);
}

TEST(SpDag, PredKeysArePackedIdsOfTheView) {
  // With an inactive slot ahead of them, packed ids differ from edge ids:
  // pred keys read back through the view that was swept.
  digraph g(3);
  const edge_id dead = g.add_edge(0, 2);
  const edge_id e01 = g.add_edge(0, 1);
  const edge_id e12 = g.add_edge(1, 2);
  g.remove_edge(dead);
  const csr_graph c = freeze(g);
  const sp_dag dag = shortest_path_dag(c, 0);
  EXPECT_EQ(dag.dist, (std::vector<std::int32_t>{0, 1, 2}));
  EXPECT_EQ(dag.pred_begin, (std::vector<std::uint32_t>{0, 0, 1, 2}));
  ASSERT_EQ(dag.pred_edge.size(), 2u);
  EXPECT_EQ(dag.pred_edge[0], 0u);  // packed, while e01 == 1
  EXPECT_EQ(c.edge_slot(dag.pred(1).front()), e01);
  EXPECT_EQ(c.edge_slot(dag.pred(2).front()), e12);
  EXPECT_EQ(c.edge_src(dag.pred(2).front()), 1u);
}

TEST(Bfs, CycleDistancesFromEverySource) {
  // A bidirectional 6-cycle: d(s, t) = min(|s - t|, 6 - |s - t|), over one
  // frozen view and through the digraph entry point alike.
  const digraph g = cycle_graph(6);
  const csr_graph c = freeze(g);
  for (node_id s = 0; s < 6; ++s) {
    std::vector<std::int32_t> want(6);
    for (node_id t = 0; t < 6; ++t) {
      const int diff = std::abs(static_cast<int>(s) - static_cast<int>(t));
      want[t] = std::min(diff, 6 - diff);
    }
    EXPECT_EQ(bfs_distances(c, s), want) << "source " << s;
    EXPECT_EQ(bfs_distances(g, s), want) << "source " << s;
  }
}

TEST(ShortestPath, ReconstructsValidPath) {
  const digraph g = grid_graph(3, 3);
  const auto path = shortest_path(g, 0, 8);
  ASSERT_EQ(path.size(), 5u);  // 4 hops across the grid
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), 8u);
  for (std::size_t i = 1; i < path.size(); ++i)
    EXPECT_NE(g.find_edge(path[i - 1], path[i]), invalid_edge);
}

TEST(ShortestPath, EmptyWhenUnreachable) {
  digraph g(2);
  EXPECT_TRUE(shortest_path(g, 0, 1).empty());
}

TEST(ShortestPath, TrivialSelf) {
  digraph g(1);
  const auto path = shortest_path(g, 0, 0);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], 0u);
}

}  // namespace
}  // namespace lcg::graph
