// Source routing on a (possibly stale) balance view.
//
// Lightning routers do not see live channel balances: they learn capacities
// through gossip and route on that belief, so a feasible-looking route can
// fail mid-flight when a hop's real balance has since depleted — the
// failure mode the traffic engine exists to measure. `balance_view` models
// a global gossip horizon: all routers share one belief refreshed every
// `gossip_refresh` time units (refresh period 0 = always fresh). A sender
// always knows its OWN channels' live balances (it is a party to them), so
// first hops never fail on staleness.
//
// Routing itself is the same rule as pcn::network::execute_payment's
// deterministic mode — BFS for the first-found shortest path all of whose
// edges have (believed) balance >= amount — plus per-payment edge
// exclusions from the retry policy. With a fresh view and no exclusions it
// returns exactly the path execute_payment would take, which is what the
// degenerate-equivalence test pins (tests/traffic_engine_test.cpp).

#ifndef LCG_TRAFFIC_ROUTER_H
#define LCG_TRAFFIC_ROUTER_H

#include <vector>

#include "graph/csr.h"
#include "pcn/network.h"

namespace lcg::traffic {

class balance_view {
 public:
  /// `fresh` == true: the view always reports live balances (no copy is
  /// kept). Otherwise the belief is captured now and on every refresh().
  /// Either way the TOPOLOGY is frozen to a CSR view here: channel structure
  /// is static for the lifetime of a traffic run (only balances move), so
  /// every find_route BFS walks flat arrays instead of the adjacency lists.
  balance_view(const pcn::network& net, bool fresh);

  /// Re-learns every edge's current balance (a global gossip sweep).
  void refresh();

  [[nodiscard]] bool fresh() const noexcept { return fresh_; }
  [[nodiscard]] std::uint64_t refreshes() const noexcept { return refreshes_; }

  /// The frozen topology all routing runs on (per-node edge order identical
  /// to the digraph's, so routes match the adjacency-list BFS exactly).
  [[nodiscard]] const graph::csr_graph& frozen() const noexcept {
    return csr_;
  }

  /// The balance `sender` believes edge `e` (original edge id, source node
  /// `src`) has. Live balances are looked up in the network; the frozen
  /// capacities are NOT used (they are a snapshot of construction time,
  /// balances move every payment).
  [[nodiscard]] double believed(graph::edge_id e, graph::node_id src,
                                graph::node_id sender) const {
    if (fresh_ || src == sender)
      return net_->topology().edge_at(e).capacity;
    return believed_[e];
  }

 private:
  const pcn::network* net_;
  bool fresh_;
  graph::csr_graph csr_;          // frozen topology (structure, not balances)
  std::vector<double> believed_;  // by edge id; empty when fresh
  std::uint64_t refreshes_ = 0;
};

/// First-found shortest path from `sender` to `receiver` whose every edge
/// has believed balance >= `amount` and is not in `excluded` (a small,
/// per-payment list). Empty when none exists.
[[nodiscard]] std::vector<graph::edge_id> find_route(
    const pcn::network& net, const balance_view& view, graph::node_id sender,
    graph::node_id receiver, double amount,
    const std::vector<graph::edge_id>& excluded);

}  // namespace lcg::traffic

#endif  // LCG_TRAFFIC_ROUTER_H
