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
//
// Layout. The view freezes the topology to a CSR once and keeps the belief
// in CSR *packed* order (`believed_[k]` is the balance of packed edge k), so
// the BFS reads a row's destinations and balances as two sequential runs.
// The sender's own row is scanned first, once, on live balances; every
// later row reads the belief. That is exact, not an approximation: the
// sender is marked seen before the search starts, so its row is never
// scanned again. A fresh view keeps no belief and reads live balances on
// every row.
//
// Scratch. find_route allocates nothing but the returned route: the view
// owns per-node `seen` stamps, packed parent ids and a flat FIFO, plus
// per-packed-edge `barred` stamps that the `excluded` list is mapped onto
// (through an edge-id -> packed-id table built once). A search bumps one
// stamp instead of clearing, and a full reset happens only when the stamp
// wraps. Because find_route writes that scratch, a view — even a const one
// — serves ONE thread at a time; concurrent searches need a view each.
//
// Why routes are unchanged against the plain BFS (one n-sized `seen` and
// `parent` per call, std::find over `excluded`, stop when the receiver is
// seen): the rows are scanned in the same order with the same three tests
// (seen, `balance < amount` — NaN balances pass, as before — and barred),
// so every node gets the same parent; the search stops as soon as the
// receiver is discovered, whose parent chain is already fixed by then.
// tests/traffic_router_test.cpp keeps that plain BFS as the reference.

#ifndef LCG_TRAFFIC_ROUTER_H
#define LCG_TRAFFIC_ROUTER_H

#include <cstdint>
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

  /// Nodes whose rows the last find_route on this view scanned (the
  /// sender's included; 0 when sender == receiver).
  [[nodiscard]] std::size_t last_visited() const noexcept {
    return scratch_.visited;
  }

 private:
  friend std::vector<graph::edge_id> find_route(
      const pcn::network& net, const balance_view& view,
      graph::node_id sender, graph::node_id receiver, double amount,
      const std::vector<graph::edge_id>& excluded);

  using packed_id = graph::csr_graph::packed_id;

  /// Per-search state, reused across calls (see the header comment).
  struct search_scratch {
    std::vector<std::uint32_t> seen;    // stamp per node
    std::vector<packed_id> parent;      // packed edge into each seen node
    std::vector<graph::node_id> queue;  // BFS FIFO, read by a head index
    std::vector<std::uint32_t> barred;  // stamp per packed edge
    std::uint32_t stamp = 0;
    std::size_t visited = 0;
  };

  template <bool Fresh>
  std::vector<graph::edge_id> search(
      graph::node_id sender, graph::node_id receiver, double amount,
      const std::vector<graph::edge_id>& excluded) const;

  const pcn::network* net_;
  bool fresh_;
  graph::csr_graph csr_;             // frozen topology (structure, not balances)
  std::vector<packed_id> packed_of_; // edge id -> packed id; npos if inactive
  std::vector<double> believed_;     // by packed id; empty when fresh
  std::uint64_t refreshes_ = 0;
  mutable search_scratch scratch_;
};

/// First-found shortest path from `sender` to `receiver` whose every edge
/// has believed balance >= `amount` and is not in `excluded` (a small,
/// per-payment list; ids that are out of range or inactive are ignored).
/// Empty when none exists or sender == receiver. Requires both nodes in
/// range, amount > 0, and `net` to be the network `view` was built from.
/// Writes the view's scratch: one thread per view.
[[nodiscard]] std::vector<graph::edge_id> find_route(
    const pcn::network& net, const balance_view& view, graph::node_id sender,
    graph::node_id receiver, double amount,
    const std::vector<graph::edge_id>& excluded);

}  // namespace lcg::traffic

#endif  // LCG_TRAFFIC_ROUTER_H
