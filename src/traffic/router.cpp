#include "traffic/router.h"

#include <algorithm>

#include "util/error.h"

namespace lcg::traffic {

balance_view::balance_view(const pcn::network& net, bool fresh)
    : net_(&net), fresh_(fresh), csr_(graph::freeze(net.topology())) {
  const std::size_t n = csr_.node_count();
  const std::size_t m = csr_.edge_count();
  packed_of_.assign(csr_.edge_slots(), graph::csr_graph::npos);
  for (packed_id k = 0; k < m; ++k) packed_of_[csr_.edge_slot(k)] = k;
  scratch_.seen.assign(n, 0);
  scratch_.parent.assign(n, graph::csr_graph::npos);
  scratch_.queue.assign(n, 0);
  scratch_.barred.assign(m, 0);
  if (!fresh_) refresh();
}

void balance_view::refresh() {
  if (fresh_) return;
  const graph::digraph& g = net_->topology();
  const std::vector<graph::edge_id>& slots = csr_.slots();
  believed_.resize(slots.size());
  for (std::size_t k = 0; k < slots.size(); ++k)
    believed_[k] = g.edge_at(slots[k]).capacity;
  ++refreshes_;
}

template <bool Fresh>
std::vector<graph::edge_id> balance_view::search(
    graph::node_id sender, graph::node_id receiver, double amount,
    const std::vector<graph::edge_id>& excluded) const {
  search_scratch& s = scratch_;
  if (++s.stamp == 0) {  // wrapped: stale stamps could now match
    std::fill(s.seen.begin(), s.seen.end(), 0);
    std::fill(s.barred.begin(), s.barred.end(), 0);
    s.stamp = 1;
  }
  const std::uint32_t stamp = s.stamp;
  for (const graph::edge_id e : excluded)
    if (e < packed_of_.size() && packed_of_[e] != graph::csr_graph::npos)
      s.barred[packed_of_[e]] = stamp;

  const packed_id* const row = csr_.rows().data();
  const graph::node_id* const col = csr_.cols().data();
  const graph::edge_id* const slot = csr_.slots().data();
  const double* const believed = believed_.data();
  const graph::digraph& g = net_->topology();
  std::uint32_t* const seen = s.seen.data();
  std::uint32_t* const barred = s.barred.data();
  packed_id* const parent = s.parent.data();
  graph::node_id* const queue = s.queue.data();
  std::size_t tail = 0;

  // Scans v's row in frozen order; true once the receiver is discovered
  // (its parent is then final, so the rest of the search cannot matter).
  const auto scan = [&](graph::node_id v, auto balance) {
    for (packed_id k = row[v]; k < row[v + 1]; ++k) {
      const graph::node_id dst = col[k];
      if (seen[dst] == stamp) continue;
      if (balance(k) < amount) continue;
      if (barred[k] == stamp) continue;
      seen[dst] = stamp;
      parent[dst] = k;
      if (dst == receiver) return true;
      queue[tail++] = dst;
    }
    return false;
  };
  const auto live = [&](packed_id k) { return g.edge_at(slot[k]).capacity; };
  const auto belief = [believed](packed_id k) { return believed[k]; };

  seen[sender] = stamp;
  bool found = scan(sender, live);  // a sender knows its own balances
  std::size_t head = 0;
  while (!found && head < tail) {
    const graph::node_id v = queue[head++];
    if constexpr (Fresh)
      found = scan(v, live);
    else
      found = scan(v, belief);
  }
  s.visited = head + 1;
  if (!found) return {};

  std::size_t hops = 0;
  for (graph::node_id v = receiver; v != sender; v = csr_.edge_src(parent[v]))
    ++hops;
  std::vector<graph::edge_id> route(hops);
  for (graph::node_id v = receiver; v != sender;) {
    const packed_id k = parent[v];
    route[--hops] = csr_.edge_slot(k);
    v = csr_.edge_src(k);
  }
  return route;
}

std::vector<graph::edge_id> find_route(
    const pcn::network& net, const balance_view& view, graph::node_id sender,
    graph::node_id receiver, double amount,
    const std::vector<graph::edge_id>& excluded) {
  LCG_EXPECTS(&net == view.net_);
  LCG_EXPECTS(view.csr_.has_node(sender));
  LCG_EXPECTS(view.csr_.has_node(receiver));
  LCG_EXPECTS(amount > 0.0);
  if (sender == receiver) {
    view.scratch_.visited = 0;
    return {};
  }
  return view.fresh_ ? view.search<true>(sender, receiver, amount, excluded)
                     : view.search<false>(sender, receiver, amount, excluded);
}

}  // namespace lcg::traffic
