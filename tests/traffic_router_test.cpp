// traffic::find_route against the plain BFS it replaced.
//
// The router searches over packed believed balances with per-view scratch
// and stops as soon as the receiver is discovered. Its contract is that it
// returns exactly the route of the plain BFS below, which is kept verbatim
// as the reference: one n-sized `seen` and `parent` per call, a std::queue,
// balances looked up by edge id, std::find over `excluded`. The inputs are
// chosen to stress every place the two could part: balances moved by
// random lock/settle/fail sequences (zeros and exact ties with the amount),
// stale beliefs next to live sender rows, fresh views, exclusion lists with
// duplicates, the sender's own edges and out-of-range ids, unreachable
// receivers, closed channels, and thousands of calls on one view.

#include "traffic/router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <queue>
#include <string>
#include <thread>

#include "arena/export.h"
#include "runner/fixtures.h"
#include "util/error.h"
#include "util/rng.h"

namespace lcg::traffic {
namespace {

using graph::edge_id;
using graph::node_id;

/// The belief of the plain router: balances by EDGE ID, captured on
/// refresh(); the sender reads its own edges live.
class reference_view {
 public:
  reference_view(const pcn::network& net, bool fresh)
      : net_(&net), fresh_(fresh), csr_(graph::freeze(net.topology())) {
    if (!fresh_) refresh();
  }

  void refresh() {
    if (fresh_) return;
    const graph::digraph& g = net_->topology();
    believed_.resize(g.edge_slots());
    for (graph::edge_id e = 0; e < g.edge_slots(); ++e)
      believed_[e] = g.edge_at(e).capacity;
  }

  const graph::csr_graph& frozen() const { return csr_; }

  double believed(graph::edge_id e, graph::node_id src,
                  graph::node_id sender) const {
    if (fresh_ || src == sender)
      return net_->topology().edge_at(e).capacity;
    return believed_[e];
  }

 private:
  const pcn::network* net_;
  bool fresh_;
  graph::csr_graph csr_;
  std::vector<double> believed_;
};

/// The plain BFS router, as find_route was before the packed rewrite.
std::vector<graph::edge_id> reference_route(
    const pcn::network& net, const reference_view& view,
    graph::node_id sender, graph::node_id receiver, double amount,
    const std::vector<graph::edge_id>& excluded) {
  const graph::csr_graph& c = view.frozen();
  std::vector<graph::edge_id> parent_edge(c.node_count(),
                                          graph::invalid_edge);
  std::vector<char> seen(c.node_count(), 0);
  std::queue<graph::node_id> frontier;
  seen[sender] = 1;
  frontier.push(sender);
  while (!frontier.empty() && !seen[receiver]) {
    const graph::node_id v = frontier.front();
    frontier.pop();
    for (graph::csr_graph::packed_id k = c.row_begin(v); k < c.row_end(v);
         ++k) {
      const graph::node_id dst = c.edge_dst(k);
      if (seen[dst]) continue;
      const graph::edge_id e = c.edge_slot(k);
      if (view.believed(e, v, sender) < amount) continue;
      if (std::find(excluded.begin(), excluded.end(), e) != excluded.end())
        continue;
      seen[dst] = 1;
      parent_edge[dst] = e;
      frontier.push(dst);
    }
  }
  if (!seen[receiver]) return {};
  const graph::digraph& g = net.topology();
  std::vector<graph::edge_id> route;
  graph::node_id v = receiver;
  while (v != sender) {
    const graph::edge_id e = parent_edge[v];
    route.push_back(e);
    v = g.edge_at(e).src;
  }
  std::reverse(route.begin(), route.end());
  return route;
}

std::size_t pick(rng& gen, std::size_t n) {
  return static_cast<std::size_t>(
      gen.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// Moves balances by random HTLC lifecycles with whole amounts 1..4 on
/// channels of 4 per side, so balances hit 0 and tie query amounts
/// exactly. About one lock in eight is left in flight.
void churn_balances(pcn::network& net, rng& gen, std::size_t steps) {
  const graph::digraph& g = net.topology();
  for (std::size_t s = 0; s < steps; ++s) {
    const auto e = static_cast<edge_id>(pick(gen, g.edge_slots()));
    if (!g.edge_active(e)) continue;
    const auto amount = static_cast<double>(gen.uniform_int(1, 4));
    if (!net.try_lock_htlc(e, amount)) continue;
    const std::int64_t fate = gen.uniform_int(0, 7);
    if (fate < 5)
      net.settle_htlc(e, amount);
    else if (fate < 7)
      net.fail_htlc(e, amount);
  }
}

/// A per-payment exclusion list: empty, or a mix of random edges (repeats
/// included), the sender's own edges, and ids past the last edge slot.
std::vector<edge_id> random_excluded(const pcn::network& net, node_id sender,
                                     rng& gen) {
  std::vector<edge_id> out;
  const graph::digraph& g = net.topology();
  const std::int64_t count = gen.uniform_int(-2, 6);  // <= 0: none
  for (std::int64_t i = 0; i < count; ++i) {
    switch (gen.uniform_int(0, 4)) {
      case 0:
      case 1:
        out.push_back(static_cast<edge_id>(pick(gen, g.edge_slots())));
        break;
      case 2: {
        const std::vector<edge_id>& own = g.out_edge_ids(sender);
        if (!own.empty()) out.push_back(own[pick(gen, own.size())]);
        break;
      }
      case 3:
        if (!out.empty()) out.push_back(out[pick(gen, out.size())]);
        break;
      default:
        out.push_back(gen.uniform_int(0, 1) == 0
                          ? static_cast<edge_id>(g.edge_slots() +
                                                 pick(gen, 8))
                          : graph::invalid_edge);
        break;
    }
  }
  return out;
}

double random_amount(rng& gen) {
  static constexpr double amounts[] = {0.5, 1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 8.0};
  return amounts[pick(gen, std::size(amounts))];
}

pcn::network make_network(const std::string& topology, std::size_t n,
                          std::uint64_t seed) {
  rng gen(seed);
  return arena::to_network(runner::make_topology(topology, n, gen), 4.0);
}

/// Runs `calls` random queries against both routers and counts the routes
/// found; every route must be equal element for element.
std::size_t expect_same_routes(const pcn::network& net,
                               const balance_view& view,
                               const reference_view& ref, rng& gen,
                               std::size_t calls) {
  std::size_t found = 0;
  const std::size_t n = net.node_count();
  for (std::size_t i = 0; i < calls; ++i) {
    const auto sender = static_cast<node_id>(pick(gen, n));
    const auto receiver = static_cast<node_id>(pick(gen, n));
    const double amount = random_amount(gen);
    const std::vector<edge_id> excluded = random_excluded(net, sender, gen);
    const std::vector<edge_id> got =
        find_route(net, view, sender, receiver, amount, excluded);
    const std::vector<edge_id> want =
        reference_route(net, ref, sender, receiver, amount, excluded);
    EXPECT_EQ(got, want) << "sender " << sender << " receiver " << receiver
                         << " amount " << amount << " call " << i;
    if (got != want) return found;  // one report per network is enough
    found += got.empty() ? 0 : 1;
  }
  return found;
}

TEST(TrafficRouter, StaleViewMatchesPlainBfs) {
  for (const std::string topology : {"ws", "ba", "er"}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(topology + " seed " + std::to_string(seed));
      pcn::network net = make_network(topology, 48, seed);
      rng gen(seed * 977);
      churn_balances(net, gen, 600);
      balance_view view(net, false);
      reference_view ref(net, false);
      std::size_t found = 0;
      // Live balances move between queries, so every sender's live row
      // drifts from the belief; refreshes re-align the two now and then.
      for (std::size_t round = 0; round < 12; ++round) {
        churn_balances(net, gen, 80);
        found += expect_same_routes(net, view, ref, gen, 250);
        if (round % 3 == 2) {
          view.refresh();
          ref.refresh();
        }
      }
      EXPECT_EQ(view.refreshes(), 5u);
      EXPECT_GT(found, 100u);  // the comparison is not all empty routes
      EXPECT_LT(found, 12u * 250u);  // and not all trivially routable
    }
  }
}

TEST(TrafficRouter, FreshViewMatchesPlainBfs) {
  for (const std::string topology : {"ws", "ba", "er"}) {
    SCOPED_TRACE(topology);
    pcn::network net = make_network(topology, 40, 11);
    rng gen(5);
    churn_balances(net, gen, 500);
    const balance_view view(net, true);
    const reference_view ref(net, true);
    std::size_t found = 0;
    for (std::size_t round = 0; round < 8; ++round) {
      churn_balances(net, gen, 60);
      found += expect_same_routes(net, view, ref, gen, 250);
    }
    EXPECT_GT(found, 100u);
  }
}

TEST(TrafficRouter, UnreachableReceiversClosedChannelsAndExclusions) {
  // Two components {0,1,2,3} and {4,5}, an isolated node 6, one closed
  // channel (its edges stay as inactive slots) and a zero-balance side.
  pcn::network net(7);
  net.open_channel(0, 1, 4.0, 4.0);
  const pcn::channel_id closed = net.open_channel(1, 2, 4.0, 4.0);
  net.open_channel(0, 2, 2.0, 0.0);  // 2 -> 0 has zero balance
  net.open_channel(2, 3, 4.0, 4.0);
  net.open_channel(1, 3, 1.0, 4.0);
  net.open_channel(4, 5, 4.0, 4.0);
  net.close_channel(closed, pcn::close_mode::collaborative);
  const pcn::channel& gone = net.channel_at(closed);
  const edge_id past_end = static_cast<edge_id>(net.topology().edge_slots());

  for (const bool fresh : {false, true}) {
    SCOPED_TRACE(fresh ? "fresh" : "stale");
    const balance_view view(net, fresh);
    const reference_view ref(net, fresh);
    const std::vector<std::vector<edge_id>> exclusions = {
        {},
        {gone.edge_ab, gone.edge_ba},
        {past_end, past_end + 5, graph::invalid_edge},
        {net.topology().out_edge_ids(0).front(),
         net.topology().out_edge_ids(0).front()},
    };
    for (node_id s = 0; s < 7; ++s) {
      for (node_id r = 0; r < 7; ++r) {
        for (const double amount : {1.0, 2.0, 3.0, 4.0, 4.5}) {
          for (const std::vector<edge_id>& excluded : exclusions) {
            EXPECT_EQ(find_route(net, view, s, r, amount, excluded),
                      reference_route(net, ref, s, r, amount, excluded))
                << s << " -> " << r << " amount " << amount;
          }
        }
      }
    }
    // Other component, isolated node, and a zero-balance only way back.
    EXPECT_TRUE(find_route(net, view, 0, 5, 1.0, {}).empty());
    EXPECT_TRUE(find_route(net, view, 6, 0, 1.0, {}).empty());
    EXPECT_TRUE(find_route(net, view, 0, 6, 1.0, {}).empty());
    EXPECT_TRUE(find_route(net, view, 0, 0, 1.0, {}).empty());
    EXPECT_EQ(view.last_visited(), 0u);
    // Unreachable: the search scans the whole component {4, 5}.
    EXPECT_TRUE(find_route(net, view, 4, 0, 1.0, {}).empty());
    EXPECT_EQ(view.last_visited(), 2u);
    const std::vector<edge_id> direct = find_route(net, view, 0, 1, 1.0, {});
    ASSERT_EQ(direct.size(), 1u);
    EXPECT_EQ(view.last_visited(), 1u);  // found on the sender's own row
  }
}

TEST(TrafficRouter, SenderRowIsLiveWhileOtherRowsAreBelieved) {
  // Path 0 - 1 - 2 with the belief captured at 4 per side. Draining
  // 1 -> 2 live leaves it believed full for every sender but node 1,
  // which reads its own row live.
  pcn::network net(3);
  net.open_channel(0, 1, 4.0, 4.0);
  net.open_channel(1, 2, 4.0, 4.0);
  const balance_view view(net, false);
  const edge_id e01 = net.topology().out_edge_ids(0).front();
  const edge_id e12 = net.channel_at(1).edge_ab;
  ASSERT_TRUE(net.try_lock_htlc(e12, 4.0));
  // 1 -> 2 is empty live but still believed at 4: 0 routes through it.
  EXPECT_EQ(find_route(net, view, 0, 2, 3.0, {}),
            (std::vector<edge_id>{e01, e12}));
  // From 1 it is the sender's own edge, read live: no route.
  EXPECT_TRUE(find_route(net, view, 1, 2, 3.0, {}).empty());
  ASSERT_TRUE(net.try_lock_htlc(e01, 4.0));
  EXPECT_TRUE(find_route(net, view, 0, 2, 3.0, {}).empty());
  net.fail_htlc(e01, 4.0);
  net.fail_htlc(e12, 4.0);
}

TEST(TrafficRouter, PreconditionsAreChecked) {
  const pcn::network net = make_network("ws", 12, 3);
  const pcn::network copy = net;
  const balance_view view(net, false);
  const std::vector<edge_id> none;
  EXPECT_THROW((void)find_route(net, view, 12, 0, 1.0, none),
               precondition_error);
  EXPECT_THROW((void)find_route(net, view, 0, 12, 1.0, none),
               precondition_error);
  EXPECT_THROW((void)find_route(net, view, 0, graph::invalid_node, 1.0, none),
               precondition_error);
  EXPECT_THROW((void)find_route(net, view, 0, 1, 0.0, none),
               precondition_error);
  EXPECT_THROW((void)find_route(net, view, 0, 1, -1.0, none),
               precondition_error);
  EXPECT_THROW((void)find_route(net, view, 0, 1,
                                std::numeric_limits<double>::quiet_NaN(),
                                none),
               precondition_error);
  EXPECT_THROW((void)find_route(copy, view, 0, 1, 1.0, none),
               precondition_error);
  EXPECT_FALSE(find_route(net, view, 0, 1, 1.0, none).empty());
}

TEST(TrafficRouter, ViewsOnTwoThreadsRouteIndependently) {
  // One view per thread, each over its own network: the scratch a view
  // owns is never shared. Both threads run at once, then every route is
  // checked against the single-threaded reference.
  pcn::network a = make_network("ws", 64, 21);
  pcn::network b = make_network("ba", 64, 22);
  rng churn(9);
  churn_balances(a, churn, 800);
  churn_balances(b, churn, 800);
  const balance_view view_a(a, false);
  const balance_view view_b(b, false);

  struct query {
    node_id sender, receiver;
    double amount;
  };
  const auto make_queries = [](std::uint64_t seed) {
    rng gen(seed);
    std::vector<query> qs(3000);
    for (query& q : qs)
      q = {static_cast<node_id>(pick(gen, 64)),
           static_cast<node_id>(pick(gen, 64)), random_amount(gen)};
    return qs;
  };
  const std::vector<query> qa = make_queries(1);
  const std::vector<query> qb = make_queries(2);
  std::vector<std::vector<edge_id>> ra(qa.size()), rb(qb.size());
  const std::vector<edge_id> none;
  const auto work = [&none](const pcn::network& net, const balance_view& view,
                            const std::vector<query>& qs,
                            std::vector<std::vector<edge_id>>& out) {
    for (std::size_t i = 0; i < qs.size(); ++i)
      out[i] = find_route(net, view, qs[i].sender, qs[i].receiver,
                          qs[i].amount, none);
  };
  std::thread ta(work, std::cref(a), std::cref(view_a), std::cref(qa),
                 std::ref(ra));
  std::thread tb(work, std::cref(b), std::cref(view_b), std::cref(qb),
                 std::ref(rb));
  ta.join();
  tb.join();

  const reference_view ref_a(a, false);
  const reference_view ref_b(b, false);
  for (std::size_t i = 0; i < qa.size(); ++i) {
    ASSERT_EQ(ra[i], reference_route(a, ref_a, qa[i].sender, qa[i].receiver,
                                     qa[i].amount, none))
        << i;
    ASSERT_EQ(rb[i], reference_route(b, ref_b, qb[i].sender, qb[i].receiver,
                                     qb[i].amount, none))
        << i;
  }
}

}  // namespace
}  // namespace lcg::traffic
