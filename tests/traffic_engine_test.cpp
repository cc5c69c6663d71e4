// The discrete-event HTLC traffic engine (src/traffic/): lock/settle/fail
// lifecycles against pcn::network, stale-gossip mid-flight failures, retry
// policies, timeouts, concurrency caps, determinism — and the degenerate
// equivalence that anchors the whole subsystem: with zero hop latency, a
// fresh balance view and no retries the engine must reproduce the
// synchronous sim::run_simulation (deterministic routing) exactly.

#include "traffic/engine.h"

#include <gtest/gtest.h>

#include "obs/registry.h"
#include "sim/engine.h"
#include "traffic/retry.h"
#include "util/error.h"

namespace lcg::traffic {
namespace {

dist::demand_model uniform_demand(const graph::digraph& g, double total) {
  const dist::uniform_transaction_distribution u;
  return dist::demand_model(g, u, total);
}

pcn::network cycle_network(std::size_t n, double balance) {
  pcn::network net(n);
  for (graph::node_id v = 0; v < n; ++v) {
    net.open_channel(v, static_cast<graph::node_id>((v + 1) % n), balance,
                     balance);
  }
  return net;
}

/// Demand where only `sender` emits, always toward `receiver`.
dist::demand_model point_demand(const graph::digraph& g,
                                graph::node_id sender,
                                graph::node_id receiver, double rate) {
  std::vector<std::vector<double>> rows(
      g.node_count(), std::vector<double>(g.node_count(), 0.0));
  rows[sender][receiver] = 1.0;
  const dist::matrix_transaction_distribution matrix(rows);
  std::vector<double> rates(g.node_count(), 0.0);
  rates[sender] = rate;
  return dist::demand_model(g, matrix, rates);
}

/// Every payment reaches exactly one terminal outcome.
void expect_outcomes_account(const traffic_metrics& m) {
  EXPECT_EQ(m.attempted, m.delivered + m.failed_no_route +
                             m.failed_mid_flight + m.timed_out);
}

TEST(TrafficEngine, DegenerateConfigMatchesSynchronousSimulator) {
  // Zero hop latency + fresh view + no retries: the event engine runs each
  // payment to completion before admitting the next, routes with the same
  // BFS as execute_payment's deterministic mode, and must agree with
  // sim::run_simulation on every count, fee cell and final balance.
  const auto build = [] { return cycle_network(6, 25.0); };
  const dist::uniform_tx_size sizes(2.0);
  const dist::constant_fee fee(0.25);

  pcn::network net_sync = build();
  const auto demand = uniform_demand(net_sync.topology(), 10.0);
  sim::workload_generator wl_sync(demand, sizes, 77);
  sim::sim_config sc;
  sc.horizon = 60.0;
  sc.fee = &fee;
  sc.random_tie_break = false;
  const sim::sim_metrics sync = sim::run_simulation(net_sync, wl_sync, sc);

  pcn::network net_ev = build();
  sim::workload_generator wl_ev(demand, sizes, 77);
  traffic_config tc;
  tc.horizon = 60.0;
  tc.fee = &fee;
  const traffic_metrics ev = run_traffic(net_ev, wl_ev, tc);

  ASSERT_GT(sync.attempted, 100u);
  EXPECT_EQ(ev.attempted, sync.attempted);
  EXPECT_EQ(ev.delivered, sync.succeeded);
  EXPECT_EQ(ev.infeasible_input, sync.infeasible_input);
  EXPECT_EQ(ev.volume_attempted, sync.volume_attempted);
  EXPECT_EQ(ev.volume_delivered, sync.volume_delivered);
  EXPECT_EQ(ev.failed_mid_flight, 0u);  // fresh view, sequential payments
  EXPECT_EQ(ev.retries, 0u);
  EXPECT_EQ(ev.max_inflight_seen, 1u);
  for (graph::node_id v = 0; v < 6; ++v) {
    EXPECT_EQ(ev.fees_earned[v], sync.fees_earned[v]) << v;
    EXPECT_EQ(ev.fees_paid[v], sync.fees_paid[v]) << v;
    EXPECT_EQ(ev.forwarded[v], sync.forwarded[v]) << v;
  }
  for (pcn::channel_id id = 0; id < 6; ++id) {
    const pcn::channel& a = net_sync.channel_at(id);
    const pcn::channel& b = net_ev.channel_at(id);
    EXPECT_EQ(a.balance_a, b.balance_a) << id;
    EXPECT_EQ(a.balance_b, b.balance_b) << id;
  }
  EXPECT_EQ(net_ev.total_locked(), 0.0);
  expect_outcomes_account(ev);
}

TEST(TrafficEngine, ConservesFundsAndReleasesAllLocks) {
  pcn::network net = cycle_network(8, 10.0);
  const auto demand = uniform_demand(net.topology(), 16.0);
  const dist::uniform_tx_size sizes(3.0);
  sim::workload_generator wl(demand, sizes, 3);
  traffic_config tc;
  tc.horizon = 50.0;
  tc.hop_latency = 0.1;
  tc.htlc_timeout = 1.0;
  tc.gossip_refresh = 2.0;
  tc.retry.kind = retry_kind::exclude;
  const traffic_metrics m = run_traffic(net, wl, tc);
  ASSERT_GT(m.attempted, 100u);
  // Every HTLC released; concurrent lock/release on a channel adds the
  // same doubles in different orders, so allow non-associativity residue.
  EXPECT_NEAR(net.total_locked(), 0.0, 1e-9);
  double total = 0.0;
  for (pcn::channel_id id = 0; id < 8; ++id)
    total += net.channel_at(id).total_capacity();
  EXPECT_NEAR(total, 8 * 20.0, 1e-9);
  expect_outcomes_account(m);
}

TEST(TrafficEngine, StaleGossipCausesMidFlightFailures) {
  // 0 -> 1 -> 2 with a deep first hop and a 30-coin second hop. The sender
  // sees its own channel live, but the second hop's depletion only reaches
  // the router through gossip — with refreshes off, every payment after the
  // 30th locks hop one and then fails mid-flight at hop two.
  pcn::network net(3);
  net.open_channel(0, 1, 1000.0, 0.0);
  net.open_channel(1, 2, 30.0, 0.0);
  const auto demand = point_demand(net.topology(), 0, 2, 5.0);
  const dist::fixed_tx_size sizes(1.0);
  sim::workload_generator wl(demand, sizes, 11);
  traffic_config tc;
  tc.horizon = 100.0;
  tc.gossip_refresh = 1e6;  // belief frozen at the initial balances
  const traffic_metrics m = run_traffic(net, wl, tc);
  ASSERT_GT(m.attempted, 200u);
  EXPECT_EQ(m.delivered, 30u);  // exactly the second hop's initial coins
  EXPECT_EQ(m.failed_mid_flight, m.attempted - 30);
  EXPECT_EQ(m.failed_no_route, 0u);  // the stale view never says "no path"
  EXPECT_EQ(m.lock_failures, m.failed_mid_flight);
  EXPECT_EQ(net.total_locked(), 0.0);

  // Same setup with a fresh view: depletion is visible immediately, so
  // failures become no_route and nothing ever fails mid-flight.
  pcn::network net2(3);
  net2.open_channel(0, 1, 1000.0, 0.0);
  net2.open_channel(1, 2, 30.0, 0.0);
  sim::workload_generator wl2(demand, sizes, 11);
  tc.gossip_refresh = 0.0;
  const traffic_metrics fresh = run_traffic(net2, wl2, tc);
  EXPECT_EQ(fresh.delivered, 30u);
  EXPECT_EQ(fresh.failed_mid_flight, 0u);
  EXPECT_EQ(fresh.failed_no_route, fresh.attempted - 30);
}

TEST(TrafficEngine, ExcludeRetryReroutesAroundFailingEdge) {
  // Diamond 0-{1,2}-3. The router prefers the 0-1-3 arm (opened first) on
  // its frozen belief; once 1-3's 20 coins deplete, exclude-retry must
  // blacklist the failing edge and deliver over 0-2-3 instead.
  const auto build = [] {
    pcn::network net(4);
    net.open_channel(0, 1, 500.0, 0.0);
    net.open_channel(1, 3, 20.0, 0.0);
    net.open_channel(0, 2, 500.0, 0.0);
    net.open_channel(2, 3, 200.0, 0.0);
    return net;
  };
  pcn::network net = build();
  const auto demand = point_demand(net.topology(), 0, 3, 4.0);
  const dist::fixed_tx_size sizes(1.0);
  traffic_config tc;
  tc.horizon = 40.0;
  tc.gossip_refresh = 1e6;

  sim::workload_generator wl_none(demand, sizes, 23);
  const traffic_metrics none = run_traffic(net, wl_none, tc);

  pcn::network net2 = build();
  sim::workload_generator wl_ex(demand, sizes, 23);
  tc.retry.kind = retry_kind::exclude;
  const traffic_metrics ex = run_traffic(net2, wl_ex, tc);

  ASSERT_GT(none.attempted, 100u);
  EXPECT_EQ(none.delivered, 20u);  // stuck on the depleted arm
  EXPECT_GT(none.failed_mid_flight, 0u);
  EXPECT_EQ(ex.attempted, none.attempted);  // same workload stream
  EXPECT_GT(ex.retries, 0u);
  EXPECT_GT(ex.delivered, 100u);  // re-routed over the 0-2-3 arm
  expect_outcomes_account(ex);
}

TEST(TrafficEngine, TimeoutAbortsSlowChainsAndReleasesLocks) {
  // A 3-hop path with 1-unit hop latency against a 1.5-unit HTLC timeout:
  // every attempt is still forwarding when the timeout fires, so every
  // payment times out, and all locks must come back.
  pcn::network net(4);
  net.open_channel(0, 1, 100.0, 0.0);
  net.open_channel(1, 2, 100.0, 0.0);
  net.open_channel(2, 3, 100.0, 0.0);
  const auto demand = point_demand(net.topology(), 0, 3, 2.0);
  const dist::fixed_tx_size sizes(1.0);
  sim::workload_generator wl(demand, sizes, 17);
  traffic_config tc;
  tc.horizon = 30.0;
  tc.hop_latency = 1.0;
  tc.htlc_timeout = 1.5;
  const traffic_metrics m = run_traffic(net, wl, tc);
  ASSERT_GT(m.attempted, 20u);
  EXPECT_EQ(m.delivered, 0u);
  EXPECT_EQ(m.timed_out, m.attempted);
  EXPECT_EQ(net.total_locked(), 0.0);
  for (pcn::channel_id id = 0; id < 3; ++id)
    EXPECT_EQ(net.channel_at(id).balance_a, 100.0) << id;

  // A roomier timeout (> 3 forward hops) lets the same traffic through.
  pcn::network net2(4);
  net2.open_channel(0, 1, 100.0, 0.0);
  net2.open_channel(1, 2, 100.0, 0.0);
  net2.open_channel(2, 3, 100.0, 0.0);
  sim::workload_generator wl2(demand, sizes, 17);
  tc.htlc_timeout = 10.0;
  const traffic_metrics ok = run_traffic(net2, wl2, tc);
  EXPECT_EQ(ok.timed_out, 0u);
  EXPECT_GT(ok.delivered, 0u);
}

TEST(TrafficEngine, MaxInflightCapsConcurrencyAndDrainsQueue) {
  pcn::network net = cycle_network(6, 200.0);
  const auto demand = uniform_demand(net.topology(), 30.0);
  const dist::fixed_tx_size sizes(1.0);
  traffic_config tc;
  tc.horizon = 20.0;
  tc.hop_latency = 0.5;  // long flights force queueing

  sim::workload_generator wl_free(demand, sizes, 5);
  pcn::network net_free = net;
  const traffic_metrics free_run = run_traffic(net_free, wl_free, tc);
  ASSERT_GT(free_run.max_inflight_seen, 1u);

  sim::workload_generator wl_capped(demand, sizes, 5);
  tc.max_inflight = 1;
  const traffic_metrics capped = run_traffic(net, wl_capped, tc);
  EXPECT_EQ(capped.max_inflight_seen, 1u);
  EXPECT_EQ(capped.attempted, free_run.attempted);
  expect_outcomes_account(capped);  // the FIFO queue fully drains
  EXPECT_EQ(net.total_locked(), 0.0);
}

TEST(TrafficEngine, BackoffRetriesNoRouteWhereExcludeStops) {
  // With a fresh view a depleted path fails as no_route. Exclude-retry is
  // terminal there (re-routing at the same instant cannot help), while
  // backoff schedules delayed re-attempts — the counters must show exactly
  // that split, with identical deliveries (the balance cap binds both).
  const auto run = [](retry_kind kind) {
    pcn::network net(3);
    net.open_channel(0, 1, 100.0, 0.0);
    net.open_channel(1, 2, 10.0, 0.0);
    const auto demand = point_demand(net.topology(), 0, 2, 4.0);
    const dist::fixed_tx_size sizes(1.0);
    sim::workload_generator wl(demand, sizes, 29);
    traffic_config tc;
    tc.horizon = 30.0;
    tc.retry.kind = kind;
    tc.retry.max_retries = 3;
    tc.retry.backoff_base = 0.5;
    tc.retry.backoff_cap = 4.0;
    return run_traffic(net, wl, tc);
  };
  const traffic_metrics ex = run(retry_kind::exclude);
  const traffic_metrics backoff = run(retry_kind::backoff);
  ASSERT_GT(ex.attempted, 50u);
  EXPECT_EQ(ex.delivered, 10u);
  EXPECT_EQ(ex.retries, 0u);  // no_route is terminal under exclude
  EXPECT_EQ(ex.failed_no_route, ex.attempted - 10);
  EXPECT_EQ(backoff.attempted, ex.attempted);
  EXPECT_EQ(backoff.delivered, 10u);
  EXPECT_GT(backoff.retries, 0u);  // backoff does re-attempt no_route
  expect_outcomes_account(backoff);
}

TEST(TrafficEngine, PeriodicBalanceResetSustainsThroughput) {
  // Unidirectional depletion with the shared pcn::periodic_balance_reset:
  // each 5-unit window restores 30 coins against ~25 arrivals, so resets
  // keep nearly everything flowing where the no-reset run stops at 30.
  const auto run = [](double reset_period) {
    pcn::network net(3);
    net.open_channel(0, 1, 30.0, 0.0);
    net.open_channel(1, 2, 30.0, 0.0);
    const auto demand = point_demand(net.topology(), 0, 2, 5.0);
    const dist::fixed_tx_size sizes(1.0);
    sim::workload_generator wl(demand, sizes, 4);
    traffic_config tc;
    tc.horizon = 100.0;
    tc.balance_reset_period = reset_period;
    return run_traffic(net, wl, tc);
  };
  const traffic_metrics depleted = run(0.0);
  const traffic_metrics refreshed = run(5.0);
  EXPECT_EQ(depleted.balance_resets, 0u);
  EXPECT_EQ(depleted.delivered, 30u);
  EXPECT_GT(refreshed.balance_resets, 15u);
  EXPECT_GT(refreshed.success_rate(), 0.9);
}

TEST(TrafficEngine, DeterministicAcrossIdenticalRuns) {
  const auto once = [] {
    pcn::network net = cycle_network(10, 15.0);
    const auto demand = uniform_demand(net.topology(), 20.0);
    const dist::uniform_tx_size sizes(2.0);
    sim::workload_generator wl(demand, sizes, 99);
    traffic_config tc;
    tc.horizon = 40.0;
    tc.hop_latency = 0.05;
    tc.htlc_timeout = 2.0;
    tc.gossip_refresh = 1.0;
    tc.retry.kind = retry_kind::backoff;
    return run_traffic(net, wl, tc);
  };
  const traffic_metrics a = once();
  const traffic_metrics b = once();
  EXPECT_EQ(a.attempted, b.attempted);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.lock_failures, b.lock_failures);
  EXPECT_EQ(a.gossip_refreshes, b.gossip_refreshes);
  EXPECT_EQ(a.fees_earned, b.fees_earned);
}

TEST(TrafficEngine, RouteSearchObsCountsEverySearch) {
  // Every attempt — first tries, immediate exclude re-routes, delayed
  // backoff retries and queued dispatches — runs exactly one route
  // search: the flushed counter and the per-search histogram both equal
  // attempted + retries.
  obs::registry& reg = obs::registry::global();
  const auto run = [&](retry_kind kind) {
    pcn::network net = cycle_network(10, 15.0);
    const auto demand = uniform_demand(net.topology(), 20.0);
    const dist::uniform_tx_size sizes(2.0);
    sim::workload_generator wl(demand, sizes, 99);
    traffic_config tc;
    tc.horizon = 40.0;
    tc.hop_latency = 0.05;
    tc.htlc_timeout = 2.0;
    tc.gossip_refresh = 1.0;
    tc.retry.kind = kind;
    tc.max_inflight = 4;
    reg.reset();
    reg.enable(true);
    const traffic_metrics m = run_traffic(net, wl, tc);
    reg.enable(false);
    const obs::histogram& visited =
        reg.get_histogram("traffic/route_visited", {});
    EXPECT_GT(m.retries, 0u);
    EXPECT_EQ(reg.get_counter("traffic/route_search").value(),
              m.attempted + m.retries);
    EXPECT_EQ(visited.count(), m.attempted + m.retries);
    EXPECT_GE(visited.max(), 1.0);
    EXPECT_LE(visited.max(), 10.0);  // never more nodes than the host has
    reg.reset();
  };
  run(retry_kind::exclude);
  run(retry_kind::backoff);
}

TEST(TrafficEngine, ZeroHorizonDoesNothing) {
  pcn::network net = cycle_network(4, 10.0);
  const auto demand = uniform_demand(net.topology(), 5.0);
  const dist::fixed_tx_size sizes(1.0);
  sim::workload_generator wl(demand, sizes, 1);
  traffic_config tc;
  tc.horizon = 0.0;
  const traffic_metrics m = run_traffic(net, wl, tc);
  EXPECT_EQ(m.attempted, 0u);
  EXPECT_EQ(m.events, 0u);
}

TEST(RetryPolicy, DecisionTableAndNameRoundTrip) {
  EXPECT_EQ(retry_from_name("none"), retry_kind::none);
  EXPECT_EQ(retry_from_name("exclude"), retry_kind::exclude);
  EXPECT_EQ(retry_from_name("backoff"), retry_kind::backoff);
  EXPECT_THROW((void)retry_from_name("bogus"), precondition_error);
  for (const retry_kind k :
       {retry_kind::none, retry_kind::exclude, retry_kind::backoff})
    EXPECT_EQ(retry_from_name(retry_name(k)), k);

  retry_policy p;
  p.max_retries = 3;
  // none: everything terminal.
  EXPECT_FALSE(decide_retry(p, fail_reason::lock_fail, 1).retry);
  // exclude: immediate retry on lock failures only.
  p.kind = retry_kind::exclude;
  EXPECT_TRUE(decide_retry(p, fail_reason::lock_fail, 1).retry);
  EXPECT_EQ(decide_retry(p, fail_reason::lock_fail, 1).delay, 0.0);
  EXPECT_FALSE(decide_retry(p, fail_reason::no_route, 1).retry);
  // backoff: capped exponential, retries both reasons.
  p.kind = retry_kind::backoff;
  p.backoff_base = 0.5;
  p.backoff_cap = 3.0;
  EXPECT_EQ(decide_retry(p, fail_reason::no_route, 1).delay, 0.5);
  EXPECT_EQ(decide_retry(p, fail_reason::lock_fail, 2).delay, 1.0);
  EXPECT_EQ(decide_retry(p, fail_reason::no_route, 3).delay, 2.0);
  // max_retries bound: the 4th failure has exhausted 3 extra attempts.
  EXPECT_FALSE(decide_retry(p, fail_reason::no_route, 4).retry);
  // timeouts are always terminal.
  EXPECT_FALSE(decide_retry(p, fail_reason::timed_out, 1).retry);
}

TEST(RetryPolicy, BackoffShiftBoundaries) {
  // Regression pins for the `1ULL << min(attempts_done - 1, 30)` shift: the
  // very first retry waits exactly backoff_base, the exponent saturates at
  // 30 (no undefined 64-bit overflow however large max_retries is), the cap
  // clamps from the first attempt it binds, and the max_retries cut-off
  // rejects exactly once — attempts_done == max_retries retries,
  // max_retries + 1 does not.
  retry_policy p;
  p.kind = retry_kind::backoff;
  p.backoff_base = 0.25;
  p.backoff_cap = 1e12;
  p.max_retries = 100;  // far past the shift saturation point

  // attempts_done == 1: delay is backoff_base exactly (shift of zero).
  EXPECT_TRUE(decide_retry(p, fail_reason::lock_fail, 1).retry);
  EXPECT_EQ(decide_retry(p, fail_reason::lock_fail, 1).delay, 0.25);

  // The exponent clamps at 30: attempts 31, 32 and 90 all wait base * 2^30.
  const double saturated = 0.25 * static_cast<double>(1ULL << 30);
  EXPECT_EQ(decide_retry(p, fail_reason::no_route, 31).delay, saturated);
  EXPECT_EQ(decide_retry(p, fail_reason::no_route, 32).delay, saturated);
  EXPECT_EQ(decide_retry(p, fail_reason::no_route, 90).delay, saturated);

  // Cap boundary: binds exactly when base * 2^(a-1) crosses it.
  p.backoff_cap = 2.0;
  EXPECT_EQ(decide_retry(p, fail_reason::lock_fail, 3).delay, 1.0);
  EXPECT_EQ(decide_retry(p, fail_reason::lock_fail, 4).delay, 2.0);
  EXPECT_EQ(decide_retry(p, fail_reason::lock_fail, 5).delay, 2.0);
  EXPECT_EQ(decide_retry(p, fail_reason::lock_fail, 64).delay, 2.0);

  // max_retries boundary: the check is attempts_done > max_retries, so the
  // decision flips between max_retries and max_retries + 1 — and the
  // rejected attempt reports no delay.
  p.max_retries = 7;
  EXPECT_TRUE(decide_retry(p, fail_reason::no_route, 7).retry);
  EXPECT_FALSE(decide_retry(p, fail_reason::no_route, 8).retry);
  EXPECT_EQ(decide_retry(p, fail_reason::no_route, 8).delay, 0.0);

  // max_retries == 0 degenerates to "never retry" for every policy kind.
  p.max_retries = 0;
  EXPECT_FALSE(decide_retry(p, fail_reason::lock_fail, 1).retry);
  p.kind = retry_kind::exclude;
  EXPECT_FALSE(decide_retry(p, fail_reason::lock_fail, 1).retry);
}

}  // namespace
}  // namespace lcg::traffic
