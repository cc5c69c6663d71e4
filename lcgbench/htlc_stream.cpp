// htlc_stream: traffic::run_traffic in the bench_payments configuration at
// n = 256 — ws host, 16 units per channel direction, Zipf s = 1 demand at
// rate n, unit payments, fee 0.5, hop latency 0.01, HTLC timeout 5, gossip
// refresh 1, exclude-retry. Over the 800 time units of one iteration the
// balances deplete until about one payment in six is delivered, so route
// search on depleted balances dominates.
//
// Iterations cycle through a pool of four hosts, each with its own payment
// stream, all drawn from the seed: throughput depends on the host's wiring,
// and a pool keeps wall_s from following the seed.

#include <iostream>
#include <memory>
#include <optional>

#include "arena/export.h"
#include "bench.h"
#include "dist/fee.h"
#include "dist/transaction_dist.h"
#include "dist/tx_size.h"
#include "obs/span.h"
#include "pcn/network.h"
#include "runner/fixtures.h"
#include "sim/workload.h"
#include "traffic/engine.h"
#include "traffic/router.h"

namespace lcgbench {
namespace {

using namespace lcg;

/// The traffic ledger of host 0 of the default seed (256) as recorded at the
/// commit that added this benchmark.
struct recorded_ledger {
  std::uint64_t attempted;
  std::uint64_t delivered;
  std::uint64_t events;
  std::uint64_t failed_no_route;
  std::uint64_t failed_mid_flight;
  std::uint64_t timed_out;
  std::uint64_t retries;
  std::uint64_t lock_failures;
};
constexpr recorded_ledger recorded_full{205148, 35623, 3452955, 118901,
                                        50624,  0,     259960,  310584};
constexpr recorded_ledger recorded_smoke{1251, 946, 12783, 295,
                                         10,   0,   547,   557};

recorded_ledger ledger_of(const traffic::traffic_metrics& m) {
  return {m.attempted,         m.delivered, m.events,
          m.failed_no_route,   m.failed_mid_flight,
          m.timed_out,         m.retries,   m.lock_failures};
}

bool same_ledger(const recorded_ledger& a, const recorded_ledger& b) {
  return a.attempted == b.attempted && a.delivered == b.delivered &&
         a.events == b.events && a.failed_no_route == b.failed_no_route &&
         a.failed_mid_flight == b.failed_mid_flight &&
         a.timed_out == b.timed_out && a.retries == b.retries &&
         a.lock_failures == b.lock_failures;
}

/// Every deterministic field of a run, per-node revenue included.
bool same_run(const traffic::traffic_metrics& a,
              const traffic::traffic_metrics& b) {
  return same_ledger(ledger_of(a), ledger_of(b)) &&
         a.infeasible_input == b.infeasible_input &&
         a.gossip_refreshes == b.gossip_refreshes &&
         a.max_inflight_seen == b.max_inflight_seen &&
         a.volume_attempted == b.volume_attempted &&
         a.volume_delivered == b.volume_delivered &&
         a.fees_earned == b.fees_earned && a.fees_paid == b.fees_paid &&
         a.forwarded == b.forwarded;
}

class htlc_stream final : public workload {
 public:
  htlc_stream(std::uint64_t seed, size_class size)
      : seed_(seed),
        n_(size == size_class::full ? 256 : 32),
        pool_(size == size_class::full ? 4 : 2),
        first_(pool_),
        recorded_(seed == htlc_default_seed
                      ? (size == size_class::full ? &recorded_full
                                                  : &recorded_smoke)
                      : nullptr) {
    config_.horizon = size == size_class::full ? 800.0 : 40.0;
    config_.fee = &fee_;
    config_.hop_latency = 0.01;
    config_.htlc_timeout = 5.0;
    config_.gossip_refresh = 1.0;
    config_.retry.kind = traffic::retry_kind::exclude;
  }

  std::string_view name() const override { return "htlc_stream"; }
  std::size_t pool() const override { return pool_; }

  std::string threads() const override { return "event loop threads=1"; }

  void setup() override {
    inputs_.clear();
    for (std::size_t i = 0; i < pool_; ++i) {
      const std::uint64_t stream = i == 0 ? seed_ : mix_seed(seed_, i);
      rng gen(stream);
      graph::digraph host = runner::make_topology("ws", n_, gen);
      auto demand = std::make_unique<dist::demand_model>(
          host, zipf_, static_cast<double>(n_));
      pcn::network network = arena::to_network(host, 16.0);
      inputs_.push_back({stream, std::move(host), std::move(demand),
                         std::move(network)});
    }
  }

  double iterate(std::size_t index, tally& t) override {
    const std::size_t h = index % pool_;
    const host_inputs& in = inputs_[h];
    ++t.attempted;
    pcn::network net = in.network;
    traffic::traffic_metrics m;
    const double seconds = 1e-6 * time_us([&] {
      obs::span span("traffic/bench_run_traffic");
      sim::workload_generator arrivals(*in.demand, sizes_, in.stream);
      m = traffic::run_traffic(net, arrivals, config_);
    });
    if (first_[h]) {
      t.check(same_run(m, *first_[h]),
              "htlc_stream: host " + std::to_string(h) +
                  " ran differently on a repeat");
    } else {
      if (h == 0) {
        std::cout << "# htlc_stream host 0 ledger: attempted " << m.attempted
                  << ", delivered " << m.delivered << ", events " << m.events
                  << ", no_route " << m.failed_no_route << ", mid_flight "
                  << m.failed_mid_flight << ", timed_out " << m.timed_out
                  << ", retries " << m.retries << ", lock_failures "
                  << m.lock_failures << "\n";
        if (recorded_ != nullptr)
          t.check(same_ledger(ledger_of(m), *recorded_),
                  "htlc_stream: ledger differs from the values recorded for "
                  "the default seed");
      }
      first_[h] = m;
    }
    last_ = std::move(m);
    last_network_ = std::make_unique<pcn::network>(std::move(net));
    return seconds;
  }

  void layer_metrics(double traced_seconds, metric_list& out) override {
    const obs::metrics_snapshot snap = obs::registry::global().snapshot();
    const traffic::traffic_metrics& m = *last_;
    const double attempted = static_cast<double>(m.attempted);
    out.push_back({"payments_per_s", attempted / traced_seconds, "1/s"});
    out.push_back({"traffic.events_per_payment",
                   static_cast<double>(m.events) / attempted, "count"});
    out.push_back({"traffic.retries_per_payment",
                   static_cast<double>(m.retries) / attempted, "count"});
    out.push_back({"traffic.route_hops.p50",
                   histogram_median(snap, "traffic/route_length"), "count"});

    // Replays on host 0, which the traced iterate(0) ran. Its own payment
    // stream, regenerated from the seed; the generator is timed in batches
    // (one call is ~0.1 us).
    const host_inputs& in = inputs_[0];
    const std::size_t replayed =
        std::min<std::size_t>(m.attempted, 20000);
    std::vector<sim::tx_event> stream;
    stream.reserve(replayed + 64);
    std::vector<double> next_us;
    {
      obs::span span("sim/bench_workload_next");
      sim::workload_generator arrivals(*in.demand, sizes_, in.stream);
      constexpr std::size_t batch = 64;
      while (stream.size() < replayed) {
        next_us.push_back(time_us([&] {
                            for (std::size_t k = 0; k < batch; ++k)
                              stream.push_back(*arrivals.next());
                          }) /
                          batch);
      }
    }
    out.push_back({"sim.workload_next_us", median_of(next_us), "us"});

    // Route search on the network as run_traffic left it, with the stale
    // balance view the engine's routers use.
    const pcn::network& depleted = *last_network_;
    const traffic::balance_view view(depleted, false);
    const std::vector<graph::edge_id> none;
    std::vector<std::pair<std::vector<graph::edge_id>, double>> routes;
    std::vector<double> route_us;
    {
      obs::span span("traffic/bench_find_route");
      for (const sim::tx_event& ev : stream) {
        std::vector<graph::edge_id> route;
        route_us.push_back(time_us([&] {
          route = traffic::find_route(depleted, view, ev.sender, ev.receiver,
                                      ev.amount, none);
        }));
        if (!route.empty()) routes.emplace_back(std::move(route), ev.amount);
      }
    }
    out.push_back({"traffic.route_us", median_of(route_us), "us"});
    out.push_back({"traffic.route_found_ratio",
                   static_cast<double>(routes.size()) /
                       static_cast<double>(stream.size()),
                   "ratio"});

    // HTLC bookkeeping along those routes: lock every hop, then settle
    // every hop, per hop. Routes whose locks no longer fit are released.
    pcn::network ledger = depleted;
    std::vector<double> hop_us;
    {
      obs::span span("pcn/bench_lock_settle");
      for (const auto& [route, amount] : routes) {
        std::size_t locked = 0;
        const double us = time_us([&] {
          while (locked < route.size() &&
                 ledger.try_lock_htlc(route[locked], amount))
            ++locked;
          if (locked == route.size())
            for (const graph::edge_id e : route) ledger.settle_htlc(e, amount);
        });
        if (locked == route.size()) {
          hop_us.push_back(us / static_cast<double>(route.size()));
        } else {
          for (std::size_t k = 0; k < locked; ++k)
            ledger.fail_htlc(route[k], amount);
        }
      }
    }
    out.push_back({"pcn.htlc_lock_settle_us",
                   hop_us.empty() ? 0.0 : median_of(hop_us), "us"});

    std::vector<double> model_ms;
    {
      obs::span span("dist/bench_demand_model");
      for (std::size_t rep = 0; rep < 5; ++rep)
        model_ms.push_back(1e-3 * time_us([&] {
                             const dist::demand_model model(
                                 in.host, zipf_, static_cast<double>(n_));
                           }));
    }
    out.push_back({"dist.demand_model_ms", median_of(model_ms), "ms"});
  }

 private:
  struct host_inputs {
    std::uint64_t stream;  ///< seeds the host and its payment stream
    graph::digraph host;
    std::unique_ptr<dist::demand_model> demand;
    pcn::network network;
  };

  std::uint64_t seed_;
  std::size_t n_;
  std::size_t pool_;
  std::vector<std::optional<traffic::traffic_metrics>> first_;
  const recorded_ledger* recorded_;
  traffic::traffic_config config_;
  const dist::zipf_transaction_distribution zipf_{1.0};
  const dist::fixed_tx_size sizes_{1.0};
  const dist::constant_fee fee_{0.5};
  std::vector<host_inputs> inputs_;
  std::optional<traffic::traffic_metrics> last_;
  std::unique_ptr<pcn::network> last_network_;
};

}  // namespace

std::unique_ptr<workload> make_htlc_stream(std::uint64_t seed,
                                           size_class size) {
  return std::make_unique<htlc_stream>(seed, size);
}

}  // namespace lcgbench
