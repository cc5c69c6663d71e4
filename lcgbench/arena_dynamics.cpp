// arena_dynamics: best-response dynamics through arena::run_arena on
// Watts–Strogatz hosts with n = 120, in the arena/scale_profile regime
// (local oracle, incremental provider, 16-pivot sampled betweenness above
// 96 nodes, provider threads = nproc).
//
// A timed iteration runs the first three rounds of one host of a 6-host
// pool drawn from the seed. Both choices keep wall_s a property of the code
// rather than of the seed: a host's dynamics end after 5 to 13 rounds
// depending on its wiring, which spread single-host run times by 25%
// (coefficient of variation over 61 hosts), while the first three rounds —
// about 80% of a typical run's time — vary by 10%. The untimed check runs
// host 0 to termination.

#include <algorithm>
#include <iostream>
#include <optional>
#include <string>

#include "arena/engine.h"
#include "arena/oracles.h"
#include "arena/state.h"
#include "bench.h"
#include "dist/transaction_dist.h"
#include "dist/zipf.h"
#include "graph/betweenness.h"
#include "graph/csr.h"
#include "obs/span.h"
#include "runner/fixtures.h"
#include "topology/dynamics.h"
#include "util/stats.h"

namespace lcgbench {
namespace {

using namespace lcg;

/// Host 0 of the default seed (120) run to termination, as recorded at the
/// commit that added this benchmark; rounds/moves/evaluations equal
/// bench_arena's static/local/n=120 record.
struct recorded_dynamics {
  std::size_t rounds;
  std::size_t moves;
  std::uint64_t evaluations;
  double total_gain;
  std::uint64_t fingerprint;
};
constexpr recorded_dynamics recorded_full{6, 290, 12691, 698.59947771420468,
                                          3144989614205050647ULL};
constexpr recorded_dynamics recorded_smoke{4, 43, 1596, 50.966338270380511,
                                           11659462921018668601ULL};

bool same_move(const arena::arena_move& a, const arena::arena_move& b) {
  return a.round == b.round && a.dev.deviator == b.dev.deviator &&
         a.dev.removed_peers == b.dev.removed_peers &&
         a.dev.added_peers == b.dev.added_peers &&
         a.dev.utility_before == b.dev.utility_before &&
         a.dev.utility_after == b.dev.utility_after;
}

/// Every observable of a run: outcome, rounds, each applied move with its
/// utilities, logical evaluations, total gain and the final topology.
bool same_dynamics(const arena::arena_result& a, const arena::arena_result& b) {
  return a.outcome == b.outcome && a.rounds == b.rounds &&
         a.proposals == b.proposals && a.evaluations == b.evaluations &&
         a.total_gain == b.total_gain &&
         std::equal(a.moves.begin(), a.moves.end(), b.moves.begin(),
                    b.moves.end(), same_move) &&
         topology::topology_fingerprint(a.state.graph()) ==
             topology::topology_fingerprint(b.state.graph());
}

/// Whether `capped` applied exactly the moves `whole` applied in its first
/// capped.rounds rounds: the round cap must cut the dynamics, not change
/// them.
bool is_prefix(const arena::arena_result& capped,
               const arena::arena_result& whole) {
  std::size_t k = 0;
  while (k < whole.moves.size() && whole.moves[k].round < capped.rounds) ++k;
  return std::equal(capped.moves.begin(), capped.moves.end(),
                    whole.moves.begin(), whole.moves.begin() + k, same_move);
}

class arena_dynamics final : public workload {
 public:
  arena_dynamics(std::uint64_t seed, size_class size)
      : seed_(seed),
        n_(size == size_class::full ? 120 : 24),
        pool_(size == size_class::full ? 6 : 2),
        first_(pool_),
        recorded_(seed == arena_default_seed
                      ? (size == size_class::full ? &recorded_full
                                                  : &recorded_smoke)
                      : nullptr) {
    params_.l = 1.5;
    options_.oracle = arena::oracle_kind::local;
    options_.order = arena::activation_order::round_robin;
    options_.seed = 42;
    options_.max_rounds = 3;
    options_.oracle_opts.candidate_k = 3;
    options_.oracle_opts.candidate_random = 0;
    options_.oracle_opts.max_channels = 3;
    options_.provider.exact_threshold = 96;
    options_.provider.pivots = 16;
    options_.provider.seed = 42;
    options_.provider.mode = arena::provider_mode::incremental;
    options_.provider.threads = host_threads();
  }

  std::string_view name() const override { return "arena_dynamics"; }
  std::size_t pool() const override { return pool_; }

  std::string threads() const override {
    return "provider.threads=" + std::to_string(options_.provider.threads);
  }

  void setup() override {
    hosts_.clear();
    for (std::size_t i = 0; i < pool_; ++i) {
      rng gen(i == 0 ? seed_ : mix_seed(seed_, i));
      hosts_.push_back(runner::make_topology("ws", n_, gen));
    }
  }

  void prepare(tally& t) override {
    // One provider thread: results never depend on the thread budget, so
    // the replay also cross-checks nproc threads against one.
    arena::arena_options full = options_;
    full.max_rounds = 24;
    full.provider.mode = arena::provider_mode::full;
    full.provider.threads = 1;
    ++t.attempted;
    replay_ = arena::run_arena(hosts_[0], params_, full);
    std::cout << "# arena_dynamics host 0: rounds " << replay_->rounds
              << ", moves " << replay_->moves.size() << ", evaluations "
              << replay_->evaluations << ", total_gain "
              << format_exact(replay_->total_gain) << ", fingerprint "
              << topology::topology_fingerprint(replay_->state.graph())
              << "\n";
    if (recorded_ == nullptr) return;
    t.check(replay_->rounds == recorded_->rounds &&
                replay_->moves.size() == recorded_->moves &&
                replay_->evaluations == recorded_->evaluations &&
                replay_->total_gain == recorded_->total_gain &&
                topology::topology_fingerprint(replay_->state.graph()) ==
                    recorded_->fingerprint,
            "arena_dynamics host 0 differs from the values recorded for "
            "the default seed");
  }

  double iterate(std::size_t index, tally& t) override {
    const std::size_t h = index % pool_;
    ++t.attempted;
    arena::arena_result result;
    const double seconds = 1e-6 * time_us([&] {
      obs::span span("arena/bench_run_arena");
      result = arena::run_arena(hosts_[h], params_, options_);
    });
    t.check(topology::topology_fingerprint(result.state.graph()) ==
                topology::topology_fingerprint(result.state.rebuild()),
            "arena_dynamics: incrementally kept network differs from its "
            "rebuild");
    if (first_[h]) {
      t.check(same_dynamics(result, *first_[h]),
              "arena_dynamics: host " + std::to_string(h) +
                  " ran differently on a repeat");
    } else {
      if (h == 0 && replay_)
        t.check(is_prefix(result, *replay_),
                "arena_dynamics: incremental run differs from the "
                "full-mode replay");
      first_[h] = result;
    }
    last_ = std::move(result);
    return seconds;
  }

  void layer_metrics(double traced_seconds, metric_list& out) override {
    const obs::metrics_snapshot snap = obs::registry::global().snapshot();
    const arena::arena_result& r = *last_;
    const double evaluations = static_cast<double>(r.evaluations);
    out.push_back({"evals_per_s", evaluations / traced_seconds, "1/s"});
    out.push_back({"arena.evaluations", evaluations, "count"});
    out.push_back({"arena.effective_sweeps",
                   static_cast<double>(r.sweeps.effective_sweeps()),
                   "count"});
    out.push_back({"arena.pruned_ratio",
                   static_cast<double>(r.sweeps.pruned) / evaluations,
                   "ratio"});
    out.push_back(
        {"graph.sweep_sources",
         static_cast<double>(counter_in(snap, "graph/sweep_source_serial") +
                             counter_in(snap, "graph/sweep_source_parallel") +
                             counter_in(snap, "graph/sweep_source_sampled")),
         "count"});

    // Replays on the start state: host 0 before any move.
    const graph::digraph& start = hosts_[0];
    const arena::utility_provider provider(params_, options_.provider);
    const arena::strategy_state state(start);

    std::vector<double> propose_ms;
    {
      obs::span span("arena/bench_propose_round");
      const std::vector<double> scores = provider.node_scores(state.graph());
      for (graph::node_id u = 0; u < n_; ++u) {
        rng stream(mix_seed(options_.seed, u));
        propose_ms.push_back(1e-3 * time_us([&] {
          (void)arena::propose_move(options_.oracle, state, u, provider,
                                    options_.oracle_opts, scores, stream);
        }));
      }
    }
    out.push_back({"arena.propose_ms.p50", quantile(propose_ms, 0.5), "ms"});
    out.push_back({"arena.propose_ms.p90", quantile(propose_ms, 0.9), "ms"});

    out.push_back({"arena.evaluate_us", per_node_us("arena/bench_evaluate",
                                                    [&](graph::node_id u) {
                                                      (void)provider.evaluate(
                                                          start, u);
                                                    }),
                   "us"});
    out.push_back({"dist.row_us",
                   per_node_us("dist/bench_rows",
                               [&](graph::node_id u) {
                                 (void)dist::transaction_probabilities(
                                     start, u, params_.s, params_.basis);
                               }),
                   "us"});

    std::vector<double> freeze_us;
    {
      obs::span span("graph/bench_freeze");
      for (std::size_t rep = 0; rep < 64; ++rep)
        freeze_us.push_back(time_us([&] { (void)graph::freeze(start); }));
    }
    out.push_back({"graph.freeze_us", median_of(freeze_us), "us"});

    const graph::csr_graph csr = graph::freeze(start);
    out.push_back({"graph.sp_dag_us",
                   per_node_us("graph/bench_sp_dag",
                               [&](graph::node_id u) {
                                 (void)graph::shortest_path_dag(csr, u);
                               }),
                   "us"});

    const dist::zipf_transaction_distribution zipf(params_.s, params_.basis);
    const dist::demand_model demand(start, zipf, static_cast<double>(n_));
    const graph::pair_weight_fn weights = demand.weight_fn();
    const graph::betweenness_options sampled = provider.backend_for(n_);
    out.push_back({"graph.node_betweenness_us",
                   per_node_us("graph/bench_node_betweenness",
                               [&](graph::node_id u) {
                                 (void)graph::node_betweenness_of(
                                     csr, u, weights, sampled);
                               }),
                   "us"});

    // Exact parallel Brandes at 1 thread vs nproc threads, alternated.
    graph::betweenness_options one;
    one.backend = graph::betweenness_backend::parallel;
    one.threads = 1;
    graph::betweenness_options all = one;
    all.threads = host_threads();
    std::vector<double> one_us;
    std::vector<double> all_us;
    {
      obs::span span("graph/bench_exact_betweenness");
      for (std::size_t rep = 0; rep < 9; ++rep) {
        one_us.push_back(time_us(
            [&] { (void)graph::weighted_betweenness(csr, weights, one); }));
        all_us.push_back(time_us(
            [&] { (void)graph::weighted_betweenness(csr, weights, all); }));
      }
    }
    out.push_back({"graph.exact_speedup",
                   median_of(one_us) / median_of(all_us), "ratio"});
  }

 private:
  /// Median microseconds of `fn(u)` over every node of the start host.
  template <class F>
  double per_node_us(const char* span_name, F&& fn) const {
    obs::span span(span_name);
    std::vector<double> us;
    for (graph::node_id u = 0; u < n_; ++u)
      us.push_back(time_us([&] { fn(u); }));
    return median_of(us);
  }

  std::uint64_t seed_;
  std::size_t n_;
  std::size_t pool_;
  std::vector<std::optional<arena::arena_result>> first_;
  const recorded_dynamics* recorded_;
  topology::game_params params_;
  arena::arena_options options_;
  std::vector<graph::digraph> hosts_;
  std::optional<arena::arena_result> replay_;
  std::optional<arena::arena_result> last_;
};

}  // namespace

std::unique_ptr<workload> make_arena_dynamics(std::uint64_t seed,
                                              size_class size) {
  return std::make_unique<arena_dynamics>(seed, size);
}

}  // namespace lcgbench
