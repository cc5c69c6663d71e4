// The incremental provider mode's equivalence contract: mode=incremental is
// an evaluation-order optimisation, NEVER an approximation. Whole arena runs
// must be BITWISE identical to mode=full — same moves with the same utility
// doubles, same logical evaluation count, same outcome — while performing
// strictly fewer effective source-sweeps. DESIGN.md §8 documents why this
// holds (affected-source predicate, pruning soundness). The thread budget
// is a second axis of the same contract: candidates evaluated on the
// provider's pool reproduce the one-thread run, its sweep ledger and its
// obs counters bit for bit (§8.4).

#include "arena/incremental.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "arena/engine.h"
#include "arena/population.h"
#include "dist/param_sampler.h"
#include "graph/generators.h"
#include "obs/registry.h"
#include "topology/dynamics.h"
#include "util/rng.h"

namespace lcg::arena {
namespace {

graph::digraph make_start(const std::string& kind, std::size_t n,
                          std::uint64_t seed) {
  rng gen(seed);
  if (kind == "path") return graph::path_graph(n);
  if (kind == "cycle") return graph::cycle_graph(n);
  if (kind == "ws") return graph::watts_strogatz(n, 4, 0.1, gen);
  return graph::erdos_renyi(n, 0.15, gen);
}

arena_result run_mode(const graph::digraph& start, oracle_kind oracle,
                      activation_order order, std::size_t exact_threshold,
                      provider_mode mode, std::uint64_t seed) {
  topology::game_params params;
  params.l = 1.5;
  arena_options options;
  options.oracle = oracle;
  options.order = order;
  options.max_rounds = 8;
  options.seed = seed;
  options.oracle_opts.candidate_k = 3;
  options.oracle_opts.candidate_random = 1;
  options.oracle_opts.max_channels = 3;
  options.provider.exact_threshold = exact_threshold;
  options.provider.pivots = 8;
  options.provider.seed = seed ^ 0x7c63f8d1905bb7a3ULL;
  options.provider.mode = mode;
  return run_arena(start, params, options);
}

/// Every observable of the two runs must agree; utilities bit for bit.
void expect_equal_runs(const arena_result& full, const arena_result& inc) {
  EXPECT_EQ(full.outcome, inc.outcome);
  EXPECT_EQ(full.rounds, inc.rounds);
  EXPECT_EQ(full.proposals, inc.proposals);
  EXPECT_EQ(full.evaluations, inc.evaluations)
      << "pruned candidates must still count one logical evaluation";
  EXPECT_EQ(full.total_gain, inc.total_gain);
  ASSERT_EQ(full.moves.size(), inc.moves.size());
  for (std::size_t i = 0; i < full.moves.size(); ++i) {
    const topology::deviation& a = full.moves[i].dev;
    const topology::deviation& b = inc.moves[i].dev;
    EXPECT_EQ(full.moves[i].round, inc.moves[i].round);
    EXPECT_EQ(a.deviator, b.deviator);
    EXPECT_EQ(a.removed_peers, b.removed_peers);
    EXPECT_EQ(a.added_peers, b.added_peers);
    EXPECT_EQ(a.utility_before, b.utility_before) << "move " << i;
    EXPECT_EQ(a.utility_after, b.utility_after) << "move " << i;
  }
  EXPECT_EQ(topology::topology_fingerprint(full.state.graph()),
            topology::topology_fingerprint(inc.state.graph()));
}

TEST(IncrementalMode, BitwiseEqualAcrossOraclesOrdersAndBackends) {
  const struct {
    const char* topology;
    std::size_t n;
    oracle_kind oracle;
    activation_order order;
    std::size_t exact_threshold;  // 0 forces the sampled backend
  } cases[] = {
      {"path", 10, oracle_kind::local, activation_order::round_robin, 192},
      {"ws", 16, oracle_kind::local, activation_order::round_robin, 0},
      {"ws", 16, oracle_kind::greedy, activation_order::round_robin, 0},
      {"er", 14, oracle_kind::local, activation_order::random, 192},
      {"er", 14, oracle_kind::greedy, activation_order::random, 0},
      {"cycle", 12, oracle_kind::local, activation_order::simultaneous, 0},
      {"ws", 24, oracle_kind::local, activation_order::round_robin, 0},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string(c.topology) + " n=" + std::to_string(c.n) +
                 " oracle=" + std::string(oracle_name(c.oracle)) +
                 " threshold=" + std::to_string(c.exact_threshold));
    const graph::digraph start = make_start(c.topology, c.n, 7 * c.n + 1);
    const arena_result full = run_mode(start, c.oracle, c.order,
                                       c.exact_threshold, provider_mode::full,
                                       1234 + c.n);
    const arena_result inc = run_mode(start, c.oracle, c.order,
                                      c.exact_threshold,
                                      provider_mode::incremental, 1234 + c.n);
    expect_equal_runs(full, inc);
    EXPECT_LT(inc.sweeps.effective_sweeps(), full.sweeps.effective_sweeps());
  }
}

TEST(IncrementalMode, SweepLedgerAccountsEveryPath) {
  const graph::digraph start = make_start("ws", 20, 99);
  const arena_result inc =
      run_mode(start, oracle_kind::local, activation_order::round_robin, 0,
               provider_mode::incremental, 5);
  // Incremental runs build forests and reuse them; the full-sweep counter
  // only grows through node_scores (which stays on the full path).
  EXPECT_GT(inc.sweeps.forest, 0u);
  EXPECT_GT(inc.sweeps.accumulations, 0u);
  const arena_result full =
      run_mode(start, oracle_kind::local, activation_order::round_robin, 0,
               provider_mode::full, 5);
  EXPECT_EQ(full.sweeps.forest, 0u);
  EXPECT_EQ(full.sweeps.resweeps, 0u);
  EXPECT_EQ(full.sweeps.pruned, 0u);
  EXPECT_GT(full.sweeps.full_sweeps, inc.sweeps.full_sweeps);
}

TEST(IncrementalMode, LedgerPinsTheSerialSchedule) {
  // The ledger counts what evaluating the candidates one after another
  // does. These values were recorded from that one-thread loop; the pool's
  // replay must credit exactly them at every thread count.
  const graph::digraph start = make_start("ws", 20, 99);
  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    topology::game_params params;
    params.l = 1.5;
    arena_options options;
    options.oracle = oracle_kind::local;
    options.max_rounds = 8;
    options.seed = 5;
    options.oracle_opts.candidate_k = 3;
    options.oracle_opts.candidate_random = 1;
    options.oracle_opts.max_channels = 3;
    options.provider.exact_threshold = 0;
    options.provider.pivots = 8;
    options.provider.seed = 5 ^ 0x7c63f8d1905bb7a3ULL;
    options.provider.mode = provider_mode::incremental;
    options.provider.threads = threads;
    const arena_result r = run_arena(start, params, options);
    EXPECT_EQ(r.evaluations, 4717u);
    EXPECT_EQ(r.sweeps.full_sweeps, 64u);
    EXPECT_EQ(r.sweeps.forest, 702u);
    EXPECT_EQ(r.sweeps.resweeps, 6032u);
    EXPECT_EQ(r.sweeps.accumulations, 2453u);
    EXPECT_EQ(r.sweeps.support_bfs, 5784u);
    EXPECT_EQ(r.sweeps.pruned, 2638u);
    EXPECT_EQ(r.sweeps.truncated, 1435u);
  }
}

TEST(IncrementalMode, EvaluatorMatchesProviderPerCandidate) {
  // Direct per-candidate equivalence, independent of the engine: every
  // candidate own-set the local oracle would enumerate evaluates to the
  // same bits through both modes, including sets that trigger re-sweeps
  // (added channels) and pure accumulation reuse.
  const graph::digraph start = make_start("ws", 18, 3);
  topology::game_params params;
  params.l = 1.5;
  for (const std::size_t threshold : {std::size_t{0}, std::size_t{192}}) {
    provider_options full_opts;
    full_opts.exact_threshold = threshold;
    full_opts.pivots = 6;
    provider_options inc_opts = full_opts;
    inc_opts.mode = provider_mode::incremental;
    const utility_provider full(params, full_opts);
    const utility_provider inc(params, inc_opts);

    strategy_state state(start);
    const graph::node_id u = 5;
    const std::vector<graph::node_id> own = state.owned(u);
    const std::vector<graph::node_id> adds = {0, 9, 13};
    candidate_evaluator full_eval(full, state.graph(), u, own, adds);
    candidate_evaluator inc_eval(inc, state.graph(), u, own, adds);

    EXPECT_EQ(full_eval.base_value(), inc_eval.base_value());
    std::vector<std::vector<graph::node_id>> sets = {
        {}, {0}, {9, 13}, adds};
    for (const graph::node_id kept : own) sets.push_back({kept, 0});
    if (!own.empty()) {
      std::vector<graph::node_id> drop_first(own.begin() + 1, own.end());
      sets.push_back(drop_first);
    }
    for (const auto& set : sets) {
      EXPECT_EQ(full_eval.evaluate(set), inc_eval.evaluate(set))
          << "set size " << set.size() << " threshold " << threshold;
    }
    EXPECT_EQ(full.evaluations(), inc.evaluations());
  }
}

// --- thread-count invariance (DESIGN.md §8.4) ------------------------------

/// Everything a run observes: the population result, its sweep ledger and
/// the obs counter deltas it caused.
struct observed_run {
  population_result result;
  std::map<std::string, std::uint64_t> counters;
};

std::map<std::string, std::uint64_t> counter_values() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : obs::registry::global().snapshot().counters)
    out[name] = value;
  return out;
}

observed_run run_observed(const graph::digraph& start,
                          const population_options& popts) {
  topology::game_params params;
  params.l = 1.5;
  const std::map<std::string, std::uint64_t> before = counter_values();
  observed_run run;
  run.result = run_population(start, params, popts);
  for (const auto& [name, value] : counter_values()) {
    const auto it = before.find(name);
    const std::uint64_t delta = value - (it == before.end() ? 0 : it->second);
    if (delta != 0) run.counters[name] = delta;
  }
  return run;
}

void expect_equal_ledgers(const sweep_stats& a, const sweep_stats& b) {
  EXPECT_EQ(a.full_sweeps, b.full_sweeps);
  EXPECT_EQ(a.forest, b.forest);
  EXPECT_EQ(a.resweeps, b.resweeps);
  EXPECT_EQ(a.accumulations, b.accumulations);
  EXPECT_EQ(a.support_bfs, b.support_bfs);
  EXPECT_EQ(a.pruned, b.pruned);
  EXPECT_EQ(a.truncated, b.truncated);
}

TEST(ParallelCandidates, ThreadCountNeverChangesRunsLedgersOrCounters) {
  // Both oracles over the three populations of bench_arena (static,
  // heterogeneous, churning), at provider.threads 1, 2, 3 and 8. Every
  // observable of the one-thread run must repeat bit for bit, and so must
  // every obs counter except arena/speculative_sweep, the one counter of
  // work beyond the serial schedule.
  obs::registry::global().enable(true);
  const std::size_t n = 24;
  const graph::digraph ws = make_start("ws", n, 11);
  // The churning population starts with 16 players wired as a ws core and
  // 8 isolated spare slots.
  const std::size_t initial = 16;
  const graph::digraph core = make_start("ws", initial, 12);
  graph::digraph churn_start(n);
  for (const topology::channel_pair& ch : topology::channel_pairs(core))
    churn_start.add_bidirectional(ch.a, ch.b);

  for (const oracle_kind oracle : {oracle_kind::local, oracle_kind::greedy}) {
    for (const std::string family : {"static", "hetero", "churn"}) {
      SCOPED_TRACE(std::string(oracle_name(oracle)) + " " + family);
      population_options popts;
      popts.base.oracle = oracle;
      popts.base.max_rounds = 8;
      popts.base.seed = 31;
      popts.base.oracle_opts.candidate_k = 3;
      popts.base.oracle_opts.candidate_random = 1;
      popts.base.oracle_opts.max_channels = 3;
      popts.base.provider.mode = provider_mode::incremental;
      popts.base.provider.exact_threshold = 0;  // sampled, 8 pivots
      popts.base.provider.pivots = 8;
      popts.base.provider.seed = 77;
      const graph::digraph* start = &ws;
      if (family == "hetero") {
        dist::cost_param_specs specs;
        specs.a = {dist::param_dist::lognormal, 1.0, 0.5};
        specs.b = {dist::param_dist::lognormal, 1.0, 0.5};
        specs.l = {dist::param_dist::lognormal, 1.5, 0.5};
        rng stream(5);
        popts.player_params = dist::draw_population(specs, n, stream);
        popts.base.provider.exact_threshold = 192;  // exact backend
      } else if (family == "churn") {
        popts.initial_players = initial;
        popts.churn = make_churn_schedule(n, initial, 4, 4, 4, 9);
        popts.track_ledger = true;
        start = &churn_start;
      }

      popts.base.provider.threads = 1;
      const observed_run serial = run_observed(*start, popts);
      EXPECT_GT(serial.result.base.sweeps.resweeps, 0u);
      if (oracle == oracle_kind::local) {
        EXPECT_GT(serial.result.base.sweeps.pruned, 0u);
      }
      EXPECT_EQ(serial.counters.count("arena/speculative_sweep"), 0u)
          << "one thread runs exactly the serial schedule";
      for (const std::size_t threads : {2, 3, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        popts.base.provider.threads = threads;
        observed_run parallel = run_observed(*start, popts);
        expect_equal_runs(serial.result.base, parallel.result.base);
        expect_equal_ledgers(serial.result.base.sweeps,
                             parallel.result.base.sweeps);
        EXPECT_EQ(serial.result.joins, parallel.result.joins);
        EXPECT_EQ(serial.result.leaves, parallel.result.leaves);
        EXPECT_EQ(serial.result.active, parallel.result.active);
        EXPECT_EQ(serial.result.ledger.deposited,
                  parallel.result.ledger.deposited);
        EXPECT_EQ(serial.result.ledger.refunded,
                  parallel.result.ledger.refunded);
        parallel.counters.erase("arena/speculative_sweep");
        EXPECT_EQ(serial.counters, parallel.counters);
      }
      // The obs mirrors of the ledger agree with it.
      const sweep_stats& st = serial.result.base.sweeps;
      const auto counter = [&](const char* name) {
        const auto it = serial.counters.find(name);
        return it == serial.counters.end() ? std::uint64_t{0} : it->second;
      };
      EXPECT_EQ(counter("arena/resweep_source"), st.resweeps);
      EXPECT_EQ(counter("arena/accumulate_source"), st.accumulations);
      EXPECT_EQ(counter("arena/run_support_bfs"), st.support_bfs);
      EXPECT_EQ(counter("arena/prune_candidate"), st.pruned);
      EXPECT_EQ(counter("arena/truncate_merge"), st.truncated);
    }
  }
  obs::registry::global().enable(false);
}

TEST(ParallelCandidates, ConcurrentListReplaysTheSerialThresholdLoop) {
  // evaluate_in_order against the loop it stands for: set_threshold, then
  // evaluate, one candidate after another, with the thresholds an accept
  // callback derives from the values seen so far. The thresholds are
  // planned from the candidates' exact utilities so that the best
  // candidate sits EXACTLY at its threshold, duplicate sets tie, the
  // threshold climbs past most candidates (pruning and truncating them)
  // and never falls. Values, accept calls and the sweep ledger must match
  // the loop bit for bit at every thread count.
  topology::game_params params;
  params.l = 1.5;
  const graph::digraph start = make_start("ws", 40, 21);
  const strategy_state state(start);
  const graph::node_id u = 7;
  const std::vector<graph::node_id> own = state.owned(u);
  ASSERT_GE(own.size(), 2u);
  const std::vector<graph::node_id> adds = {0, 15, 22, 30, 36};
  std::vector<std::vector<graph::node_id>> sets;
  for (const graph::node_id a : adds) {
    std::vector<graph::node_id> set = own;
    set.push_back(a);
    std::sort(set.begin(), set.end());
    sets.push_back(set);
    sets.push_back(set);  // a tie with the previous candidate
    std::vector<graph::node_id> drop = set;
    drop.erase(drop.begin());
    sets.push_back(drop);
  }

  provider_options options;
  options.mode = provider_mode::incremental;
  options.exact_threshold = 0;
  options.pivots = 12;
  options.seed = 3;

  // Exact utilities (no threshold, so no pruning), in list order.
  std::vector<double> exact;
  double base = 0.0;
  {
    const utility_provider provider(params, options);
    candidate_evaluator evaluator(provider, state.graph(), u, own, adds);
    base = evaluator.base_value();
    for (const auto& set : sets) exact.push_back(evaluator.evaluate(set));
  }
  // The thresholds climb through the exact values seen so far, except
  // that the best candidate's value is raised one step early, so that the
  // best candidate sits exactly at its threshold and everything after it
  // is at or below the threshold.
  const std::size_t best = static_cast<std::size_t>(
      std::max_element(exact.begin() + 1, exact.end()) - exact.begin());
  const double first_threshold =
      *std::min_element(exact.begin(), exact.end()) - 1.0;
  const auto next_threshold = [&](std::size_t i, double current) {
    return std::max(current, exact[i + 1 == best ? best : i]);
  };

  struct outcome {
    std::vector<double> values;
    sweep_stats ledger;
  };
  const auto loop = [&] {
    const utility_provider provider(params, options);
    candidate_evaluator evaluator(provider, state.graph(), u, own, adds);
    EXPECT_EQ(evaluator.base_value(), base);
    outcome out;
    double threshold = first_threshold;
    for (std::size_t i = 0; i < sets.size(); ++i) {
      evaluator.set_threshold(threshold);
      out.values.push_back(evaluator.evaluate(sets[i]));
      threshold = next_threshold(i, threshold);
    }
    out.ledger = provider.stats();
    return out;
  };
  const auto in_order = [&](std::size_t threads) {
    provider_options threaded = options;
    threaded.threads = threads;
    const utility_provider provider(params, threaded);
    candidate_evaluator evaluator(provider, state.graph(), u, own, adds);
    EXPECT_EQ(evaluator.base_value(), base);
    outcome out;
    double threshold = first_threshold;
    evaluator.evaluate_in_order(sets, threshold, [&](std::size_t i,
                                                     double value) {
      EXPECT_EQ(i, out.values.size()) << "accept calls run in list order";
      out.values.push_back(value);
      threshold = next_threshold(i, threshold);
      return threshold;
    });
    out.ledger = provider.stats();
    return out;
  };

  const outcome want = loop();
  ASSERT_EQ(want.values.size(), sets.size());
  EXPECT_GT(want.ledger.pruned, 0u);
  EXPECT_GT(want.ledger.truncated, 0u);
  EXPECT_EQ(want.values[0], want.values[1]) << "duplicate sets tie";
  EXPECT_EQ(want.values[best], exact[best])
      << "a candidate exactly at its threshold is evaluated, not pruned";
  for (const std::size_t threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    // Repeated, so that different interleavings get a chance to differ.
    for (int rep = 0; rep < 5; ++rep) {
      const outcome got = in_order(threads);
      ASSERT_EQ(got.values.size(), want.values.size());
      for (std::size_t i = 0; i < want.values.size(); ++i)
        EXPECT_EQ(got.values[i], want.values[i]) << "candidate " << i;
      expect_equal_ledgers(got.ledger, want.ledger);
    }
  }
}

}  // namespace
}  // namespace lcg::arena
