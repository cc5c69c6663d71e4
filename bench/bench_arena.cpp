// Arena performance: best-response dynamics at populations the exhaustive
// topo/best_response reference cannot touch (n >> 8).
//
// Measures wall time, rounds-to-termination and utility-evaluation counts
// of the arena engine (src/arena/) across population sizes and oracles, and
// emits a machine-readable record to BENCH_arena.json so the performance
// trajectory is tracked across PRs (the same contract as
// BENCH_betweenness.json):
//
//   [{"family":"static", "n":..., "channels_start":..., "topology":"ws",
//     "oracle":"greedy", "order":"round_robin", "pivots":16, "mode":"full",
//     "threads":1, "rounds":..., "moves":..., "evaluations":...,
//     "effective_sweeps":..., "pruned_candidates":..., "sweep_reduction":...,
//     "converged":1, "joins":0, "leaves":0, "conservation_gap":0,
//     "final_shape":"other", "host_hw_threads":..., "host_cpu":...,
//     "compiler":..., "build_type":..., "obs":{"arena/sweep_full":..., ...},
//     "wall_ms":..., "evals_per_ms":...}, ...]
//
// The "obs" object mirrors the run's sweep ledger under the runtime
// metric names (src/obs/), so a trace snapshot and a committed bench
// record are comparable key for key.
//
// Three families per population size: "static" (the homogeneous fixed
// population, greedy AND local oracles), "hetero" (lognormal per-player
// cost params through arena/population.h) and "churn" (2n/3 initial
// players, 8 joins + 8 leaves, deposit ledger tracked — conservation_gap
// must be exactly 0).
//
// Every configuration runs three times, emitted as adjacent records: full
// mode, then incremental mode at provider.threads 1 and at the hardware
// concurrency (at least 2). All three must agree on every observable —
// outcome, rounds, moves, logical evaluations, total gain, final topology,
// churn counts, deposit ledger — and the two incremental runs also on every
// sweep_stats field; this binary EXITS NON-ZERO on any divergence, so the
// bench doubles as the mode-equivalence and thread-count gate at bench
// scale. `effective_sweeps` counts single-source DAG constructions (the
// metric the incremental mode exists to cut); `sweep_reduction` on
// incremental records is full/incremental for the same configuration.
//
// Like bench_betweenness this binary needs no google-benchmark and is built
// unconditionally; CI runs --smoke and checks the JSON is well-formed.
//
//   bench_arena [--smoke] [--json PATH] [--sizes n1,n2,...] [--repeat R]

#include <charconv>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "arena/engine.h"
#include "arena/population.h"
#include "bench_timing.h"
#include "dist/param_sampler.h"
#include "runner/fixtures.h"
#include "topology/dynamics.h"
#include "topology/game.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace lcg;

struct bench_record {
  /// "static" (the homogeneous fixed-population run), "hetero" (lognormal
  /// per-player params) or "churn" (join/leave schedule + deposit ledger).
  std::string family = "static";
  std::size_t n = 0;
  std::size_t channels_start = 0;
  std::string topology;
  std::string oracle;
  std::string order;
  std::size_t pivots = 0;
  std::string mode;
  /// provider.threads of the run (full-mode records run at 1).
  std::size_t threads = 1;
  std::size_t joins = 0;
  std::size_t leaves = 0;
  double conservation_gap = 0.0;
  std::size_t rounds = 0;
  std::size_t moves = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t effective_sweeps = 0;
  std::uint64_t pruned = 0;
  /// The full per-run sweep ledger, mirrored into the record's "obs"
  /// object under the runtime counter names (values from the
  /// deterministic, equality-gated sweep_stats — never the live registry).
  arena::sweep_stats sweeps;
  double sweep_reduction = 1.0;
  bool converged = false;
  std::string final_shape;
  double wall_ms = 0.0;
};

struct bench_config {
  std::vector<std::size_t> sizes{60, 120, 240};
  std::size_t repeat = 1;
  std::string json_path = "BENCH_arena.json";
};

std::vector<std::size_t> parse_size_list(const std::string& text) {
  std::vector<std::size_t> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    std::size_t v = 0;
    const auto [ptr, ec] =
        std::from_chars(item.data(), item.data() + item.size(), v);
    if (ec != std::errc() || ptr != item.data() + item.size() || v == 0) {
      std::cerr << "bench_arena: bad list entry '" << item << "'\n";
      std::exit(2);
    }
    out.push_back(v);
  }
  if (out.empty()) {
    std::cerr << "bench_arena: empty list '" << text << "'\n";
    std::exit(2);
  }
  return out;
}

void write_json(const std::string& path,
                const std::vector<bench_record>& records) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "bench_arena: cannot open '" << path << "'\n";
    std::exit(1);
  }
  os << "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const bench_record& r = records[i];
    const double evals_per_ms =
        r.wall_ms > 0.0 ? static_cast<double>(r.evaluations) / r.wall_ms : 0.0;
    os << "  {\"family\": \"" << r.family << "\", \"n\": " << r.n
       << ", \"channels_start\": " << r.channels_start
       << ", \"topology\": \"" << r.topology << "\", \"oracle\": \""
       << r.oracle << "\", \"order\": \"" << r.order
       << "\", \"pivots\": " << r.pivots << ", \"mode\": \"" << r.mode
       << "\", \"threads\": " << r.threads << ", \"rounds\": " << r.rounds
       << ", \"moves\": " << r.moves << ", \"evaluations\": " << r.evaluations
       << ", \"effective_sweeps\": " << r.effective_sweeps
       << ", \"pruned_candidates\": " << r.pruned
       << ", \"sweep_reduction\": " << r.sweep_reduction
       << ", \"converged\": " << (r.converged ? 1 : 0)
       << ", \"joins\": " << r.joins << ", \"leaves\": " << r.leaves
       << ", \"conservation_gap\": " << r.conservation_gap
       << ", \"final_shape\": \"" << r.final_shape << "\"";
    bench::write_host_fields(os);
    os << ", \"obs\": {\"arena/sweep_full\": " << r.sweeps.full_sweeps
       << ", \"arena/build_forest\": " << r.sweeps.forest
       << ", \"arena/resweep_source\": " << r.sweeps.resweeps
       << ", \"arena/accumulate_source\": " << r.sweeps.accumulations
       << ", \"arena/run_support_bfs\": " << r.sweeps.support_bfs
       << ", \"arena/prune_candidate\": " << r.sweeps.pruned
       << ", \"arena/truncate_merge\": " << r.sweeps.truncated << "}"
       << ", \"wall_ms\": " << r.wall_ms
       << ", \"evals_per_ms\": " << evals_per_ms << "}"
       << (i + 1 < records.size() ? "," : "") << "\n";
  }
  os << "]\n";
}

/// The two modes must produce identical dynamics; any drift is a
/// correctness bug in the incremental path, not a perf regression.
bool equal_runs(const arena::arena_result& a, const arena::arena_result& b) {
  if (a.outcome != b.outcome || a.rounds != b.rounds ||
      a.proposals != b.proposals || a.evaluations != b.evaluations ||
      a.total_gain != b.total_gain || a.moves.size() != b.moves.size())
    return false;
  for (std::size_t i = 0; i < a.moves.size(); ++i) {
    const topology::deviation& x = a.moves[i].dev;
    const topology::deviation& y = b.moves[i].dev;
    if (x.deviator != y.deviator || x.removed_peers != y.removed_peers ||
        x.added_peers != y.added_peers ||
        x.utility_before != y.utility_before ||
        x.utility_after != y.utility_after)
      return false;
  }
  return topology::topology_fingerprint(a.state.graph()) ==
         topology::topology_fingerprint(b.state.graph());
}

/// Every sweep_stats field: the ledger counts the serial schedule, so it
/// must not depend on the thread budget.
bool equal_ledgers(const arena::sweep_stats& a, const arena::sweep_stats& b) {
  return a.full_sweeps == b.full_sweeps && a.forest == b.forest &&
         a.resweeps == b.resweeps && a.accumulations == b.accumulations &&
         a.support_bfs == b.support_bfs && a.pruned == b.pruned &&
         a.truncated == b.truncated;
}

int run(const bench_config& config) {
  std::vector<bench_record> records;
  table t({"family", "n", "channels", "oracle", "mode", "threads", "rounds",
           "moves", "evaluations", "sweeps", "pruned", "reduction", "shape",
           "wall ms"});

  topology::game_params params;
  params.l = 1.5;
  // At least two, so the gate exercises the provider's pool even on a
  // one-CPU host.
  const std::size_t pool_threads =
      std::max(2u, std::thread::hardware_concurrency());

  // The shared restricted-greedy configuration of every family.
  const auto base_options = [] {
    arena::arena_options options;
    options.oracle = arena::oracle_kind::greedy;
    options.order = arena::activation_order::round_robin;
    options.seed = 42;
    options.max_rounds = 24;
    options.oracle_opts.candidate_k = 3;
    options.oracle_opts.candidate_random = 0;
    options.oracle_opts.max_channels = 3;
    options.provider.exact_threshold = 96;
    options.provider.pivots = 16;
    options.provider.seed = 42;
    return options;
  };

  /// Runs one configuration in full mode, then incremental at one thread
  /// and at `pool_threads`, appending the three records; false on any
  /// divergence: full vs incremental on every observable (dynamics, churn
  /// counts, active mask, deposit ledger), and the two incremental runs
  /// additionally on every sweep_stats field. (The static family is the
  /// degenerate population: run_arena forwards to run_population.)
  const auto run_set = [&](const std::string& family,
                           const graph::digraph& start,
                           arena::population_options popts) {
    const std::size_t n = start.node_count();
    struct variant {
      arena::provider_mode mode;
      std::size_t threads;
    };
    std::vector<arena::population_result> results;
    for (const variant v : {variant{arena::provider_mode::full, 1},
                            variant{arena::provider_mode::incremental, 1},
                            variant{arena::provider_mode::incremental,
                                    pool_threads}}) {
      popts.base.provider.mode = v.mode;
      popts.base.provider.threads = v.threads;
      arena::population_result result;
      const double best_ms = bench::best_of_ms(
          config.repeat,
          [&] { return arena::run_population(start, params, popts); },
          &result);

      bench_record rec;
      rec.family = family;
      rec.n = n;
      rec.channels_start = start.edge_count() / 2;
      rec.topology = "ws";
      rec.oracle = std::string(arena::oracle_name(popts.base.oracle));
      rec.order = std::string(arena::order_name(popts.base.order));
      rec.pivots = popts.base.provider.pivots;
      rec.mode = std::string(arena::provider_mode_name(v.mode));
      rec.threads = v.threads;
      rec.rounds = result.base.rounds;
      rec.moves = result.base.moves.size();
      rec.evaluations = result.base.evaluations;
      rec.effective_sweeps = result.base.sweeps.effective_sweeps();
      rec.pruned = result.base.sweeps.pruned;
      rec.sweeps = result.base.sweeps;
      rec.converged =
          result.base.outcome == topology::dynamics_outcome::converged;
      rec.joins = result.joins;
      rec.leaves = result.leaves;
      rec.conservation_gap = result.ledger.conservation_gap();
      rec.final_shape =
          topology::classify_topology(result.base.state.graph());
      rec.wall_ms = best_ms;
      if (v.mode == arena::provider_mode::incremental &&
          rec.effective_sweeps > 0) {
        const arena::sweep_stats& full = results.front().base.sweeps;
        rec.sweep_reduction = static_cast<double>(full.effective_sweeps()) /
                              static_cast<double>(rec.effective_sweeps);
      }
      records.push_back(rec);
      t.add_row({rec.family, static_cast<long long>(n),
                 static_cast<long long>(rec.channels_start), rec.oracle,
                 rec.mode, static_cast<long long>(rec.threads),
                 static_cast<long long>(rec.rounds),
                 static_cast<long long>(rec.moves),
                 static_cast<long long>(rec.evaluations),
                 static_cast<long long>(rec.effective_sweeps),
                 static_cast<long long>(rec.pruned), rec.sweep_reduction,
                 rec.final_shape, rec.wall_ms});
      results.push_back(std::move(result));
    }
    const auto same = [](const arena::population_result& a,
                         const arena::population_result& b) {
      return equal_runs(a.base, b.base) && a.joins == b.joins &&
             a.leaves == b.leaves && a.active == b.active &&
             a.ledger.deposited == b.ledger.deposited &&
             a.ledger.refunded == b.ledger.refunded &&
             a.ledger.open_value == b.ledger.open_value &&
             a.ledger.locked == b.ledger.locked;
    };
    const std::string_view oracle = arena::oracle_name(popts.base.oracle);
    if (!same(results[0], results[1])) {
      std::cerr << "bench_arena: FULL vs INCREMENTAL divergence at n=" << n
                << " family=" << family << " oracle=" << oracle
                << " — the incremental mode must be bitwise-exact\n";
      return false;
    }
    if (!same(results[1], results[2]) ||
        !equal_ledgers(results[1].base.sweeps, results[2].base.sweeps)) {
      std::cerr << "bench_arena: 1 vs " << pool_threads
                << " provider threads diverge at n=" << n
                << " family=" << family << " oracle=" << oracle
                << " — dynamics and the sweep ledger must not depend on the "
                   "thread budget\n";
      return false;
    }
    return true;
  };

  for (const std::size_t n : config.sizes) {
    rng gen(n);
    const graph::digraph start = runner::make_topology("ws", n, gen);

    for (const arena::oracle_kind oracle :
         {arena::oracle_kind::greedy, arena::oracle_kind::local}) {
      arena::population_options popts;
      popts.base = base_options();
      popts.base.oracle = oracle;
      if (!run_set("static", start, popts)) return 1;
    }

    // Heterogeneous population: mean-preserving lognormal
    // per-player (a, b, l), sigma 0.5, over the same ws start. The
    // equality gates cover the per-player evaluation path.
    {
      arena::population_options popts;
      popts.base = base_options();
      dist::cost_param_specs specs;
      specs.a = {dist::param_dist::lognormal, params.a, 0.5};
      specs.b = {dist::param_dist::lognormal, params.b, 0.5};
      specs.l = {dist::param_dist::lognormal, params.l, 0.5};
      rng param_stream(0x452821e638d01377ULL ^ n);
      popts.player_params = dist::draw_population(specs, n, param_stream);
      if (!run_set("hetero", start, popts)) return 1;
    }

    // Churning population: 2n/3 initial players over a ws core
    // (spare slots isolated), 8 joins + 8 leaves in the first half of the
    // round budget, deposit ledger tracked. The equality gates cover the
    // churn counts and every ledger field; conservation_gap lands in the
    // JSON so CI can assert it is exactly 0.
    {
      const std::size_t initial = 2 * n / 3;
      arena::population_options popts;
      popts.base = base_options();
      popts.initial_players = initial;
      popts.churn = arena::make_churn_schedule(
          n, initial, 8, 8, popts.base.max_rounds / 2,
          0xb5470917c2a7f64dULL ^ n);
      popts.track_ledger = true;

      rng churn_gen(n);
      const graph::digraph core =
          runner::make_topology("ws", initial, churn_gen);
      graph::digraph churn_start(n);
      for (const topology::channel_pair& ch : topology::channel_pairs(core))
        churn_start.add_bidirectional(ch.a, ch.b);
      if (!run_set("churn", churn_start, popts)) return 1;
    }
  }

  std::cout << "Arena best-response dynamics at n >> 8 (ws hosts, l=1.5; "
            << "exact provider <= 96 nodes, 16-pivot sampled above;\n"
            << "each configuration in full mode and in incremental mode at 1 "
            << "and " << pool_threads << " provider threads, equality "
            << "enforced)\n";
  t.print(std::cout);
  write_json(config.json_path, records);
  std::cout << records.size() << " record(s) -> " << config.json_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench_config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "bench_arena: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--smoke") {
      // CI smoke mode: small populations, both oracles, quick.
      config.sizes = {24, 60};
    } else if (arg == "--json") {
      config.json_path = need_value("--json");
    } else if (arg == "--sizes") {
      config.sizes = parse_size_list(need_value("--sizes"));
    } else if (arg == "--repeat") {
      const std::string text = need_value("--repeat");
      const auto [ptr, ec] = std::from_chars(
          text.data(), text.data() + text.size(), config.repeat);
      if (ec != std::errc() || ptr != text.data() + text.size() ||
          config.repeat == 0) {
        std::cerr << "bench_arena: bad --repeat '" << text << "'\n";
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: bench_arena [--smoke] [--json PATH] "
                   "[--sizes n1,n2,...] [--repeat R]\n";
      return 0;
    } else {
      std::cerr << "bench_arena: unknown argument '" << arg << "'\n";
      return 2;
    }
  }
  return run(config);
}
