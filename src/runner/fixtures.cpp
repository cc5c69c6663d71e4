#include "runner/fixtures.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "graph/generators.h"
#include "graph/io.h"
#include "util/error.h"

namespace lcg::runner {

namespace {

/// Erdős–Rényi host made connected by a cycle overlay.
graph::digraph make_connected_er(std::size_t n, double p, rng& gen) {
  graph::digraph g = graph::erdos_renyi(n, p, gen);
  for (graph::node_id v = 0; v < n; ++v) {
    const auto next = static_cast<graph::node_id>((v + 1) % n);
    if (g.find_edge(v, next) == graph::invalid_edge)
      g.add_bidirectional(v, next);
  }
  return g;
}

}  // namespace

join_instance make_join_instance(std::uint64_t seed, std::size_t n,
                                 core::model_params params, double zipf_s,
                                 double total_rate, bool barabasi) {
  join_instance inst;
  rng gen(seed);
  if (barabasi && n > 3) {
    inst.host = graph::barabasi_albert(n, 2, gen);
  } else {
    inst.host = make_connected_er(n, 0.3, gen);
  }
  if (total_rate < 0.0) total_rate = static_cast<double>(n);
  inst.model = std::make_unique<core::utility_model>(
      core::make_zipf_model(inst.host, zipf_s, total_rate, params));
  inst.candidates.resize(n);
  for (graph::node_id v = 0; v < n; ++v) inst.candidates[v] = v;
  inst.estimator = std::make_unique<core::full_connection_rate_estimator>(
      *inst.model, inst.candidates);
  inst.objective = std::make_unique<core::estimated_objective>(
      *inst.model, *inst.estimator);
  return inst;
}

core::model_params default_model_params() {
  core::model_params p;
  p.onchain_cost = 1.0;
  p.opportunity_rate = 0.02;
  p.fee_avg = 3.0;
  p.fee_avg_tx = 0.5;
  p.user_tx_rate = 1.0;
  return p;
}

graph::digraph make_topology(const std::string& name, std::size_t n,
                             rng& gen) {
  LCG_EXPECTS(n >= 2);
  if (name == "star") return graph::star_graph(n - 1);
  if (name == "path") return graph::path_graph(n);
  if (name == "cycle") return graph::cycle_graph(n);
  if (name == "complete") return graph::complete_graph(n);
  if (name == "grid") {
    auto rows = static_cast<std::size_t>(std::sqrt(static_cast<double>(n)));
    while (rows > 1 && n % rows != 0) --rows;
    return graph::grid_graph(rows, n / rows);
  }
  if (name == "ba") {
    if (n <= 3) return graph::complete_graph(n);
    return graph::barabasi_albert(n, 2, gen);
  }
  if (name == "er") return make_connected_er(n, 0.3, gen);
  if (name == "ws") {
    // Ring + rewiring keeps edge count linear in n (unlike "er", whose
    // p=0.3 density is quadratic), so this family is the small-world host
    // for the 10^4-node scale scenarios. n in {3, 4} degenerates to the
    // plain ring (watts_strogatz needs n > 2k); n == 2 throws, preserving
    // the contract that the returned graph has exactly n nodes.
    if (n <= 4) return graph::cycle_graph(n);
    return graph::watts_strogatz(n, 2, 0.1, gen);
  }
  throw precondition_error("unknown topology '" + name + "'");
}

const std::vector<std::string>& topology_names() {
  static const std::vector<std::string> names{
      "star", "path", "cycle", "complete", "grid", "ba", "er", "ws"};
  return names;
}

namespace {
constexpr std::size_t max_recipe_nodes = 10'000'000;
}  // namespace

std::string snapshot_recipe_path(const std::string& dir) {
  return (std::filesystem::path(dir) / "recipe.txt").string();
}

snapshot_recipe read_snapshot_recipe(const std::string& dir) {
  const std::string path = snapshot_recipe_path(dir);
  std::ifstream in(path);
  if (!in) throw error("snapshot recipe " + path + " cannot be opened");
  snapshot_recipe recipe;
  bool seen_n = false, seen_attach = false, seen_balance = false,
       seen_seed = false;
  std::string line;
  for (std::size_t line_no = 1; std::getline(in, line); ++line_no) {
    const std::string where = path + ":" + std::to_string(line_no);
    std::istringstream fields(line.substr(0, line.find('#')));
    std::string key;
    if (!(fields >> key)) continue;
    const auto parse = [&](auto& value, bool& seen) {
      if (!(fields >> value)) throw error(where + ": bad value for " + key);
      seen = true;
    };
    if (key == "generator") {
      if (!(fields >> recipe.generator))
        throw error(where + ": bad value for generator");
    } else if (key == "n") {
      parse(recipe.n, seen_n);
    } else if (key == "attach") {
      parse(recipe.attach, seen_attach);
    } else if (key == "balance") {
      parse(recipe.balance, seen_balance);
    } else if (key == "seed") {
      parse(recipe.seed, seen_seed);
    } else {
      throw error(where + ": unknown key '" + key + "'");
    }
    std::string extra;
    if (fields >> extra) throw error(where + ": trailing '" + extra + "'");
  }
  if (recipe.generator != "ba")
    throw error(path + ": generator must be 'ba', got '" + recipe.generator +
                "'");
  if (!seen_n || !seen_attach || !seen_balance || !seen_seed)
    throw error(path + ": needs n, attach, balance and seed");
  // The node count sizes the generator's allocations: cap it (a negative
  // value read into an unsigned field also lands above the cap).
  if (recipe.attach == 0 || recipe.n <= recipe.attach ||
      recipe.n > max_recipe_nodes || !(recipe.balance >= 0.0))
    throw error(path + ": needs " + std::to_string(max_recipe_nodes) +
                " >= n > attach >= 1 and balance >= 0");
  return recipe;
}

graph::digraph build_snapshot(const snapshot_recipe& recipe) {
  rng gen(recipe.seed);
  return graph::barabasi_albert(recipe.n, recipe.attach, gen, recipe.balance);
}

graph::digraph load_snapshot_fixture(const std::string& dir) {
  for (const char* file : {"nodes.csv", "channels.csv", "edges.csv"}) {
    const std::filesystem::path csv = std::filesystem::path(dir) / file;
    if (!std::filesystem::exists(csv))
      throw error("snapshot fixture file " + csv.string() +
                  " is missing; regenerate the fixture from its recipe " +
                  snapshot_recipe_path(dir) + " with `make_snapshot " + dir +
                  "`");
  }
  return graph::read_csv_snapshot(dir);
}

}  // namespace lcg::runner
