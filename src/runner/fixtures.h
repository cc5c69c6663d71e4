// Shared experiment fixtures, deduplicated out of the bench_* binaries.
//
// Every join-game experiment needs the same setup: a connected random host
// graph, the paper's utility model on it, a candidate set, and an estimated
// objective. `make_join_instance` builds exactly that; the scenario runner
// and the benchmark binaries both consume it. `make_topology` names the
// standard graph shapes the topology/simulation experiments sweep over.

#ifndef LCG_RUNNER_FIXTURES_H
#define LCG_RUNNER_FIXTURES_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/objective.h"
#include "core/rate_estimator.h"
#include "core/utility.h"
#include "graph/digraph.h"
#include "util/rng.h"

namespace lcg::runner {

/// A joining-node problem instance on a connected random host.
struct join_instance {
  graph::digraph host;
  std::unique_ptr<core::utility_model> model;
  std::unique_ptr<core::full_connection_rate_estimator> estimator;
  std::unique_ptr<core::estimated_objective> objective;
  std::vector<graph::node_id> candidates;
};

/// Host graph: Barabási–Albert (attach 2) when `barabasi` and n > 3,
/// otherwise an Erdős–Rényi graph made connected by a cycle overlay.
/// `total_rate` < 0 defaults to n (one transaction per node per unit time).
[[nodiscard]] join_instance make_join_instance(std::uint64_t seed,
                                               std::size_t n,
                                               core::model_params params,
                                               double zipf_s = 1.0,
                                               double total_rate = -1.0,
                                               bool barabasi = true);

/// The bench/experiment default economic parameters.
[[nodiscard]] core::model_params default_model_params();

/// Named topology factory: "star", "path", "cycle", "complete", "grid"
/// (rows x cols from n = rows*cols, as square as possible), "ba"
/// (Barabási–Albert, attach 2), "er" (Erdős–Rényi p=0.3 + cycle overlay),
/// "ws" (Watts–Strogatz ring, k=2 per side, beta=0.1 — linear edge count,
/// usable at 10^4 nodes where "er" would be quadratic). `gen` is consumed
/// only by the random families. Throws precondition_error for unknown names
/// or infeasible sizes.
[[nodiscard]] graph::digraph make_topology(const std::string& name,
                                           std::size_t n, rng& gen);

/// The topology names make_topology accepts (for --list / sweeps).
[[nodiscard]] const std::vector<std::string>& topology_names();

// --- committed CSV snapshot fixtures ---------------------------------------
//
// A fixture directory (data/snapshots/<name>/) holds graph/io's three CSV
// files next to the `recipe.txt` they were generated from, so the bytes can
// be neither lost nor hand-edited silently: a test rebuilds every fixture
// from its recipe and byte-compares, and `make_snapshot <dir>` rewrites the
// CSVs from the recipe. The recipe is `key value` lines ('#' comments):
//
//   generator ba      Barabási–Albert (the only generator so far)
//   n 400             node count
//   attach 2          edges per arriving node
//   balance 10        balance of every channel direction
//   seed 400          rng seed of the generator

/// A parsed recipe.txt.
struct snapshot_recipe {
  std::string generator;
  std::size_t n = 0;
  std::size_t attach = 0;
  double balance = 0.0;
  std::uint64_t seed = 0;
};

/// `<dir>/recipe.txt`.
[[nodiscard]] std::string snapshot_recipe_path(const std::string& dir);

/// Parses `<dir>/recipe.txt`. Throws lcg::error naming the file (and line)
/// when it is missing, malformed, incomplete or names an unknown generator.
[[nodiscard]] snapshot_recipe read_snapshot_recipe(const std::string& dir);

/// The graph a recipe describes; write_csv_snapshot of it gives the
/// committed bytes.
[[nodiscard]] graph::digraph build_snapshot(const snapshot_recipe& recipe);

/// read_csv_snapshot(dir), except that a missing CSV file fails with an
/// lcg::error naming the recipe to regenerate the fixture from.
[[nodiscard]] graph::digraph load_snapshot_fixture(const std::string& dir);

}  // namespace lcg::runner

#endif  // LCG_RUNNER_FIXTURES_H
