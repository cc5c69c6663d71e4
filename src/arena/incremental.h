// Toggle-aware incremental utility evaluation (the arena's hot path).
//
// Every oracle candidate is a tiny set of channel toggles against the
// activation's base graph, yet the full evaluation path re-runs a complete
// Brandes / Brandes–Pich sweep per candidate. candidate_evaluator exploits
// the toggle structure per oracle call (DESIGN.md §8):
//
//   1. SHARED-PIVOT REUSE — the pivot SSSP forest of the base graph is
//      built at most once per activation (the pivot set of
//      node_betweenness_of depends only on (n, k, seed, u), never on edges,
//      so it is identical across candidates) and cached provider-wide per
//      base graph, so activations between applied moves share forests
//      across players. For each candidate, only sources whose DAG the
//      toggles can affect (graph::toggle_affects_source) are re-swept; all
//      other sources reuse the cached DAG bits and re-run just the backward
//      accumulation with the candidate's weight rows — bitwise equal to a
//      fresh sweep because the DAG bits are provably unchanged.
//   2. UPPER-BOUND PRUNING — before any sweep, a candidate's utility is
//      bounded from above using weight-row dot products against cached
//      through-fractions plus slack only on pairs whose shortest paths a
//      toggle could actually reroute (all toggles are incident to u, so the
//      "possibly affected pair" cone is computable from base BFS arrays).
//      Candidates whose bound cannot beat the incumbent are discarded
//      without a single sweep. Sound because oracle comparisons are strict
//      and the bound is only consumed BELOW the acceptance threshold.
//   3. PARALLEL CANDIDATES — evaluate_in_order runs an oracle's whole
//      candidate list on the provider's pool (DESIGN.md §8.4): workers
//      pull candidates from an atomic cursor and evaluate each against the
//      threshold of the prefix merged so far, a lower bound on the
//      threshold the serial order would use. Results merge strictly in
//      list order, and the merge replays the serial decision (prune,
//      truncate or exact) from a small per-candidate record, so returned
//      values, oracle moves and the sweep ledger are identical at every
//      thread count; work beyond the serial schedule is counted in the obs
//      counter arena/speculative_sweep only.
//
// Both provider modes run through this class: full mode degenerates to the
// historical toggle-and-evaluate loop (provider.evaluate on the scratch
// graph), so the oracles have exactly one evaluation seam. Results are
// BIT-IDENTICAL between modes — pinned by tests/arena_incremental_test.cpp
// and the toggle-sequence sections of graph_betweenness_property_test.

#ifndef LCG_ARENA_INCREMENTAL_H
#define LCG_ARENA_INCREMENTAL_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "arena/provider.h"
#include "graph/digraph.h"
#include "graph/traversal.h"

namespace lcg::arena {

/// Per-activation evaluation session for one player's candidate own-sets.
///
/// The scratch graph holds u's existing own channels (active — the RESTING
/// state is the base graph) plus one DEACTIVATED edge pair per candidate
/// addition; evaluating a set toggles only the symmetric difference to the
/// base configuration around the provider call (a pool worker toggles its
/// own copy of the scratch graph). Construction cost is O(|own| + |adds|)
/// slots; no sweep happens until the first evaluation.
class candidate_evaluator {
 public:
  /// `own` = u's current own peers, `adds` = candidate new peers (both as
  /// the oracles produce them). The provider's mode selects the path.
  candidate_evaluator(const utility_provider& provider,
                      const graph::digraph& base, graph::node_id u,
                      const std::vector<graph::node_id>& own,
                      const std::vector<graph::node_id>& adds);
  ~candidate_evaluator();

  /// U_u(base) — in incremental mode served from the session forest with
  /// zero fresh sweeps beyond the forest itself; bitwise equal to
  /// provider.evaluate(base, u).total in both modes.
  [[nodiscard]] double base_value();

  /// Utility of `u` with exactly the channels to `set` active. In
  /// incremental mode a candidate whose upper bound cannot exceed the
  /// current threshold returns that bound (a value <= threshold) without
  /// sweeping; otherwise the returned value is bitwise equal to the full
  /// path's. Counts one logical provider evaluation either way.
  [[nodiscard]] double evaluate(const std::vector<graph::node_id>& set);

  /// Pruning threshold: candidates that cannot strictly exceed it may be
  /// discarded on their upper bound alone. Callers with non-threshold
  /// acceptance logic (the greedy engine compares candidates among each
  /// other) must leave it at -infinity, which disables pruning.
  void set_threshold(double threshold) noexcept { threshold_ = threshold; }

  /// Evaluates `sets` as the loop
  ///
  ///   for i in order: set_threshold(threshold);
  ///                   threshold = accept(i, evaluate(sets[i]));
  ///
  /// would, with the same values passed to `accept`, the same calls in the
  /// same order and the same sweep ledger, but in incremental mode on the
  /// provider's pool (one dispatch per call). `accept` runs on whichever
  /// pool thread merges candidate i, one call at a time. The thresholds it
  /// returns must never decrease, and one that starts at -infinity must
  /// stay there or turn NaN (both disable pruning for the whole list).
  void evaluate_in_order(
      std::span<const std::vector<graph::node_id>> sets, double threshold,
      const std::function<double(std::size_t, double)>& accept);

 private:
  struct session;  // incremental-mode cached state (forest, fractions, BFS)
  struct record;   // what one speculative evaluation found

  void toggle_diff(graph::digraph& g, const std::vector<graph::node_id>& set,
                   bool on) const;
  /// The candidate's toggles: own channels `set` drops, additions it makes.
  void split_toggles(const std::vector<graph::node_id>& set,
                     std::vector<graph::node_id>& removed,
                     std::vector<graph::node_id>& added) const;
  /// Base DAG for plan source i — provider-cache hit or one forest sweep.
  /// Must only be called while the scratch graph is at its resting state.
  const graph::sp_dag& base_dag(std::size_t i);
  /// Materialises, serially, all shared state evaluating `sets` reads: the
  /// forest, the rank table and, when `bounding`, every base BFS array and
  /// through-fraction the bound phase needs. Sizes the pool scratch.
  void prepare(std::span<const std::vector<graph::node_id>> sets,
               bool bounding, std::size_t participants);
  /// One evaluation into `r` on participant scratch `p`, toggling `g`
  /// (work_ or a private copy of it), pruning and truncating against the
  /// current value of `threshold`. Reads shared state only.
  void speculate(std::size_t p, graph::digraph& g,
                 const std::vector<graph::node_id>& set,
                 const std::atomic<double>& threshold, record& r) const;
  /// The serial decision at `threshold` for a record taken at or below it:
  /// its value, with the serial schedule's ledger and obs increments.
  double replay(const record& r, double threshold);

  const utility_provider& provider_;
  graph::digraph work_;
  graph::node_id u_;
  std::vector<graph::node_id> own_;    // sorted own peers (resting: active)
  std::vector<graph::node_id> peers_;  // own + adds, slot-table order
  std::vector<std::pair<graph::edge_id, graph::edge_id>> pairs_;
  double threshold_;
  std::unique_ptr<session> session_;   // null in full mode
};

}  // namespace lcg::arena

#endif  // LCG_ARENA_INCREMENTAL_H
