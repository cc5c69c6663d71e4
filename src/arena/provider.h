// The arena's pluggable utility provider.
//
// Every best-response evaluation bottoms out in the Section IV utility
// U_u = E_rev_u - E_fees_u - cost_u (topology/game.h). At population scale
// the dominant term is E_rev_u — a weighted node-betweenness sweep — so the
// provider routes it through graph/betweenness.h's multi-backend engine:
//
//   * n <= exact_threshold  -> the exact PARALLEL backend (bit-identical to
//     serial for any thread budget, so runner byte-identity holds), and
//   * n >  exact_threshold  -> the Brandes–Pich SAMPLED estimator with a
//     fixed pivot-stream seed (Brandes & Pich 2007: k pivots rescaled by
//     population/k, which keeps the estimate unbiased). The population is
//     all n nodes for whole-graph sweeps (n/k — the factor CHANGES.md's
//     PR 2 entry describes) and the n - 1 sources != u for
//     node_betweenness_of ((n-1)/k — the factor used here); the property
//     harness pins both. Each evaluation drops from O(n(n+m)) to O(k(n+m)).
//
// p_trans rows are materialised lazily per evaluation: the sampled backend
// touches only its pivot sources, so at 10^3+ nodes the O(n^2) probability
// matrix of topology::node_utility never needs to exist. With the exact
// backend the provider is BIT-IDENTICAL to topology::node_utility for the
// keep_sender_edges ranking basis (tests pin this); the sampled backend
// trades exactness for scale, deterministically under the fixed seed.

#ifndef LCG_ARENA_PROVIDER_H
#define LCG_ARENA_PROVIDER_H

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/params.h"
#include "dist/zipf.h"
#include "graph/betweenness.h"
#include "topology/game.h"
#include "util/worker_pool.h"

namespace lcg::arena {

struct base_dag_cache;      // arena/incremental.cpp
struct evaluation_scratch;  // arena/incremental.cpp

/// The library-wide default for provider_options::exact_threshold — the one
/// named constant scenarios reference instead of re-inventing magic numbers.
/// NOT to be confused with scale/sampled_betweenness's `exact_threshold`
/// grid parameter (default 4000): that one gates whether an exact REFERENCE
/// sweep is feasible for error measurement, a deliberately different knob
/// (runner/scenarios.cpp documents the distinction at both sites).
inline constexpr std::size_t default_exact_threshold = 192;

/// How evaluate() runs. Both modes return BIT-IDENTICAL results — the
/// incremental path is an evaluation-order optimisation, never an
/// approximation (tests pin utilities and whole arena runs byte-equal).
///
///  * full        — every evaluation sweeps all plan sources from scratch.
///  * incremental — oracle activations open an arena::toggle_session that
///    caches the base graph's per-source DAGs once, re-sweeps only sources
///    the candidate's edge toggles can affect (graph::toggle_affects_source)
///    and prunes candidates whose utility upper bound cannot beat the
///    incumbent (DESIGN.md §8). Falls back to full sweeps per source
///    whenever the predicate says the DAG may change.
enum class provider_mode { full, incremental };

/// Parses "full" / "incremental"; throws precondition_error otherwise
/// (scenario and CLI parameter surface).
[[nodiscard]] provider_mode provider_mode_from_name(std::string_view name);
[[nodiscard]] std::string_view provider_mode_name(provider_mode mode);

struct provider_options {
  /// Largest node count still served by the exact parallel backend.
  std::size_t exact_threshold = default_exact_threshold;
  /// Pivot count of the sampled backend above the threshold.
  std::size_t pivots = 32;
  /// Thread budget (0 = hardware concurrency; never changes a result or
  /// a sweep_stats field; forwarded from scenario_context::threads()). It
  /// sizes the provider's one pool (pool()): threads - 1 workers plus the
  /// calling thread. The exact parallel / sampled sweeps of evaluate() and
  /// node_scores() run on it, and in incremental mode so does the local
  /// oracle's candidate list (arena/incremental.h).
  std::size_t threads = 1;
  /// Seed of the sampled backend's pivot stream (splitmix64-expanded).
  std::uint64_t seed = 0;
  /// Evaluation path; results are bitwise mode-independent.
  provider_mode mode = provider_mode::full;
};

/// The arena's sweep cost ledger: how many single-source shortest-path DAG
/// constructions betweenness work performed ("effective source sweeps" —
/// the metric BENCH_arena.json tracks), split by origin. Cheap O(n + m)
/// accumulations over cached DAGs and the auxiliary plain BFS passes of
/// the bound machinery are tallied separately — they are not sweeps.
///
/// The ledger counts the SERIAL schedule: what one thread evaluating the
/// candidates in order would do. Candidates evaluated concurrently may
/// re-sweep sources the serial schedule prunes or truncates away; that
/// extra work goes to the obs counter arena/speculative_sweep only, so
/// every field here is identical at every thread count (DESIGN.md §8.4).
struct sweep_stats {
  std::uint64_t full_sweeps = 0;     ///< full-mode per-evaluation sweeps
  std::uint64_t forest = 0;          ///< session base-forest constructions
  std::uint64_t resweeps = 0;        ///< affected-source re-sweeps
  std::uint64_t accumulations = 0;   ///< cached-DAG reuses (no BFS)
  std::uint64_t support_bfs = 0;     ///< endpoint BFS for bounds/fees
  std::uint64_t pruned = 0;          ///< candidates discarded bound-only
  std::uint64_t truncated = 0;       ///< exact phases cut short mid-merge
  [[nodiscard]] std::uint64_t effective_sweeps() const noexcept {
    return full_sweeps + forest + resweeps;
  }
};

/// Lazily materialised p_trans rows: the sampled backend only ever asks for
/// its pivot sources (plus the evaluated node's own row for E_fees), so
/// computing rows on demand keeps an evaluation at O(m + k * n) — one
/// in-degree scan at construction, then O(n + max_degree) per row through
/// dist::sender_row's rank core — instead of the full O(n^2) matrix.
/// Shared with arena/incremental.cpp (whose candidate evaluations call the
/// same rank core into reusable per-worker rows), so both evaluation paths
/// materialise byte-identical rows. Distinct rows may be requested
/// concurrently (the parallel sweep workers each own their sources); the
/// graph and `table` must outlive the object and stay unchanged while it
/// is in use.
class lazy_prob_rows {
 public:
  /// `active` restricts the receiver universe to masked-in nodes
  /// (dist::transaction_probabilities' mask-aware overload); nullptr — the
  /// only value the static arena ever passes — ranks every other node.
  /// `table` must cover node_count - 1 ranks.
  lazy_prob_rows(const graph::digraph& g, const dist::zipf_table& table,
                 dist::rank_basis basis,
                 const std::vector<char>* active = nullptr)
      : g_(g), table_(table), basis_(basis), active_(active),
        in_deg_(dist::in_degrees(g)), rows_(g.node_count()),
        ready_(g.node_count(), 0) {}

  const std::vector<double>& row(graph::node_id u) const {
    if (!ready_[u]) {
      rows_[u] = dist::sender_row(g_, in_deg_, u, table_, basis_, active_);
      ready_[u] = 1;
    }
    return rows_[u];
  }

 private:
  const graph::digraph& g_;
  const dist::zipf_table& table_;
  dist::rank_basis basis_;
  const std::vector<char>* active_;
  std::vector<std::size_t> in_deg_;
  mutable std::vector<std::vector<double>> rows_;
  mutable std::vector<char> ready_;
};

/// E_fees of `u` given its p_trans row and BFS distances — the same
/// intermediary counting as topology/game.cpp (a direct channel costs no
/// fees; any positive-probability unreachable receiver makes fees +inf).
/// Shared by both evaluation paths for bitwise-identical fee terms.
[[nodiscard]] double fees_of(const std::vector<double>& p_row,
                             const std::vector<std::int32_t>& dist,
                             graph::node_id u, double a);

class utility_provider {
 public:
  utility_provider(topology::game_params params, provider_options options);

  [[nodiscard]] const topology::game_params& params() const noexcept {
    return params_;
  }
  [[nodiscard]] const provider_options& options() const noexcept {
    return options_;
  }

  // --- population heterogeneity -----------------------------------------
  //
  // Per-player (a, b, l) triples and an active-player mask, both optional.
  // The Section IV utility touches a/b/l ONLY as scalars of the evaluated
  // node (the betweenness sweep itself is parameter-independent), so
  // heterogeneity threads through as three per-u accessors. When the
  // per-player table is empty — or holds the exact global triple, the
  // point-mass degenerate — every accessor returns the very same double the
  // homogeneous path reads, which is what keeps the population engine
  // bit-identical to the static arena.

  /// Installs per-player triples (size = node count; validated) or clears
  /// them (empty vector).
  void set_player_params(std::vector<core::cost_params> per_player);
  [[nodiscard]] const std::vector<core::cost_params>& player_params()
      const noexcept {
    return per_player_;
  }

  /// Non-owning active mask (size = node count) or nullptr = everyone
  /// active. The caller keeps the vector alive and mutates it between
  /// evaluations (the population engine flips entries on churn events).
  void set_active(const std::vector<char>* active) noexcept {
    active_ = active;
  }
  [[nodiscard]] const std::vector<char>* active() const noexcept {
    return active_;
  }

  [[nodiscard]] double a_of(graph::node_id u) const {
    return per_player_.empty() ? params_.a : per_player_[u].a;
  }
  [[nodiscard]] double b_of(graph::node_id u) const {
    return per_player_.empty() ? params_.b : per_player_[u].b;
  }
  [[nodiscard]] double l_of(graph::node_id u) const {
    return per_player_.empty() ? params_.l : per_player_[u].l;
  }

  /// Full game_params as player `u` sees them: the global s / cost_share /
  /// basis with u's own (a, b, l). What the brute oracle hands to
  /// topology::best_deviation.
  [[nodiscard]] topology::game_params params_for(graph::node_id u) const {
    topology::game_params p = params_;
    p.a = a_of(u);
    p.b = b_of(u);
    p.l = l_of(u);
    return p;
  }

  /// The r^-s table every p_trans row of an n-node graph reads. Built on
  /// first use and rebuilt only when a larger graph needs more ranks, then
  /// read-only while rows are built. Building is not thread-safe: callers
  /// that read rows from several threads (the candidate pool) fetch the
  /// table once before they dispatch.
  [[nodiscard]] const dist::zipf_table& rank_table(std::size_t n) const;

  /// Backend the provider would use for an n-node graph (threshold switch;
  /// evaluate() and node_scores() add the provider's pool to it).
  [[nodiscard]] graph::betweenness_options backend_for(std::size_t n) const;
  [[nodiscard]] bool sampled_at(std::size_t n) const {
    return n > options_.exact_threshold;
  }

  /// U_u on `g` under the provider's backend rules. Exact-backend results
  /// match topology::node_utility bit for bit (keep_sender_edges basis).
  [[nodiscard]] topology::utility_breakdown evaluate(const graph::digraph& g,
                                                     graph::node_id u) const;

  /// Demand-weighted node betweenness of every node (one sweep, same
  /// backend rules) — the candidate-ranking signal of the move oracles.
  [[nodiscard]] std::vector<double> node_scores(const graph::digraph& g) const;

  /// Utility evaluations consumed so far (the arena's cost ledger). This is
  /// a LOGICAL counter: the incremental mode's pruned or cache-served
  /// candidates still count one evaluation each, so the column stays
  /// byte-identical between modes.
  [[nodiscard]] std::uint64_t evaluations() const noexcept {
    return evaluations_;
  }

  /// Physical sweep ledger (see sweep_stats). Grows in both modes.
  [[nodiscard]] const sweep_stats& stats() const noexcept { return stats_; }

  /// Hooks for arena/incremental.cpp (the toggle_session mutates the shared
  /// ledgers through its provider reference).
  void count_logical_evaluation() const noexcept { ++evaluations_; }
  [[nodiscard]] sweep_stats& mutable_stats() const noexcept { return stats_; }

  /// Shared base-graph DAG cache for the incremental mode (defined in
  /// arena/incremental.cpp): a base SSSP DAG depends only on the graph, not
  /// on the evaluated node, so consecutive activations over an unchanged
  /// graph reuse each other's forests. Keyed on the exact active-edge list —
  /// never a hash — so a stale hit is impossible.
  [[nodiscard]] std::shared_ptr<base_dag_cache>& mutable_dag_cache()
      const noexcept {
    return dag_cache_;
  }

  /// The provider's pool: threads - 1 workers plus the calling thread,
  /// started on first use and joined by the destructor. evaluate() and
  /// node_scores() sweep on it (graph::betweenness_options::pool), and the
  /// incremental mode dispatches one oracle call's candidates to it once
  /// (arena/incremental.h). One caller at a time.
  [[nodiscard]] worker_pool& pool() const;

  /// Reusable evaluation scratch for the incremental mode, one entry per
  /// pool participant (index 0 is the calling thread); defined and sized
  /// in arena/incremental.cpp.
  [[nodiscard]] std::vector<std::shared_ptr<evaluation_scratch>>&
  mutable_scratch() const noexcept {
    return scratch_;
  }

 private:
  topology::game_params params_;
  provider_options options_;
  std::vector<core::cost_params> per_player_;
  const std::vector<char>* active_ = nullptr;
  mutable std::uint64_t evaluations_ = 0;
  mutable sweep_stats stats_;
  mutable std::shared_ptr<base_dag_cache> dag_cache_;
  mutable dist::zipf_table rank_table_;
  mutable std::vector<std::shared_ptr<evaluation_scratch>> scratch_;
  // Last, so its workers are joined before the state above is destroyed.
  mutable std::unique_ptr<worker_pool> pool_;
};

}  // namespace lcg::arena

#endif  // LCG_ARENA_PROVIDER_H
