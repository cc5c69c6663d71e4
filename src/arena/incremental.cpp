#include "arena/incremental.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <unordered_map>

#include "dist/zipf.h"
#include "graph/betweenness.h"
#include "graph/csr.h"
#include "obs/registry.h"
#include "util/error.h"

namespace lcg::arena {

namespace {

constexpr double inf = std::numeric_limits<double>::infinity();

/// Obs mirrors of the sweep_stats ledger (provider.h): every `stats.X +=`
/// below pairs with one counter add, so the per-run ledger (the
/// run_result.sweeps API) and the process-wide registry never diverge.
/// `speculative` is the one counter without a ledger field: re-sweeps a
/// pool worker did beyond the serial schedule (DESIGN.md §8.4).
struct arena_counters {
  obs::counter& forest;
  obs::counter& resweep;
  obs::counter& accumulate;
  obs::counter& support_bfs;
  obs::counter& prune;
  obs::counter& truncate;
  obs::counter& speculative;
  static const arena_counters& get() {
    auto& reg = obs::registry::global();
    static const arena_counters c{
        reg.get_counter("arena/build_forest"),
        reg.get_counter("arena/resweep_source"),
        reg.get_counter("arena/accumulate_source"),
        reg.get_counter("arena/run_support_bfs"),
        reg.get_counter("arena/prune_candidate"),
        reg.get_counter("arena/truncate_merge"),
        reg.get_counter("arena/speculative_sweep"),
    };
    return c;
  }
};
constexpr std::int64_t far = std::numeric_limits<std::int32_t>::max();

/// Hop distance as an arithmetic-friendly value (unreachable -> "far",
/// which never overflows when a handful of +1 hops are added in int64).
std::int64_t hops(const std::vector<std::int32_t>& dist, graph::node_id v) {
  return dist[v] == graph::unreachable ? far : dist[v];
}

}  // namespace

/// Provider-wide cache of base-graph SSSP DAGs. A DAG from source s depends
/// only on the graph — not on which node is being evaluated — so consecutive
/// activations over an unchanged graph (most of a converging round) share
/// forests across players, even though their pivot plans differ. One graph
/// is cached at a time, keyed on its freeze's row offsets and destination
/// array: together they are the exact (src, dst) sequence of the active
/// edges in traversal order, which fixes every DAG bit and every packed key
/// (no hashing of the graph itself, so a stale hit is impossible).
/// Capacities and original edge ids are deliberately not part of the key:
/// a sweep reads neither.
struct base_dag_cache {
  std::vector<graph::csr_graph::packed_id> rows;
  std::vector<graph::node_id> cols;
  std::unordered_map<graph::node_id, graph::sp_dag> dag;
};

/// Incremental-mode cached state, all relative to the RESTING (base) graph:
/// its freeze, the pivot plan and its SSSP forest (pointers into the
/// provider-level cache, swept on `base`), per-source through-fractions at
/// u, and base BFS distance arrays from u and toggled peers (the bound
/// cones). prepare() fills everything an evaluation reads, so pool workers
/// share the session read-only.
struct candidate_evaluator::session {
  graph::csr_graph base;
  graph::source_plan plan;
  std::shared_ptr<base_dag_cache> cache;
  std::vector<const graph::sp_dag*> dag;   // parallel to plan.sources
  std::vector<std::vector<double>> frac;   // parallel to plan.sources
  std::vector<char> frac_ready;
  std::unordered_map<graph::node_id, std::vector<std::int32_t>> peer_dist;
};

/// Reusable scratch of one pool participant, kept by the provider across
/// evaluators so that an evaluation allocates nothing once it has grown to
/// size: a toggled copy of the scratch graph (unused when the caller
/// evaluates alone and toggles the evaluator's own), its freeze, p_trans
/// rows, BFS and DAG buffers, and the bound phase's per-candidate arrays.
struct evaluation_scratch {
  graph::digraph work;
  graph::csr_graph toggled;
  std::vector<std::size_t> in_deg;
  std::vector<double> row_u;               // u's p_trans row (E_fees)
  std::vector<std::vector<double>> rows;   // parallel to plan.sources
  std::vector<char> row_ready;             // parallel to plan.sources
  std::vector<std::int32_t> fee_dist;
  std::vector<graph::node_id> queue;       // BFS queue
  graph::sp_dag fresh;                     // an affected source's re-sweep
  std::vector<graph::dag_edge> found;      // its discovery buffer
  std::vector<graph::node_id> removed, added;
  std::vector<graph::edge_toggle> toggles;
  std::vector<const std::vector<std::int32_t>*> dist_added, dist_removed;
  std::vector<std::int64_t> exit_lb;       // per-target exit bound
  std::vector<char> affected;              // parallel to plan.sources
  std::vector<double> ub_src;              // per-source bound contributions
  std::vector<double> suffix;              // suffix sums of ub_src
  std::vector<double> delta;               // accumulation output
};

/// What one evaluation found, enough to replay the serial decision at any
/// threshold at or above the one it ran against (DESIGN.md §8.4).
struct candidate_evaluator::record {
  bool fees_infinite = false;
  bool bounded = false;   // the bound phase ran: ub_total is valid
  double ub_total = 0.0;
  /// (plan index, exact-prefix + bound-suffix potential) at each affected
  /// source the exact phase reached while bounded, in plan order.
  std::vector<std::pair<std::size_t, double>> potentials;
  bool finished = false;  // the exact phase ran to the end: `exact` is valid
  double exact = 0.0;
  std::uint64_t affected = 0;  // affected plan sources
  std::uint64_t resweeps = 0;  // re-sweeps actually performed
};

namespace {

/// The margin pruning and truncation pad a bound with before comparing it
/// against the threshold: the dot products reassociate the accumulation's
/// float sums.
double margin_of(double bound) { return 1e-6 + 1e-9 * std::abs(bound); }

}  // namespace

candidate_evaluator::candidate_evaluator(
    const utility_provider& provider, const graph::digraph& base,
    graph::node_id u, const std::vector<graph::node_id>& own,
    const std::vector<graph::node_id>& adds)
    : provider_(provider), work_(base), u_(u), own_(own),
      threshold_(-inf) {
  LCG_EXPECTS(std::is_sorted(own_.begin(), own_.end()));
  for (const graph::node_id peer : own) {
    const graph::edge_id forward = work_.find_edge(u, peer);
    const graph::edge_id reverse = work_.find_edge(peer, u);
    LCG_EXPECTS(forward != graph::invalid_edge &&
                reverse != graph::invalid_edge);
    peers_.push_back(peer);
    pairs_.emplace_back(forward, reverse);
  }
  // Candidate additions exist as deactivated slots so that any candidate
  // set is two O(|diff|) toggles away from the resting (base) state. The
  // slots append to the adjacency lists, which is what keeps traversal of
  // the surviving edges bit-identical whether a slot exists or not.
  for (const graph::node_id peer : adds) {
    const graph::edge_id forward = work_.add_bidirectional(u, peer);
    work_.remove_edge(forward);
    work_.remove_edge(forward + 1);
    peers_.push_back(peer);
    pairs_.emplace_back(forward, forward + 1);
  }
  if (provider_.options().mode == provider_mode::incremental) {
    session_ = std::make_unique<session>();
    session_->plan = graph::betweenness_source_plan(
        work_.node_count(), provider_.backend_for(work_.node_count()), u_);
    std::shared_ptr<base_dag_cache>& cache = provider_.mutable_dag_cache();
    if (!cache) cache = std::make_shared<base_dag_cache>();
    // Candidate slots rest inactive, so this freezes exactly the base graph.
    session_->base = graph::freeze(work_);
    if (session_->base.rows() != cache->rows ||
        session_->base.cols() != cache->cols) {
      cache->dag.clear();
      cache->rows = session_->base.rows();
      cache->cols = session_->base.cols();
    }
    session_->cache = cache;
    session_->dag.assign(session_->plan.sources.size(), nullptr);
    session_->frac.resize(session_->plan.sources.size());
    session_->frac_ready.assign(session_->plan.sources.size(), 0);
    std::vector<std::shared_ptr<evaluation_scratch>>& scratch =
        provider_.mutable_scratch();
    if (scratch.empty())
      scratch.push_back(std::make_shared<evaluation_scratch>());
  }
}

/// The base DAG for plan source i: provider-cache hit when another session
/// already built it on this graph, one counted forest sweep otherwise.
const graph::sp_dag& candidate_evaluator::base_dag(std::size_t i) {
  session& ses = *session_;
  if (ses.dag[i] == nullptr) {
    const graph::node_id s = ses.plan.sources[i];
    auto it = ses.cache->dag.find(s);
    if (it == ses.cache->dag.end()) {
      it = ses.cache->dag.emplace(s, graph::shortest_path_dag(ses.base, s))
               .first;
      ++provider_.mutable_stats().forest;
      arena_counters::get().forest.add();
    }
    ses.dag[i] = &it->second;
  }
  return *ses.dag[i];
}

candidate_evaluator::~candidate_evaluator() = default;

void candidate_evaluator::toggle_diff(graph::digraph& g,
                                      const std::vector<graph::node_id>& set,
                                      bool on) const {
  const std::size_t own_count = own_.size();
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    const bool in_set = std::find(set.begin(), set.end(), peers_[i]) !=
                        set.end();
    // Own channels rest active, candidate additions rest inactive; only the
    // symmetric difference to the base configuration flips.
    const bool flip = i < own_count ? !in_set : in_set;
    if (!flip) continue;
    const auto& [forward, reverse] = pairs_[i];
    const bool activate = (i < own_count) != on;
    if (activate) {
      g.restore_edge(forward);
      g.restore_edge(reverse);
    } else {
      g.remove_edge(forward);
      g.remove_edge(reverse);
    }
  }
}

void candidate_evaluator::split_toggles(
    const std::vector<graph::node_id>& set,
    std::vector<graph::node_id>& removed,
    std::vector<graph::node_id>& added) const {
  removed.clear();
  added.clear();
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    const bool in_set = std::find(set.begin(), set.end(), peers_[i]) !=
                        set.end();
    if (i < own_.size() && !in_set) removed.push_back(peers_[i]);
    if (i >= own_.size() && in_set) added.push_back(peers_[i]);
  }
}

double candidate_evaluator::base_value() {
  if (!session_) return provider_.evaluate(work_, u_).total;

  provider_.count_logical_evaluation();
  sweep_stats& stats = provider_.mutable_stats();
  session& ses = *session_;
  evaluation_scratch& scratch = *provider_.mutable_scratch()[0];
  const topology::game_params& p = provider_.params();
  const lazy_prob_rows rows(work_, provider_.rank_table(work_.node_count()),
                            p.basis, provider_.active());

  const std::vector<std::int32_t> dist_u = graph::bfs_distances(ses.base, u_);
  ++stats.support_bfs;
  arena_counters::get().support_bfs.add();
  const double fees = fees_of(rows.row(u_), dist_u, u_, provider_.a_of(u_));
  const double cost = provider_.l_of(u_) * p.cost_share *
                      static_cast<double>(work_.out_degree(u_));

  double acc = 0.0;
  for (std::size_t i = 0; i < ses.plan.sources.size(); ++i) {
    const graph::node_id s = ses.plan.sources[i];
    graph::source_dependencies(
        ses.base, base_dag(i), s,
        [&rows](graph::node_id a, graph::node_id b) { return rows.row(a)[b]; },
        scratch.delta);
    ++stats.accumulations;
    arena_counters::get().accumulate.add();
    acc += ses.plan.scale * scratch.delta[u_];
  }
  const double revenue = provider_.b_of(u_) * acc;
  return std::isinf(fees) ? -inf : revenue - fees - cost;
}

void candidate_evaluator::prepare(
    std::span<const std::vector<graph::node_id>> sets, bool bounding,
    std::size_t participants) {
  session& ses = *session_;
  sweep_stats& stats = provider_.mutable_stats();
  std::vector<std::shared_ptr<evaluation_scratch>>& scratch =
      provider_.mutable_scratch();
  while (scratch.size() < participants)
    scratch.push_back(std::make_shared<evaluation_scratch>());
  for (std::size_t i = 0; i < ses.plan.sources.size(); ++i) base_dag(i);
  (void)provider_.rank_table(work_.node_count());
  if (!bounding) return;
  // The bound cones read base BFS arrays from u and every toggled peer: the
  // union over `sets` is exactly what evaluating them in order queries, so
  // support_bfs counts the same BFS passes.
  const auto base_dist = [&](graph::node_id v) {
    if (ses.peer_dist.contains(v)) return;
    ses.peer_dist.emplace(v, graph::bfs_distances(ses.base, v));
    ++stats.support_bfs;
    arena_counters::get().support_bfs.add();
  };
  std::vector<graph::node_id> removed, added;
  for (const std::vector<graph::node_id>& set : sets) {
    base_dist(u_);
    split_toggles(set, removed, added);
    for (const graph::node_id q : removed) base_dist(q);
    for (const graph::node_id q : added) base_dist(q);
  }
  for (std::size_t i = 0; i < ses.plan.sources.size(); ++i) {
    if (!ses.frac_ready[i]) {
      ses.frac[i] = graph::through_fractions(ses.base, *ses.dag[i], u_);
      ses.frac_ready[i] = 1;
    }
  }
}

double candidate_evaluator::evaluate(const std::vector<graph::node_id>& set) {
  if (!session_) {
    toggle_diff(work_, set, /*on=*/true);
    const double value = provider_.evaluate(work_, u_).total;
    toggle_diff(work_, set, /*on=*/false);
    return value;
  }
  const bool bounding = threshold_ > -inf;
  prepare(std::span(&set, 1), bounding, 1);
  const std::atomic<double> threshold{threshold_};
  record r;
  speculate(0, work_, set, threshold, r);
  return replay(r, threshold_);
}

void candidate_evaluator::evaluate_in_order(
    std::span<const std::vector<graph::node_id>> sets, double threshold,
    const std::function<double(std::size_t, double)>& accept) {
  if (!session_) {
    for (std::size_t i = 0; i < sets.size(); ++i) {
      set_threshold(threshold);
      threshold = accept(i, evaluate(sets[i]));
    }
    return;
  }
  worker_pool& pool = provider_.pool();
  prepare(sets, threshold > -inf, pool.size());

  // Workers read `published` — the threshold after the merged prefix, a
  // lower bound on the threshold of every candidate not merged yet — and
  // the merge replays each record at its true threshold, strictly in list
  // order.
  std::atomic<std::size_t> cursor{0};
  std::atomic<double> published{threshold};
  // Record i belongs to the participant that drew i until it is marked
  // ready; the lock hands it over to the merge. Sized here, so that no
  // worker allocates.
  std::vector<record> records(sets.size());
  for (record& r : records)
    r.potentials.reserve(session_->plan.sources.size());
  std::mutex merge_mutex;
  std::vector<char> ready(sets.size(), 0);  // guarded by merge_mutex
  std::size_t merged = 0;                   // guarded by merge_mutex
  pool.run([&](std::size_t p) {
    graph::digraph* g = nullptr;
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= sets.size()) return;
      if (g == nullptr) {
        // Alone, the caller toggles the evaluator's graph as evaluate()
        // does; with workers everyone toggles a private copy of it.
        g = &work_;
        if (pool.size() > 1) {
          evaluation_scratch& own = *provider_.mutable_scratch()[p];
          // Geometric headroom: the graph grows a few slots at a time over
          // a run, and an exact-size reallocation per proposal would
          // fragment the worker's heap.
          if (own.work.edge_capacity() < work_.edge_slots())
            own.work.reserve_edges(2 * work_.edge_slots());
          own.work = work_;
          g = &own.work;
        }
      }
      speculate(p, *g, sets[i], published, records[i]);
      // The merge calls `accept` under the lock: its calls must be
      // serialised and in order.
      const std::lock_guard<std::mutex> lock(merge_mutex);
      ready[i] = 1;
      while (merged < sets.size() && ready[merged]) {
        threshold = accept(merged, replay(records[merged], threshold));
        published.store(threshold, std::memory_order_release);
        ++merged;
      }
    }
  });
}

void candidate_evaluator::speculate(std::size_t p, graph::digraph& g,
                                    const std::vector<graph::node_id>& set,
                                    const std::atomic<double>& threshold,
                                    record& r) const {
  const session& ses = *session_;
  evaluation_scratch& scratch = *provider_.mutable_scratch()[p];
  const topology::game_params& params = provider_.params();
  const std::size_t n = g.node_count();
  const std::size_t sources = ses.plan.sources.size();
  r.fees_infinite = r.bounded = r.finished = false;
  r.potentials.clear();
  r.affected = r.resweeps = 0;

  std::vector<graph::node_id>& removed = scratch.removed;
  std::vector<graph::node_id>& added = scratch.added;
  split_toggles(set, removed, added);

  // The bound cones' base BFS arrays from u and every toggled peer, which
  // prepare() computed for every set of the list.
  const bool bounding = threshold.load(std::memory_order_acquire) > -inf;
  const std::vector<std::int32_t>* du = nullptr;
  if (bounding) {
    du = &ses.peer_dist.at(u_);
    scratch.dist_removed.clear();
    for (const graph::node_id q : removed)
      scratch.dist_removed.push_back(&ses.peer_dist.at(q));
    scratch.dist_added.clear();
    for (const graph::node_id q : added)
      scratch.dist_added.push_back(&ses.peer_dist.at(q));
  }

  // Classify which plan sources the toggles can affect (both orientations
  // of every toggled channel; OR over the toggle set is sound because a
  // FALSE verdict for every toggle pins the whole DAG bitwise).
  std::vector<graph::edge_toggle>& toggles = scratch.toggles;
  toggles.clear();
  for (const graph::node_id q : removed) {
    toggles.push_back({u_, q, false});
    toggles.push_back({q, u_, false});
  }
  for (const graph::node_id q : added) {
    toggles.push_back({u_, q, true});
    toggles.push_back({q, u_, true});
  }
  std::vector<char>& affected = scratch.affected;
  affected.assign(sources, 0);
  for (std::size_t i = 0; i < sources; ++i) {
    for (const graph::edge_toggle& t : toggles) {
      if (graph::toggle_affects_source(ses.dag[i]->dist, t)) {
        affected[i] = 1;
        ++r.affected;
        break;
      }
    }
  }

  toggle_diff(g, set, /*on=*/true);
  // One freeze of the toggled graph serves the fee BFS and every re-sweep.
  // Its packed ids differ from the base freeze's wherever a toggle shifted
  // them, so cached base DAGs are only ever accumulated over `ses.base`.
  const graph::csr_graph& toggled = scratch.toggled;
  graph::freeze(g, scratch.toggled);
  // p_trans rows of the toggled graph, each materialised on first use (the
  // rows lazy_prob_rows would build, into this participant's storage).
  const dist::zipf_table& table = provider_.rank_table(n);
  dist::in_degrees(g, scratch.in_deg);
  scratch.rows.resize(sources);
  scratch.row_ready.assign(sources, 0);
  const auto row_of = [&](std::size_t i) -> const std::vector<double>& {
    if (!scratch.row_ready[i]) {
      dist::sender_row(g, scratch.in_deg, ses.plan.sources[i], table,
                       params.basis, provider_.active(), scratch.rows[i]);
      scratch.row_ready[i] = 1;
    }
    return scratch.rows[i];
  };
  dist::sender_row(g, scratch.in_deg, u_, table, params.basis,
                   provider_.active(), scratch.row_u);
  graph::bfs_distances(toggled, u_, scratch.fee_dist, scratch.queue);
  const double fees =
      fees_of(scratch.row_u, scratch.fee_dist, u_, provider_.a_of(u_));
  const double cost = provider_.l_of(u_) * params.cost_share *
                      static_cast<double>(g.out_degree(u_));
  if (std::isinf(fees)) {
    // total is -inf no matter what revenue is (the full path computes the
    // same guard), so no sweep is needed at all.
    toggle_diff(g, set, /*on=*/false);
    r.fees_infinite = true;
    return;
  }

  // --- Upper-bound pruning (DESIGN.md §8). All toggles are incident to u,
  // so any path changed by the candidate either uses an added channel (and
  // then passes u) or loses a base shortest path through a removed channel.
  // Pairs outside both cones keep their base through-fraction exactly;
  // cone pairs get the full headroom w * (1 - frac). The bound phase costs
  // dot products only — not a single sweep.
  if (bounding) {
    // Lower bound on the distance from u to each target: exit u over base
    // edges or through an added channel. It does not depend on the source.
    std::vector<std::int64_t>& exit_lb = scratch.exit_lb;
    if (r.affected > 0) {
      exit_lb.resize(n);
      for (graph::node_id t = 0; t < n; ++t) {
        exit_lb[t] = hops(*du, t);
        for (const std::vector<std::int32_t>* dq : scratch.dist_added) {
          exit_lb[t] = std::min(exit_lb[t], 1 + hops(*dq, t));
        }
      }
    }
    scratch.ub_src.assign(sources, 0.0);
    double ub_acc = 0.0;
    for (std::size_t i = 0; i < sources; ++i) {
      const graph::node_id s = ses.plan.sources[i];
      const std::vector<double>& w_row = row_of(i);
      const std::vector<double>& frac = ses.frac[i];
      const std::vector<std::int32_t>& ds = ses.dag[i]->dist;
      double dot = 0.0;
      if (!affected[i]) {
        for (graph::node_id t = 0; t < n; ++t) {
          dot += w_row[t] * frac[t];
        }
      } else {
        // Lower bound on the candidate's distance from s to u: enter u
        // either over base edges or through an added channel's far end.
        std::int64_t du_lb = hops(ds, u_);
        for (const graph::node_id q : added) {
          du_lb = std::min(du_lb, hops(ds, q) + 1);
        }
        for (graph::node_id t = 0; t < n; ++t) {
          if (t == u_ || t == s || w_row[t] <= 0.0) continue;
          bool cone = du_lb + exit_lb[t] <= hops(ds, t);
          for (std::size_t k = 0; !cone && k < removed.size(); ++k) {
            const graph::node_id q = removed[k];
            const std::vector<std::int32_t>& dq = *scratch.dist_removed[k];
            cone = hops(ds, u_) + 1 + hops(dq, t) == hops(ds, t) ||
                   hops(ds, q) + 1 + hops(*du, t) == hops(ds, t);
          }
          dot += w_row[t] * (cone ? 1.0 : frac[t]);
        }
      }
      scratch.ub_src[i] = ses.plan.scale * dot;
      ub_acc += scratch.ub_src[i];
    }
    r.bounded = true;
    r.ub_total = provider_.b_of(u_) * ub_acc - fees - cost;
    // The oracles accept only on STRICT improvement past the threshold, so
    // a candidate at or below it can never win — returning the bound keeps
    // their control flow identical to seeing the true value.
    if (r.ub_total + margin_of(r.ub_total) <=
        threshold.load(std::memory_order_acquire)) {
      toggle_diff(g, set, /*on=*/false);
      return;
    }
  }

  // --- Exact phase: bitwise-identical to the full path. Sources merge in
  // ascending order with one scale-multiplied addition each, exactly the
  // sweep engine's sequence; unaffected sources reuse the cached DAG bits.
  //
  // Early termination (DESIGN.md §8): when bounding, each source's bound
  // contribution from the phase above dominates its exact contribution, so
  // exact-prefix + bound-suffix is itself an upper bound on the final
  // total. Once that drops to the threshold (margin-padded), the remaining
  // re-sweeps cannot change the oracle's decision and the merge stops —
  // the partial bound sits below the strict acceptance cut just like the
  // true value would.
  std::vector<double>& suffix = scratch.suffix;
  if (bounding) {
    suffix.assign(sources + 1, 0.0);
    for (std::size_t i = sources; i-- > 0;) {
      suffix[i] = suffix[i + 1] + scratch.ub_src[i];
    }
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < sources; ++i) {
    const graph::node_id s = ses.plan.sources[i];
    // An accumulation from s reads s's row only.
    const std::vector<double>& w_row = row_of(i);
    const auto w = [&w_row](graph::node_id, graph::node_id t) {
      return w_row[t];
    };
    if (affected[i]) {
      if (bounding) {
        const double potential =
            provider_.b_of(u_) * (acc + suffix[i]) - fees - cost;
        r.potentials.emplace_back(i, potential);
        if (potential + margin_of(potential) <=
            threshold.load(std::memory_order_acquire)) {
          toggle_diff(g, set, /*on=*/false);
          return;
        }
      }
      graph::shortest_path_dag(toggled, s, scratch.fresh, scratch.found);
      graph::source_dependencies(toggled, scratch.fresh, s, w, scratch.delta);
      ++r.resweeps;
    } else {
      graph::source_dependencies(ses.base, *ses.dag[i], s, w, scratch.delta);
    }
    acc += ses.plan.scale * scratch.delta[u_];
  }
  const double revenue = provider_.b_of(u_) * acc;
  toggle_diff(g, set, /*on=*/false);
  r.finished = true;
  r.exact = revenue - fees - cost;
}

double candidate_evaluator::replay(const record& r, double threshold) {
  provider_.count_logical_evaluation();
  sweep_stats& stats = provider_.mutable_stats();
  const arena_counters& counters = arena_counters::get();
  ++stats.support_bfs;  // the fee BFS
  counters.support_bfs.add();
  if (r.fees_infinite) return -inf;

  const std::uint64_t sources = session_->plan.sources.size();
  std::uint64_t resweeps = r.affected;  // the exact phase, unless cut short
  std::uint64_t accumulations = sources - r.affected;
  double value = r.exact;
  bool decided = r.finished;
  if (threshold > -inf) {
    // Serial bounds this candidate; the record must carry its bound.
    LCG_ENSURES(r.bounded);
    decided = false;
    if (r.ub_total + margin_of(r.ub_total) <= threshold) {
      ++stats.pruned;
      counters.prune.add();
      resweeps = accumulations = 0;
      value = r.ub_total;
      decided = true;
    }
    for (std::size_t k = 0; !decided && k < r.potentials.size(); ++k) {
      const auto& [i, potential] = r.potentials[k];
      if (potential + margin_of(potential) <= threshold) {
        ++stats.truncated;
        counters.truncate.add();
        resweeps = k;
        accumulations = i - k;
        value = potential;
        decided = true;
      }
    }
    decided = decided || r.finished;
  }
  // A record stops no earlier than serial would, as long as it ran against
  // a threshold at or below this one.
  LCG_ENSURES(decided && r.resweeps >= resweeps);
  stats.resweeps += resweeps;
  counters.resweep.add(resweeps);
  stats.accumulations += accumulations;
  counters.accumulate.add(accumulations);
  counters.speculative.add(r.resweeps - resweeps);
  return value;
}

}  // namespace lcg::arena
