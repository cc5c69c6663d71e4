// The paper's modified Zipf transaction distribution (Section II-B).
//
// Receivers are ranked by in-degree (highest degree = rank 1); a receiver's
// raw Zipf mass is 1/rank^s. Ties are resolved the way the paper's proofs
// do: a block of k nodes sharing a degree occupies k consecutive ranks and
// every member receives the *average* of the block's Zipf masses, so equal
// degrees imply equal transaction probabilities.
//
// Two ranking bases are supported because the paper itself uses both:
// Section II-B defines p_trans on V' = G minus the sender's own channels
// (`drop_sender_edges`), while the Section IV proofs rank receivers on the
// full graph (`keep_sender_edges`) — see DESIGN.md.
//
// The rank core. Every entry point below funnels into one routine that
// takes precomputed basis in-degrees and a `zipf_table` of r^-s masses and
// builds a row in O(n + max_degree) — no sort, no pow:
//
//   1. count the ranked (other, active) nodes per degree d: c_d;
//   2. walk degrees from high to low; block d covers ranks
//      above+1 .. above+c_d, where `above` counts nodes of larger degree;
//   3. block mass = (sum of table[r] over the block, ascending r) / c_d;
//   4. rf[v] = mass[deg[v]];
//   5. normalise by the node-order sum of rf.
//
// That is the very sequence of float operations a descending stable_sort
// of the degrees followed by per-rank std::pow performs: the same ranks
// land in the same block, each block sums the same pow values (the table
// holds std::pow(double(r), -s), the identical expression) in the same
// ascending order, and the normalising sum visits the ranked nodes in node
// order. Rows are therefore BITWISE equal to the sort-based definition;
// tests/dist_zipf_test.cpp keeps that definition as its naive reference
// and compares with == over a property corpus.

#ifndef LCG_DIST_ZIPF_H
#define LCG_DIST_ZIPF_H

#include <cstddef>
#include <vector>

#include "graph/digraph.h"

namespace lcg::dist {

/// Which graph the receiver ranking is computed on, from the sender's view.
enum class rank_basis {
  keep_sender_edges,  ///< rank on the full graph (Section IV proofs)
  drop_sender_edges,  ///< rank on G minus the sender's channels (II-B)
};

/// Raw Zipf masses r^-s for ranks r = 1..max_rank. Built once, read-only
/// afterwards, so concurrent readers need no synchronisation; a table
/// covering more ranks than a row needs yields the same row.
class zipf_table {
 public:
  zipf_table() = default;
  /// Requires s >= 0.
  zipf_table(double s, std::size_t max_rank);

  [[nodiscard]] std::size_t max_rank() const noexcept {
    return mass_.empty() ? 0 : mass_.size() - 1;
  }
  /// r^-s for 1 <= r <= max_rank().
  [[nodiscard]] double operator[](std::size_t r) const noexcept {
    return mass_[r];
  }

 private:
  std::vector<double> mass_;  // mass_[r] = r^-s; mass_[0] unused
};

/// Active in-degree of every node (parallel edges counted separately): the
/// keep_sender_edges basis, and the drop_sender_edges one once the
/// sender's out-edges are subtracted (sender_row does that per row).
[[nodiscard]] std::vector<std::size_t> in_degrees(const graph::digraph& g);
/// in_degrees(g) into `deg`, reusing its storage.
void in_degrees(const graph::digraph& g, std::vector<std::size_t>& deg);

/// Zipf mass per entry of `degrees` under competition ranking with averaged
/// ties: sorting degrees descending, the i-th distinct block of size k
/// occupying ranks [r, r+k-1] assigns each member
/// (sum_{j=r}^{r+k-1} j^-s) / k. Not normalised.
[[nodiscard]] std::vector<double> rank_factors(
    const std::vector<std::size_t>& degrees, double s);

/// The rank-core row: p_trans(u, .) from `in_deg` = in_degrees(g) and a
/// table with max_rank() >= node_count - 1. Other nodes with `active[v]`
/// true (all of them when `active` is nullptr) are ranked; p[u] == 0 and
/// inactive nodes get 0; an inactive sender gets an all-zero row. O(n +
/// max_degree), plus u's out-degree under drop_sender_edges. Re-entrant:
/// reads its inputs only, so parallel sweep workers may call it at once.
[[nodiscard]] std::vector<double> sender_row(
    const graph::digraph& g, const std::vector<std::size_t>& in_deg,
    graph::node_id u, const zipf_table& table, rank_basis basis,
    const std::vector<char>* active = nullptr);
/// sender_row(...) into `p`, reusing its storage.
void sender_row(const graph::digraph& g, const std::vector<std::size_t>& in_deg,
                graph::node_id u, const zipf_table& table, rank_basis basis,
                const std::vector<char>* active, std::vector<double>& p);

/// p_trans(u, .) over all nodes of `g`: the normalised rank factors of the
/// other nodes (p[u] == 0), ranked by in-degree on the basis graph.
[[nodiscard]] std::vector<double> transaction_probabilities(
    const graph::digraph& g, graph::node_id u, double s,
    rank_basis basis = rank_basis::drop_sender_edges);

/// Mask-aware overload for churning populations: nodes with `active[v]`
/// false are excluded from the receiver ranking and get p[v] = 0 (a
/// departed player neither receives demand nor poisons everyone's
/// reachability term with an unreachable positive-probability receiver).
/// `active` == nullptr means all nodes active and equals the plain
/// overload BIT-IDENTICALLY — the arena's degenerate-equivalence contract
/// rides on that.
[[nodiscard]] std::vector<double> transaction_probabilities(
    const graph::digraph& g, graph::node_id u, double s, rank_basis basis,
    const std::vector<char>* active);

/// All rows at once; row u equals transaction_probabilities(g, u, s, basis).
/// One in-degree scan and one table serve every row.
[[nodiscard]] std::vector<std::vector<double>> transaction_probability_matrix(
    const graph::digraph& g, double s,
    rank_basis basis = rank_basis::drop_sender_edges);

/// The receiver distribution of a node *about to join* `g` (Section II-C):
/// every existing node is ranked by its current in-degree; nothing is
/// excluded because the newcomer has no channels yet.
[[nodiscard]] std::vector<double> newcomer_transaction_probabilities(
    const graph::digraph& g, double s);

}  // namespace lcg::dist

#endif  // LCG_DIST_ZIPF_H
