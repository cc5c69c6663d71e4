#include "dist/zipf.h"

#include <algorithm>
#include <cmath>

#include "obs/registry.h"
#include "util/error.h"

namespace lcg::dist {

namespace {

/// One bump per materialised p_trans row (every row-producing entry point
/// funnels through finish_row).
obs::counter& compute_row_counter() {
  static obs::counter& c =
      obs::registry::global().get_counter("dist/compute_row");
  return c;
}

/// The rank core (zipf.h): writes the averaged block mass of every node v
/// with ranked(v) into rf[v] (0 elsewhere) and returns their node-order
/// sum — the normalising total of the sort-based definition, bit for bit.
template <typename Ranked>
double block_masses(const std::size_t* deg, std::size_t n, Ranked ranked,
                    const zipf_table& table, double* rf) {
  std::size_t max_deg = 0;
  std::size_t ranked_count = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (!ranked(v)) continue;
    max_deg = std::max(max_deg, deg[v]);
    ++ranked_count;
  }
  LCG_EXPECTS(ranked_count <= table.max_rank());

  std::vector<std::size_t> count(max_deg + 1, 0);
  for (std::size_t v = 0; v < n; ++v)
    if (ranked(v)) ++count[deg[v]];

  // Degree d's block follows the `above` nodes of strictly larger degree.
  std::vector<double> mass(max_deg + 1, 0.0);
  std::size_t above = 0;
  for (std::size_t d = max_deg + 1; d-- > 0;) {
    const std::size_t c = count[d];
    if (c == 0) continue;
    double m = 0.0;
    for (std::size_t r = above + 1; r <= above + c; ++r) m += table[r];
    mass[d] = m / static_cast<double>(c);
    above += c;
  }

  double total = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    rf[v] = ranked(v) ? mass[deg[v]] : 0.0;
    total += rf[v];
  }
  return total;
}

/// Normalises a block-mass row in place (all zero when nothing has mass)
/// and counts it as one materialised row.
void finish_row(std::vector<double>& p, double total) {
  compute_row_counter().add();
  if (total <= 0.0) {
    std::fill(p.begin(), p.end(), 0.0);
    return;
  }
  for (double& x : p) x /= total;
}

constexpr auto rank_all = [](std::size_t) { return true; };

}  // namespace

zipf_table::zipf_table(double s, std::size_t max_rank)
    : mass_(max_rank + 1, 0.0) {
  LCG_EXPECTS(s >= 0.0);
  for (std::size_t r = 1; r <= max_rank; ++r)
    mass_[r] = std::pow(static_cast<double>(r), -s);
}

std::vector<std::size_t> in_degrees(const graph::digraph& g) {
  std::vector<std::size_t> deg(g.node_count());
  for (graph::node_id v = 0; v < g.node_count(); ++v) deg[v] = g.in_degree(v);
  return deg;
}

std::vector<double> rank_factors(const std::vector<std::size_t>& degrees,
                                 double s) {
  std::vector<double> rf(degrees.size());
  (void)block_masses(degrees.data(), degrees.size(), rank_all,
                     zipf_table(s, degrees.size()), rf.data());
  return rf;
}

std::vector<double> sender_row(const graph::digraph& g,
                               const std::vector<std::size_t>& in_deg,
                               graph::node_id u, const zipf_table& table,
                               rank_basis basis,
                               const std::vector<char>* active) {
  const std::size_t n = g.node_count();
  LCG_EXPECTS(g.has_node(u));
  LCG_EXPECTS(in_deg.size() == n);
  LCG_EXPECTS(active == nullptr || active->size() == n);
  std::vector<double> p(n, 0.0);
  // A departed sender generates no demand at all: betweenness sweeps may
  // still pick it as a source (it is a node of the shared graph), and an
  // all-zero row makes its contribution vanish instead of tripping.
  if (active != nullptr && !(*active)[u]) {
    finish_row(p, 0.0);
    return p;
  }

  // drop_sender_edges ranks on V' = G minus u's channels: a receiver v != u
  // loses exactly its in-edges from u, i.e. u's out-edges into v (the
  // digraph has no self-loops, and u's own entry is never ranked).
  const std::size_t* deg = in_deg.data();
  std::vector<std::size_t> dropped;
  if (basis == rank_basis::drop_sender_edges) {
    dropped = in_deg;
    g.for_each_out(u, [&dropped](graph::edge_id, const graph::edge& e) {
      --dropped[e.dst];
    });
    deg = dropped.data();
  }

  // Departed players stay out of the receiver universe entirely (their
  // mass is 0, not merely unreachable).
  const auto ranked = [u, active](std::size_t v) {
    return v != u && (active == nullptr || (*active)[v]);
  };
  finish_row(p, block_masses(deg, n, ranked, table, p.data()));
  return p;
}

std::vector<double> transaction_probabilities(const graph::digraph& g,
                                              graph::node_id u, double s,
                                              rank_basis basis) {
  return transaction_probabilities(g, u, s, basis, nullptr);
}

std::vector<double> transaction_probabilities(const graph::digraph& g,
                                              graph::node_id u, double s,
                                              rank_basis basis,
                                              const std::vector<char>* active) {
  return sender_row(g, in_degrees(g), u, zipf_table(s, g.node_count()),
                    basis, active);
}

std::vector<std::vector<double>> transaction_probability_matrix(
    const graph::digraph& g, double s, rank_basis basis) {
  const std::vector<std::size_t> deg = in_degrees(g);
  const zipf_table table(s, g.node_count());
  std::vector<std::vector<double>> rows(g.node_count());
  for (graph::node_id u = 0; u < g.node_count(); ++u)
    rows[u] = sender_row(g, deg, u, table, basis);
  return rows;
}

std::vector<double> newcomer_transaction_probabilities(
    const graph::digraph& g, double s) {
  const std::vector<std::size_t> deg = in_degrees(g);
  std::vector<double> p(g.node_count());
  finish_row(p, block_masses(deg.data(), deg.size(), rank_all,
                             zipf_table(s, deg.size()), p.data()));
  return p;
}

}  // namespace lcg::dist
