#include "dist/zipf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <tuple>

#include "arena/provider.h"
#include "graph/generators.h"
#include "util/error.h"
#include "util/rng.h"

namespace lcg::dist {
namespace {

constexpr double kTol = 1e-12;

TEST(RankFactors, NoTies) {
  // Degrees 5 > 3 > 1: plain Zipf masses 1, 1/2^s, 1/3^s.
  const std::vector<std::size_t> degrees{3, 5, 1};
  const auto rf = rank_factors(degrees, 1.0);
  EXPECT_NEAR(rf[1], 1.0, kTol);       // degree 5 -> rank 1
  EXPECT_NEAR(rf[0], 0.5, kTol);       // degree 3 -> rank 2
  EXPECT_NEAR(rf[2], 1.0 / 3.0, kTol); // degree 1 -> rank 3
}

TEST(RankFactors, TiesAreAveraged) {
  // Degrees {3, 1, 1}: ranks 2 and 3 are tied; the paper averages their
  // Zipf masses: rf = (1/2 + 1/3)/2 = 5/12 at s = 1.
  const std::vector<std::size_t> degrees{3, 1, 1};
  const auto rf = rank_factors(degrees, 1.0);
  EXPECT_NEAR(rf[0], 1.0, kTol);
  EXPECT_NEAR(rf[1], 5.0 / 12.0, kTol);
  EXPECT_NEAR(rf[2], 5.0 / 12.0, kTol);
}

TEST(RankFactors, AllTiedEqualsUniformMass) {
  const std::vector<std::size_t> degrees{2, 2, 2, 2};
  const auto rf = rank_factors(degrees, 1.5);
  const double expected =
      (1.0 + std::pow(2.0, -1.5) + std::pow(3.0, -1.5) +
       std::pow(4.0, -1.5)) /
      4.0;
  for (const double f : rf) EXPECT_NEAR(f, expected, kTol);
}

TEST(RankFactors, SZeroIsUniform) {
  const std::vector<std::size_t> degrees{9, 0, 4};
  const auto rf = rank_factors(degrees, 0.0);
  for (const double f : rf) EXPECT_NEAR(f, 1.0, kTol);
}

TEST(RankFactors, EmptyInput) {
  EXPECT_TRUE(rank_factors(std::vector<std::size_t>{}, 1.0).empty());
}

// The paper's claimed property: a strictly better rank block gives a
// strictly larger rank factor (r1(v1) < r2(v2) => rf(v1) > rf(v2)).
class RankFactorMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(RankFactorMonotonicity, HigherDegreeHigherFactor) {
  const double s = GetParam();
  rng gen(42);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::size_t> degrees(12);
    for (auto& d : degrees)
      d = static_cast<std::size_t>(gen.uniform_int(0, 5));
    const auto rf = rank_factors(degrees, s);
    for (std::size_t i = 0; i < degrees.size(); ++i) {
      for (std::size_t j = 0; j < degrees.size(); ++j) {
        if (degrees[i] > degrees[j]) {
          EXPECT_GT(rf[i], rf[j]) << "s=" << s;
        } else if (degrees[i] == degrees[j]) {
          EXPECT_NEAR(rf[i], rf[j], kTol);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Exponents, RankFactorMonotonicity,
                         ::testing::Values(0.5, 1.0, 2.0, 3.5));

TEST(TransactionProbabilities, StarLeafHandComputed) {
  // Star with centre 0 and leaves 1..3, sender = leaf 1, s = 1.
  // V' in-degrees (u's edges removed): centre 2, leaves 1 and 1.
  // rf: centre 1; leaves (1/2 + 1/3)/2 = 5/12. Sum = 11/6.
  const graph::digraph g = graph::star_graph(3);
  const auto p = transaction_probabilities(g, 1, 1.0);
  EXPECT_NEAR(p[0], 6.0 / 11.0, kTol);
  EXPECT_NEAR(p[1], 0.0, kTol);
  EXPECT_NEAR(p[2], 5.0 / 22.0, kTol);
  EXPECT_NEAR(p[3], 5.0 / 22.0, kTol);
}

TEST(TransactionProbabilities, StarCenterSeesUniformLeaves) {
  const graph::digraph g = graph::star_graph(3);
  const auto p = transaction_probabilities(g, 0, 1.0);
  EXPECT_NEAR(p[0], 0.0, kTol);
  for (graph::node_id leaf = 1; leaf <= 3; ++leaf)
    EXPECT_NEAR(p[leaf], 1.0 / 3.0, kTol);
}

TEST(TransactionProbabilities, SumsToOne) {
  rng gen(17);
  const graph::digraph g = graph::erdos_renyi(15, 0.3, gen);
  for (const double s : {0.0, 1.0, 2.5}) {
    for (graph::node_id u = 0; u < g.node_count(); ++u) {
      const auto p = transaction_probabilities(g, u, s);
      EXPECT_NEAR(std::accumulate(p.begin(), p.end(), 0.0), 1.0, 1e-9);
      EXPECT_NEAR(p[u], 0.0, kTol);
    }
  }
}

TEST(TransactionProbabilities, RemovingSenderEdgesMatters) {
  // Path 0-1-2: from 0's perspective, node 1's in-degree drops to 1 after
  // removing 0's edge, equal to node 2's; so both tie.
  const graph::digraph g = graph::path_graph(3);
  const auto p = transaction_probabilities(g, 0, 1.0);
  EXPECT_NEAR(p[1], p[2], kTol);
}

TEST(NewcomerProbabilities, StarHandComputed) {
  // Newcomer ranks: centre degree 3 (rank 1), leaves degree 1 (ranks 2-4).
  // rf: 1 and (1/2 + 1/3 + 1/4)/3 = 13/36; sum = 1 + 13/12 = 25/12.
  const graph::digraph g = graph::star_graph(3);
  const auto p = newcomer_transaction_probabilities(g, 1.0);
  EXPECT_NEAR(p[0], 12.0 / 25.0, kTol);
  for (graph::node_id leaf = 1; leaf <= 3; ++leaf)
    EXPECT_NEAR(p[leaf], 13.0 / 75.0, kTol);
}

TEST(ProbabilityMatrix, RowsMatchPerSenderCalls) {
  rng gen(23);
  const graph::digraph g = graph::erdos_renyi(8, 0.4, gen);
  const auto matrix = transaction_probability_matrix(g, 1.2);
  for (graph::node_id u = 0; u < g.node_count(); ++u)
    EXPECT_EQ(matrix[u], transaction_probabilities(g, u, 1.2));
}

// --- Bitwise property test of the rank core --------------------------------
//
// The naive reference is the historical definition: per row an O(m)
// in-degree walk, a descending stable_sort of the ranked degrees, and one
// std::pow per rank. The counting rank core must reproduce it with == on
// every double (not kTol) for single rows, the matrix and the arena's lazy
// rows, over a corpus of shapes, bases, masks and exponents.
namespace naive {

std::vector<std::size_t> in_degrees(const graph::digraph& g,
                                    graph::node_id exclude) {
  std::vector<std::size_t> deg(g.node_count(), 0);
  for (graph::node_id v = 0; v < g.node_count(); ++v) {
    std::size_t d = 0;
    g.for_each_in(v, [&](graph::edge_id, const graph::edge& e) {
      if (exclude == graph::invalid_node ||
          (e.src != exclude && e.dst != exclude))
        ++d;
    });
    deg[v] = d;
  }
  return deg;
}

std::vector<double> rank_factors(const std::vector<std::size_t>& degrees,
                                 double s) {
  const std::size_t n = degrees.size();
  std::vector<double> rf(n, 0.0);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&degrees](std::size_t a, std::size_t b) {
                     return degrees[a] > degrees[b];
                   });
  std::size_t block_start = 0;
  while (block_start < n) {
    std::size_t block_end = block_start + 1;
    while (block_end < n &&
           degrees[order[block_end]] == degrees[order[block_start]])
      ++block_end;
    double mass = 0.0;
    for (std::size_t r = block_start + 1; r <= block_end; ++r)
      mass += std::pow(static_cast<double>(r), -s);
    mass /= static_cast<double>(block_end - block_start);
    for (std::size_t i = block_start; i < block_end; ++i) rf[order[i]] = mass;
    block_start = block_end;
  }
  return rf;
}

std::vector<double> row(const graph::digraph& g, graph::node_id u, double s,
                        rank_basis basis, const std::vector<char>* active) {
  const std::size_t n = g.node_count();
  if (active != nullptr && !(*active)[u]) return std::vector<double>(n, 0.0);
  const std::vector<std::size_t> deg = in_degrees(
      g, basis == rank_basis::drop_sender_edges ? u : graph::invalid_node);
  std::vector<std::size_t> others;
  for (graph::node_id v = 0; v < n; ++v)
    if (v != u && (active == nullptr || (*active)[v])) others.push_back(deg[v]);
  const std::vector<double> rf = rank_factors(others, s);
  std::vector<double> p(n, 0.0);
  const double total = std::accumulate(rf.begin(), rf.end(), 0.0);
  if (total <= 0.0) return p;
  std::size_t i = 0;
  for (graph::node_id v = 0; v < n; ++v) {
    if (v == u || (active != nullptr && !(*active)[v])) continue;
    p[v] = rf[i++] / total;
  }
  return p;
}

std::vector<double> newcomer(const graph::digraph& g, double s) {
  std::vector<double> rf =
      rank_factors(in_degrees(g, graph::invalid_node), s);
  const double total = std::accumulate(rf.begin(), rf.end(), 0.0);
  if (total > 0.0)
    for (double& f : rf) f /= total;
  return rf;
}

}  // namespace naive

struct corpus_graph {
  std::string name;
  graph::digraph g;
};

/// Shapes with many ties (star, path), skewed degrees (BA), near-regular
/// ones (WS), parallel edges, and removed (inactive) edge slots. Self-loops
/// cannot occur: digraph::add_edge rejects them.
std::vector<corpus_graph> rank_corpus() {
  std::vector<corpus_graph> out;
  rng gen(2023);
  out.push_back({"er", graph::erdos_renyi(15, 0.3, gen)});
  out.push_back({"ba", graph::barabasi_albert(40, 2, gen)});
  out.push_back({"ws", graph::watts_strogatz(24, 2, 0.2, gen)});
  out.push_back({"star", graph::star_graph(9)});
  out.push_back({"path", graph::path_graph(10)});

  graph::digraph parallel = graph::erdos_renyi(12, 0.35, gen);
  for (int i = 0; i < 10; ++i) {
    const auto a = static_cast<graph::node_id>(gen.uniform_int(0, 11));
    const auto b = static_cast<graph::node_id>(gen.uniform_int(0, 11));
    if (a == b) continue;
    parallel.add_edge(a, b);
    if (i % 2 == 0) parallel.add_bidirectional(a, b);
  }
  out.push_back({"parallel", std::move(parallel)});

  graph::digraph removed = graph::barabasi_albert(30, 2, gen);
  for (graph::edge_id e = 0; e < removed.edge_slots(); e += 3)
    removed.remove_edge(e);
  out.push_back({"removed", std::move(removed)});
  return out;
}

/// The mask cases: none, random, random with the sender inactive, and a
/// lone active receiver next to the sender.
std::vector<std::pair<std::string, std::vector<char>>> masks_for(
    std::size_t n, graph::node_id u, rng& gen) {
  std::vector<std::pair<std::string, std::vector<char>>> masks;
  std::vector<char> random(n);
  for (char& a : random) a = gen.bernoulli(0.6) ? 1 : 0;
  random[u] = 1;
  masks.emplace_back("random", random);
  random[u] = 0;
  masks.emplace_back("sender_inactive", random);
  std::vector<char> single(n, 0);
  single[u] = 1;
  single[(u + 1) % n] = 1;
  masks.emplace_back("single_receiver", single);
  return masks;
}

constexpr double kExponents[] = {0.0, 0.5, 1.0, 1.5, 2.5};
constexpr rank_basis kBases[] = {rank_basis::keep_sender_edges,
                                 rank_basis::drop_sender_edges};

/// == on every entry; reports the first differing index.
void expect_bitwise(const std::vector<double>& got,
                    const std::vector<double>& want, const std::string& ctx) {
  ASSERT_EQ(got.size(), want.size()) << ctx;
  for (std::size_t v = 0; v < got.size(); ++v)
    ASSERT_EQ(got[v], want[v]) << ctx << " v=" << v;
}

TEST(RankCoreBitwise, SingleRowsMatchSortAndPow) {
  rng gen(99);
  for (const corpus_graph& c : rank_corpus()) {
    for (const rank_basis basis : kBases) {
      for (const double s : kExponents) {
        for (graph::node_id u = 0; u < c.g.node_count(); ++u) {
          const std::string ctx = c.name + " s=" + std::to_string(s) +
                                  " basis=" + std::to_string(int(basis)) +
                                  " u=" + std::to_string(u);
          const std::vector<double> want = naive::row(c.g, u, s, basis, nullptr);
          expect_bitwise(transaction_probabilities(c.g, u, s, basis), want,
                         ctx);
          expect_bitwise(transaction_probabilities(c.g, u, s, basis, nullptr),
                         want, ctx);
          for (const auto& [mask_name, mask] :
               masks_for(c.g.node_count(), u, gen)) {
            expect_bitwise(
                transaction_probabilities(c.g, u, s, basis, &mask),
                naive::row(c.g, u, s, basis, &mask), ctx + " " + mask_name);
          }
        }
      }
    }
  }
}

TEST(RankCoreBitwise, MatrixMatchesSortAndPow) {
  for (const corpus_graph& c : rank_corpus()) {
    for (const rank_basis basis : kBases) {
      for (const double s : kExponents) {
        const auto matrix = transaction_probability_matrix(c.g, s, basis);
        for (graph::node_id u = 0; u < c.g.node_count(); ++u) {
          expect_bitwise(matrix[u], naive::row(c.g, u, s, basis, nullptr),
                         c.name + " s=" + std::to_string(s) +
                             " u=" + std::to_string(u));
        }
      }
    }
  }
}

TEST(RankCoreBitwise, LazyRowsMatchSortAndPow) {
  // The arena's per-evaluation rows: one in-degree scan at construction and
  // a shared table, here deliberately larger than needed (a provider that
  // saw a bigger graph keeps its table).
  rng gen(7);
  for (const corpus_graph& c : rank_corpus()) {
    const std::size_t n = c.g.node_count();
    for (const rank_basis basis : kBases) {
      for (const double s : kExponents) {
        const zipf_table table(s, 2 * n);
        std::vector<std::pair<std::string, std::vector<char>>> masks =
            masks_for(n, 0, gen);
        masks.emplace_back("none", std::vector<char>());
        for (const auto& [mask_name, mask] : masks) {
          const std::vector<char>* active = mask.empty() ? nullptr : &mask;
          const arena::lazy_prob_rows rows(c.g, table, basis, active);
          // Request rows out of order, twice, to exercise the cache.
          for (graph::node_id u = n; u-- > 0;) {
            const std::string ctx = c.name + " " + mask_name +
                                    " s=" + std::to_string(s) +
                                    " u=" + std::to_string(u);
            expect_bitwise(rows.row(u), naive::row(c.g, u, s, basis, active),
                           ctx);
            expect_bitwise(rows.row(u), naive::row(c.g, u, s, basis, active),
                           ctx);
          }
        }
      }
    }
  }
}

TEST(RankCoreBitwise, NewcomerAndRankFactorsMatchSortAndPow) {
  for (const corpus_graph& c : rank_corpus())
    for (const double s : kExponents)
      expect_bitwise(newcomer_transaction_probabilities(c.g, s),
                     naive::newcomer(c.g, s), c.name);

  rng gen(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::size_t> degrees(
        static_cast<std::size_t>(gen.uniform_int(0, 30)));
    for (auto& d : degrees)
      d = static_cast<std::size_t>(gen.uniform_int(0, 8));
    for (const double s : kExponents)
      expect_bitwise(rank_factors(degrees, s),
                     naive::rank_factors(degrees, s),
                     "trial " + std::to_string(trial));
  }
}

TEST(RankCore, TableTooSmallIsRejected) {
  const graph::digraph g = graph::star_graph(5);
  const zipf_table small(1.0, 3);
  EXPECT_THROW((void)sender_row(g, in_degrees(g), 0, small,
                                rank_basis::keep_sender_edges),
               precondition_error);
}

}  // namespace
}  // namespace lcg::dist
