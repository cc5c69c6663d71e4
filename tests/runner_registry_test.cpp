#include "runner/registry.h"

#include <gtest/gtest.h>

#include "runner/grid.h"

namespace lcg::runner {
namespace {

scenario make_scenario(std::string name) {
  scenario sc;
  sc.name = std::move(name);
  sc.description = "test scenario";
  sc.run = [](const scenario_context&) {
    return std::vector<result_row>{result_row().set("x", 1LL)};
  };
  return sc;
}

TEST(Registry, AddAndFind) {
  registry reg;
  reg.add(make_scenario("family/alpha"));
  reg.add(make_scenario("family/beta"));
  ASSERT_NE(reg.find("family/alpha"), nullptr);
  EXPECT_EQ(reg.find("family/alpha")->name, "family/alpha");
  EXPECT_EQ(reg.find("family/gamma"), nullptr);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Registry, DuplicateNameRejected) {
  registry reg;
  reg.add(make_scenario("dup"));
  EXPECT_THROW(reg.add(make_scenario("dup")), precondition_error);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, EmptyNameAndMissingRunRejected) {
  registry reg;
  EXPECT_THROW(reg.add(make_scenario("")), precondition_error);
  scenario no_run = make_scenario("no-run");
  no_run.run = nullptr;
  EXPECT_THROW(reg.add(std::move(no_run)), precondition_error);
}

TEST(Registry, PointersStableAcrossGrowth) {
  registry reg;
  reg.add(make_scenario("first"));
  const scenario* first = reg.find("first");
  for (int i = 0; i < 100; ++i)
    reg.add(make_scenario("filler/" + std::to_string(i)));
  EXPECT_EQ(reg.find("first"), first);
}

TEST(Registry, MatchGlob) {
  registry reg;
  reg.add(make_scenario("join/greedy"));
  reg.add(make_scenario("join/discrete"));
  reg.add(make_scenario("game/star"));

  const auto joins = reg.match("join/*");
  ASSERT_EQ(joins.size(), 2u);
  // Sorted by name.
  EXPECT_EQ(joins[0]->name, "join/discrete");
  EXPECT_EQ(joins[1]->name, "join/greedy");

  EXPECT_EQ(reg.match("*").size(), 3u);
  EXPECT_EQ(reg.match("game/star").size(), 1u);  // exact name as pattern
  EXPECT_TRUE(reg.match("nothing*").empty());
}

TEST(Registry, GlobMatchSemantics) {
  EXPECT_TRUE(glob_match("*", ""));
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("a*c", "abc"));
  EXPECT_TRUE(glob_match("a*c", "ac"));
  EXPECT_TRUE(glob_match("a*b*c", "aXbYc"));
  EXPECT_TRUE(glob_match("?", "x"));
  EXPECT_FALSE(glob_match("?", ""));
  EXPECT_FALSE(glob_match("a*c", "abd"));
  EXPECT_FALSE(glob_match("abc", "abcd"));
  EXPECT_TRUE(glob_match("join/*", "join/greedy"));
  EXPECT_FALSE(glob_match("join/*", "game/star"));
}

TEST(Registry, BuiltinsRegisterOnceAndCoverAtLeastSix) {
  const std::size_t count = register_builtin_scenarios();
  EXPECT_GE(count, 6u);
  // Idempotent: a second call must not re-register (or throw).
  EXPECT_EQ(register_builtin_scenarios(), count);
  EXPECT_NE(registry::global().find("join/greedy"), nullptr);
  EXPECT_NE(registry::global().find("sim/vs_analytic"), nullptr);
}

TEST(Registry, DefaultSweepsExpandToAtLeastOneHundredJobs) {
  register_builtin_scenarios();
  const std::vector<job> jobs =
      expand_default_jobs(registry::global().all(), 1, 42);
  EXPECT_GE(jobs.size(), 100u);  // the lcg_run acceptance sweep size
}

TEST(Grid, CartesianExpansionOrderAndSize) {
  param_grid grid;
  grid.sweep("a", {value(1LL), value(2LL)});
  grid.sweep("b", {value(std::string("x")), value(std::string("y"))});
  EXPECT_EQ(grid.size(), 4u);
  const std::vector<param_map> points = grid.expand();
  ASSERT_EQ(points.size(), 4u);
  // First axis varies slowest.
  EXPECT_EQ(std::get<long long>(points[0].at("a")), 1);
  EXPECT_EQ(std::get<std::string>(points[0].at("b")), "x");
  EXPECT_EQ(std::get<std::string>(points[1].at("b")), "y");
  EXPECT_EQ(std::get<long long>(points[2].at("a")), 2);
}

TEST(Grid, SetOverridesExistingAxis) {
  param_grid grid;
  grid.sweep("n", {value(1LL), value(2LL), value(3LL)});
  grid.set("n", value(9LL));
  EXPECT_EQ(grid.size(), 1u);
  EXPECT_EQ(std::get<long long>(grid.expand()[0].at("n")), 9);
}

TEST(Grid, SeedsAreDistinctAcrossJobsAndStableAcrossCalls) {
  scenario sc = make_scenario("seeded");
  param_grid grid;
  grid.sweep("n", {value(1LL), value(2LL)});
  const std::vector<job> a = expand_jobs(sc, grid, 3, 42);
  const std::vector<job> b = expand_jobs(sc, grid, 3, 42);
  ASSERT_EQ(a.size(), 6u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);
    for (std::size_t j = i + 1; j < a.size(); ++j)
      EXPECT_NE(a[i].seed, a[j].seed);
  }
  // A different base seed moves every job seed.
  const std::vector<job> c = expand_jobs(sc, grid, 3, 43);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NE(a[i].seed, c[i].seed);
}

TEST(Grid, ModeAxisIsSeedNeutral) {
  // "mode" selects an evaluation path, not an experiment: points differing
  // only in mode share a seed (the identity CI's cross-mode byte-diff
  // stands on), and adding the axis must not move any other point's seed.
  scenario sc = make_scenario("seeded");
  param_grid plain;
  plain.sweep("n", {value(1LL), value(2LL)});
  param_grid with_mode = plain;
  with_mode.sweep("mode", {value(std::string("full")),
                           value(std::string("incremental"))});

  const std::vector<job> base = expand_jobs(sc, plain, 1, 42);
  const std::vector<job> paired = expand_jobs(sc, with_mode, 1, 42);
  ASSERT_EQ(base.size(), 2u);
  ASSERT_EQ(paired.size(), 4u);
  for (std::size_t p = 0; p < base.size(); ++p) {
    EXPECT_EQ(paired[2 * p].seed, base[p].seed);
    EXPECT_EQ(paired[2 * p + 1].seed, base[p].seed);
    EXPECT_EQ(std::get<std::string>(paired[2 * p].params.at("mode")), "full");
    EXPECT_EQ(std::get<std::string>(paired[2 * p + 1].params.at("mode")),
              "incremental");
  }
}

TEST(Grid, DeclaredSeedNeutralAxesShareSeedsLikeMode) {
  // ISSUE 9 bugfix regression: a scenario may declare ADDITIONAL
  // seed-neutral axes (churn, dist, fee_aware — knobs whose degenerate
  // value replays the plain run). Points differing only in those axes
  // must share a seed even when the axis has several values, and adding
  // the axis must not move any other point's seed — exactly the "mode"
  // contract, extended to declared axes and their combinations.
  scenario sc = make_scenario("seeded");
  sc.seed_neutral = {"churn", "fee_aware"};
  param_grid plain;
  plain.sweep("n", {value(1LL), value(2LL)});
  param_grid with_axes = plain;
  with_axes.sweep("churn", {value(std::string("none")),
                            value(std::string("mixed"))});
  with_axes.sweep("fee_aware", {value(0LL), value(1LL)});
  with_axes.sweep("mode", {value(std::string("full")),
                           value(std::string("incremental"))});

  const std::vector<job> base = expand_jobs(sc, plain, 1, 42);
  const std::vector<job> full = expand_jobs(sc, with_axes, 1, 42);
  ASSERT_EQ(base.size(), 2u);
  ASSERT_EQ(full.size(), 16u);  // n x churn x fee_aware x mode
  for (std::size_t i = 0; i < full.size(); ++i) {
    // First axis (n) varies slowest: jobs [0, 8) are n=1, [8, 16) n=2.
    EXPECT_EQ(full[i].seed, base[i / 8].seed) << i;
  }

  // An undeclared axis still perturbs seeds (the historical behaviour).
  scenario undeclared = make_scenario("seeded");
  const std::vector<job> moved = expand_jobs(undeclared, with_axes, 1, 42);
  EXPECT_NE(moved[0].seed, moved[4].seed);  // differs only in churn
}

TEST(Context, TypedParameterAccess) {
  param_map params;
  params["n"] = value(5LL);
  params["rate"] = value(2.5);
  params["name"] = value(std::string("star"));
  const scenario_context ctx(params, 7);
  EXPECT_EQ(ctx.get_int("n", 0), 5);
  EXPECT_DOUBLE_EQ(ctx.get_double("rate", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(ctx.get_double("n", 0.0), 5.0);  // int promotes
  EXPECT_EQ(ctx.get_string("name", ""), "star");
  EXPECT_EQ(ctx.get_int("missing", 42), 42);
  EXPECT_THROW((void)ctx.get_int("name", 0), precondition_error);
  EXPECT_EQ(ctx.seed(), 7u);
}

}  // namespace
}  // namespace lcg::runner
