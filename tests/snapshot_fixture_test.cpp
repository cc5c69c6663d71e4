// Committed CSV snapshot fixtures (data/snapshots/<name>/): every fixture
// must equal, byte for byte, graph/io's CSV writer applied to the graph its
// recipe.txt describes — so a fixture can be neither lost nor hand-edited
// silently — and a missing fixture fails with an error naming its recipe.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>

#include "graph/io.h"
#include "runner/fixtures.h"
#include "util/error.h"

namespace lcg::runner {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// A fresh scratch directory, removed again on destruction.
struct temp_dir {
  fs::path path = fs::temp_directory_path() /
                  ("lcg_snapshot_fixture_" + std::to_string(::getpid()));
  temp_dir() {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~temp_dir() { fs::remove_all(path); }
  void write(const std::string& file, const std::string& text) const {
    std::ofstream(path / file) << text;
  }
};

/// The message of the lcg::error `fn` throws ("" if none).
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const error& e) {
    return e.what();
  }
  ADD_FAILURE() << "no lcg::error thrown";
  return "";
}

TEST(SnapshotFixture, CommittedFixturesRebuildFromTheirRecipes) {
  std::size_t fixtures = 0;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(LCG_SNAPSHOT_DIR)) {
    if (!entry.is_directory()) continue;
    const std::string dir = entry.path().string();
    SCOPED_TRACE(dir);
    const graph::digraph g = build_snapshot(read_snapshot_recipe(dir));
    std::ostringstream nodes, channels, edges;
    graph::write_csv_snapshot(nodes, channels, edges, g);
    EXPECT_EQ(nodes.str(), slurp(entry.path() / "nodes.csv"));
    EXPECT_EQ(channels.str(), slurp(entry.path() / "channels.csv"));
    EXPECT_EQ(edges.str(), slurp(entry.path() / "edges.csv"));
    ++fixtures;
  }
  EXPECT_GE(fixtures, 1u);
}

TEST(SnapshotFixture, Ba400RecipeIsTheDocumentedOne) {
  const snapshot_recipe r =
      read_snapshot_recipe(std::string(LCG_SNAPSHOT_DIR) + "/ba400");
  EXPECT_EQ(r.generator, "ba");
  EXPECT_EQ(r.n, 400u);
  EXPECT_EQ(r.attach, 2u);
  EXPECT_EQ(r.balance, 10.0);
  EXPECT_EQ(r.seed, 400u);
}

TEST(SnapshotFixture, MissingFixtureNamesTheRecipe) {
  const temp_dir tmp;
  tmp.write("recipe.txt", "generator ba\nn 5\nattach 2\nbalance 1\nseed 3\n");
  const std::string msg =
      error_of([&] { (void)load_snapshot_fixture(tmp.path.string()); });
  EXPECT_NE(msg.find(snapshot_recipe_path(tmp.path.string())),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find("nodes.csv"), std::string::npos) << msg;

  // Once written from the recipe the fixture loads.
  graph::write_csv_snapshot(
      tmp.path.string(),
      build_snapshot(read_snapshot_recipe(tmp.path.string())));
  EXPECT_EQ(load_snapshot_fixture(tmp.path.string()).node_count(), 5u);
}

TEST(SnapshotFixture, MalformedRecipesAreRejectedWithTheirLocation) {
  const temp_dir tmp;
  const std::string dir = tmp.path.string();
  const std::string path = snapshot_recipe_path(dir);
  const auto message_for = [&](const std::string& text) {
    tmp.write("recipe.txt", text);
    return error_of([&] { (void)read_snapshot_recipe(dir); });
  };
  EXPECT_NE(message_for("generator ba\nsize 4\n").find(path + ":2"),
            std::string::npos);
  EXPECT_NE(message_for("generator ba\nn four\n").find(path + ":2"),
            std::string::npos);
  EXPECT_NE(message_for("generator ba\nn 4 5\n").find(path + ":2"),
            std::string::npos);
  EXPECT_NE(message_for("generator er\nn 4\nattach 1\nbalance 1\nseed 1\n")
                .find("generator"),
            std::string::npos);
  EXPECT_NE(message_for("generator ba\nn 4\nattach 1\n").find("seed"),
            std::string::npos);
  EXPECT_NE(message_for("generator ba\nn 2\nattach 2\nbalance 1\nseed 1\n")
                .find("n > attach"),
            std::string::npos);
  EXPECT_NE(message_for("generator ba\nn -5\nattach 2\nbalance 1\nseed 1\n")
                .find("n > attach"),
            std::string::npos);
  fs::remove(tmp.path / "recipe.txt");
  EXPECT_NE(error_of([&] { (void)read_snapshot_recipe(dir); }).find(path),
            std::string::npos);
}

}  // namespace
}  // namespace lcg::runner
