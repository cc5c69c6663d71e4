// make_snapshot: (re)write a committed CSV snapshot fixture from its recipe.
//
//   $ ./build/make_snapshot data/snapshots/ba400
//
// Reads <dir>/recipe.txt (see runner/fixtures.h for its keys), builds the
// graph it describes and writes <dir>/{nodes,channels,edges}.csv with
// graph/io's CSV writer. tests/snapshot_fixture_test.cpp checks that every
// committed fixture equals this output byte for byte.

#include <exception>
#include <iostream>

#include "graph/io.h"
#include "runner/fixtures.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: make_snapshot <fixture dir containing recipe.txt>\n";
    return 2;
  }
  try {
    const lcg::graph::digraph g =
        lcg::runner::build_snapshot(lcg::runner::read_snapshot_recipe(argv[1]));
    lcg::graph::write_csv_snapshot(argv[1], g);
    std::cout << argv[1] << ": " << g.node_count() << " nodes, "
              << g.edge_count() << " directed edges\n";
  } catch (const std::exception& e) {
    std::cerr << "make_snapshot: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
