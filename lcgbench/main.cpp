// lcgbench: the repository's benchmark driver (see README.md).
//
//   lcgbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//            [--smoke] [--out-dir DIR] [--git-sha SHA]
//            [--source-sha256 HASH]
//
// A closed loop: this process is the only client of the library, and each
// iteration starts when the previous one has returned. With --trace 0 it
// sets the workload up 11 times, runs the untimed once-per-invocation
// checks, then iterates in whole passes over the workload's input pool for
// about S seconds (at least two passes, with five more set-ups after each
// iteration; setup_s is the median of all set-ups) and reports the end-to-end
// metrics. With --trace 1 it runs pairs of an untraced and a traced
// iteration of the workload for S seconds (obs.overhead_ratio is the median
// traced/untraced ratio of a pair), then runs one traced iteration of every
// workload from the same seed and replays its inputs through each layer,
// reporting the per-layer metrics and writing the spans to
// DIR/trace-<workload>-<seed>.jsonl.
//
// The last line of standard output is the result:
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "util/timer.h"

namespace {

using namespace lcgbench;

struct workload_entry {
  const char* name;
  std::uint64_t default_seed;
};

constexpr workload_entry workload_table[] = {
    {"arena_dynamics", arena_default_seed},
    {"htlc_stream", htlc_default_seed},
    {"scenario_sweep", sweep_default_seed},
};

/// Layers whose self time the trace run reports, by span-name prefix.
constexpr const char* layers[] = {"arena", "dist", "graph", "traffic",
                                  "pcn",   "sim",  "runner"};

/// Every input runs at least twice, so every repeat check runs.
constexpr std::size_t min_passes = 2;

struct cli {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 40.0;
  bool trace = false;
  size_class size = size_class::full;
  std::string out_dir = ".bench_build/lcgbench-out";
  std::string git_sha = "unknown";
  std::string source_sha256 = "unknown";
};

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || ptr != text.data() + text.size())
    throw std::invalid_argument(flag + ": not a whole number: '" + text + "'");
  return v;
}

cli parse(int argc, char** argv) {
  cli c;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      c.size = size_class::smoke;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
    const std::string v = argv[++i];
    if (arg == "--workload") {
      c.workload = v;
    } else if (arg == "--seed") {
      c.seed = parse_u64(arg, v);
    } else if (arg == "--seconds") {
      c.seconds = std::stod(v);
      if (!(c.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    } else if (arg == "--trace") {
      if (v != "0" && v != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      c.trace = v == "1";
    } else if (arg == "--out-dir") {
      c.out_dir = v;
    } else if (arg == "--git-sha") {
      c.git_sha = v;
    } else if (arg == "--source-sha256") {
      c.source_sha256 = v;
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }
  return c;
}

const workload_entry& entry_for(const std::string& name) {
  for (const workload_entry& e : workload_table)
    if (name == e.name) return e;
  throw std::invalid_argument("unknown workload '" + name +
                              "' (arena_dynamics, htlc_stream, "
                              "scenario_sweep)");
}

std::unique_ptr<workload> make_workload(const std::string& name,
                                        std::uint64_t seed, const cli& c) {
  if (name == "arena_dynamics") return make_arena_dynamics(seed, c.size);
  if (name == "htlc_stream") return make_htlc_stream(seed, c.size);
  return make_scenario_sweep(seed, c.size, c.out_dir);
}

/// Peak resident memory of this process image. VmHWM, unlike getrusage's
/// ru_maxrss, starts afresh at exec, so the launcher's memory is not in it.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void print_result(const tally& t, metric_list metrics) {
  tally checked = t;
  std::cout << "{\"correct\": ";
  std::string body;
  for (metric& m : metrics) {
    checked.check(std::isfinite(m.value),
                  "metric " + m.name + " is not finite");
    if (!std::isfinite(m.value)) m.value = 0.0;
    if (!body.empty()) body += ", ";
    body += json_quote(m.name) + ": {\"value\": " + format_exact(m.value) +
            ", \"unit\": " + json_quote(m.unit) + "}";
  }
  std::cout << (checked.correct ? "true" : "false")
            << ", \"attempted\": " << checked.attempted
            << ", \"failed\": " << checked.failed << ", \"metrics\": {" << body
            << "}}" << std::endl;
}

/// End-to-end run: tracing off.
metric_list run_untraced(workload& wl, double seconds, tally& t) {
  // Set-ups are sampled before the loop and again after every iteration,
  // so that their median sees the same machine as the iterations do.
  std::vector<double> setup_s;
  const auto set_up = [&](std::size_t times) {
    for (std::size_t k = 0; k < times; ++k)
      setup_s.push_back(1e-6 * time_us([&] { wl.setup(); }));
  };
  set_up(11);
  wl.prepare(t);

  // Whole passes over the pool only, so that every input is timed equally
  // often however fast the code is: the next pass starts while the time
  // spent so far plus one average pass fits in `seconds`.
  const std::size_t pool = wl.pool();
  std::vector<std::vector<double>> by_input(pool);
  std::size_t passes = 0;
  const lcg::stopwatch clock;
  while (passes < min_passes ||
         clock.elapsed_seconds() * static_cast<double>(passes + 1) /
                 static_cast<double>(passes) <=
             seconds) {
    for (std::size_t i = 0; i < pool; ++i) {
      by_input[i].push_back(wl.iterate(passes * pool + i, t));
      set_up(5);
    }
    ++passes;
  }

  // Each input's median, averaged over the pool.
  double wall = 0.0;
  for (const std::vector<double>& samples : by_input)
    wall += median_of(samples) / static_cast<double>(pool);
  std::cout << "# " << wl.name() << ": wall_s " << wall << " s, the mean of "
            << pool << " inputs' medians over " << passes
            << " passes; setup_s median over " << setup_s.size()
            << " set-ups; failed_ratio " << t.failed << "/" << t.attempted
            << "\n# iteration seconds by input:";
  for (std::size_t i = 0; i < pool; ++i) {
    std::cout << (i ? " |" : "");
    for (const double s : by_input[i]) std::cout << " " << s;
  }
  std::cout << "\n";
  return {{"wall_s", wall, "s"},
          {"setup_s", median_of(setup_s), "s"},
          {"peak_rss_mb", peak_rss_mb(), "MB"}};
}

/// Self time per layer: each span's duration minus its children's,
/// summed by the span-name prefix before '/'.
std::map<std::string, double> self_ms_by_layer(
    const std::vector<harvest>& harvests) {
  std::map<std::string, double> self_ms;
  for (const harvest& h : harvests) {
    std::map<std::uint64_t, double> child_us;
    for (const lcg::obs::span_record& s : h.spans)
      if (s.parent != 0) child_us[s.parent] += s.dur_us;
    for (const lcg::obs::span_record& s : h.spans) {
      const double self = s.dur_us - child_us[s.id];
      self_ms[s.name.substr(0, s.name.find('/'))] +=
          1e-3 * std::max(0.0, self);
    }
  }
  return self_ms;
}

void write_trace(const std::string& path, const provenance& prov,
                 const std::vector<harvest>& harvests) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace '" + path + "'");
  os << "{\"kind\": \"header\", \"schema\": 1, \"provenance\": "
     << prov.json() << "}\n";
  for (const harvest& h : harvests) {
    for (const lcg::obs::span_record& s : h.spans) {
      os << "{\"kind\": \"span\", \"workload\": " << json_quote(h.workload)
         << ", \"id\": " << s.id << ", \"parent\": " << s.parent
         << ", \"thread\": " << s.thread
         << ", \"name\": " << json_quote(s.name)
         << ", \"start_us\": " << format_exact(s.start_us)
         << ", \"dur_us\": " << format_exact(s.dur_us) << ", \"attrs\": {";
      for (std::size_t i = 0; i < s.attrs.size(); ++i)
        os << (i ? ", " : "") << json_quote(s.attrs[i].first) << ": "
           << json_quote(s.attrs[i].second);
      os << "}, \"timings\": {";
      for (std::size_t i = 0; i < s.timings.size(); ++i)
        os << (i ? ", " : "") << json_quote(s.timings[i].first) << ": "
           << format_exact(s.timings[i].second);
      os << "}}\n";
    }
    os << "{\"kind\": \"snapshot\", \"workload\": " << json_quote(h.workload)
       << ", \"counters\": {";
    for (std::size_t i = 0; i < h.snapshot.counters.size(); ++i)
      os << (i ? ", " : "") << json_quote(h.snapshot.counters[i].first)
         << ": " << h.snapshot.counters[i].second;
    os << "}, \"histograms\": {";
    for (std::size_t i = 0; i < h.snapshot.histograms.size(); ++i) {
      const lcg::obs::histogram_snapshot& hs = h.snapshot.histograms[i];
      os << (i ? ", " : "") << json_quote(hs.name) << ": {\"count\": "
         << hs.count << ", \"sum\": " << format_exact(hs.sum)
         << ", \"max\": " << format_exact(hs.max) << "}";
    }
    os << "}}\n";
  }
}

/// Per-layer run: untraced/traced pairs of the workload, then one traced
/// iteration and the layer replays of every workload.
metric_list run_traced(workload& wl, const cli& c, std::uint64_t seed,
                       const provenance& prov, tally& t) {
  wl.setup();
  wl.prepare(t);
  // Each pair runs the same input untraced, then traced.
  std::vector<double> ratio;
  double pair_seconds = 0.0;
  const lcg::stopwatch clock;
  while (ratio.size() < 2 ||
         clock.elapsed_seconds() + pair_seconds <= c.seconds) {
    const double plain = wl.iterate(ratio.size(), t);
    begin_trace();
    const double traced = wl.iterate(ratio.size(), t);
    (void)end_trace(std::string(wl.name()));
    ratio.push_back(traced / plain);
    pair_seconds = plain + traced;
  }

  metric_list out;
  out.push_back({"obs.overhead_ratio", median_of(ratio), "ratio"});
  std::vector<harvest> harvests;
  for (const workload_entry& e : workload_table) {
    std::unique_ptr<workload> other;
    workload* x = &wl;
    // The other workloads' replays keep their own tally: attempted, failed
    // and failed_ratio describe the invoked workload only, while a failed
    // output check anywhere still clears `correct`.
    tally others;
    tally& counts = e.name == wl.name() ? t : others;
    if (e.name != wl.name()) {
      other = make_workload(e.name, c.seed ? seed : e.default_seed, c);
      other->setup();
      x = other.get();
    }
    begin_trace();
    const double seconds = x->iterate(0, counts);
    x->layer_metrics(seconds, out);
    harvests.push_back(end_trace(e.name));
    t.correct = t.correct && others.correct;
  }
  const std::map<std::string, double> self_ms = self_ms_by_layer(harvests);
  for (const char* layer : layers) {
    const auto it = self_ms.find(layer);
    out.push_back({std::string(layer) + ".self_ms",
                   it == self_ms.end() ? 0.0 : it->second, "ms"});
  }
  out.push_back({"failed_ratio",
                 static_cast<double>(t.failed) /
                     static_cast<double>(t.attempted),
                 "ratio"});

  std::filesystem::create_directories(c.out_dir);
  const std::string path = c.out_dir + "/trace-" + c.workload + "-" +
                           std::to_string(seed) + ".jsonl";
  write_trace(path, prov, harvests);
  std::cout << "# trace: " << path << "\n";
  return out;
}

int run(const cli& c) {
  const workload_entry& entry = entry_for(c.workload);
  const std::uint64_t seed = c.seed.value_or(entry.default_seed);
  std::filesystem::create_directories(c.out_dir);
  std::unique_ptr<workload> wl = make_workload(c.workload, seed, c);

  provenance prov;
  prov.git_sha = c.git_sha;
  prov.source_sha256 = c.source_sha256;
  prov.compiler = LCGBENCH_COMPILER;
  prov.build_type = LCGBENCH_BUILD_TYPE;
  prov.cxx_flags = LCGBENCH_CXX_FLAGS;
  prov.cxx_flags.erase(0, prov.cxx_flags.find_first_not_of(' '));
  prov.nproc = host_threads();
  prov.workload = c.workload;
  prov.seed = seed;
  prov.threads = wl->threads();
  prov.size = c.size == size_class::full ? "full" : "smoke";

  tally t;
  const metric_list metrics = c.trace ? run_traced(*wl, c, seed, prov, t)
                                      : run_untraced(*wl, c.seconds, t);
  for (const metric& m : metrics)
    std::cout << "# " << m.name << " = " << format_exact(m.value) << " "
              << m.unit << "\n";
  std::cout << "{\"provenance\": " << prov.json() << "}\n";
  print_result(t, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "lcgbench: " << e.what() << "\n";
    return 2;
  }
}
