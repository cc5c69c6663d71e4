// scenario_sweep: runner::run_jobs over the default grids of the 23
// scenarios registered when this benchmark was added, three replicates per
// grid point, jobs = nproc and one thread per job. Each iteration starts
// from an empty cache directory: a cold pass that computes and writes the
// cache (timed: its makespan is wall_s), then a warm pass that reads it.
//
// The makespan is set by a few long jobs (arena/scale_profile,
// traffic/arena_replay) whose length depends on their derived seeds. With
// one replicate per grid point, a seed whose long job ran 3.5 s instead of
// about 2.2 s made the whole sweep a third slower; more replicates average
// more seeds and make that tail a smaller share of the makespan.

#include <algorithm>
#include <array>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <unistd.h>

#include "bench.h"
#include "obs/span.h"
#include "runner/cache.h"
#include "runner/executor.h"
#include "runner/registry.h"
#include "runner/reporter.h"
#include "util/stats.h"

namespace lcgbench {
namespace {

using namespace lcg;
namespace fs = std::filesystem;

/// Fixed so that scenarios registered later do not silently grow the
/// workload; a name missing from the registry stops the benchmark.
constexpr std::array<const char*, 23> sweep_scenarios{
    "arena/best_response",       "arena/churn",
    "arena/heterogeneous",       "arena/oracle_duel",
    "arena/scale_profile",       "game/path_circle",
    "game/star",                 "join/continuous",
    "join/discrete",             "join/estimators",
    "join/greedy",               "net/utilities",
    "scale/host_properties",     "scale/sampled_betweenness",
    "scale/snapshot_host",       "sim/estimation_convergence",
    "sim/estimation_downstream", "sim/rates",
    "sim/rebalance_policy",      "sim/vs_analytic",
    "topo/best_response",        "traffic/arena_replay",
    "traffic/baseline"};

/// Smoke size: two quick scenarios plus scale/snapshot_host, whose fixture
/// is missing from the repository, so the failure accounting is exercised.
constexpr std::array<const char*, 3> smoke_scenarios{
    "game/star", "net/utilities", "scale/snapshot_host"};

/// Scenario families of sweep_scenarios (the name part before '/').
constexpr std::array<const char*, 8> families{
    "arena", "game", "join", "net", "scale", "sim", "topo", "traffic"};

std::string family_of(const std::string& scenario) {
  return scenario.substr(0, scenario.find('/'));
}

std::string jsonl_bytes(const std::vector<runner::job_result>& results) {
  std::ostringstream os;
  runner::write_jsonl(os, results);
  return os.str();
}

class scenario_sweep final : public workload {
 public:
  scenario_sweep(std::uint64_t seed, size_class size, std::string scratch_dir)
      : seed_(seed),
        size_(size),
        replicates_(size == size_class::full ? 3 : 1),
        scratch_(std::move(scratch_dir)) {
    options_.jobs = host_threads();
    options_.threads_per_job = 1;
  }

  std::string_view name() const override { return "scenario_sweep"; }

  std::string threads() const override {
    return "jobs=" + std::to_string(options_.jobs) + " threads_per_job=1";
  }

  void setup() override {
    runner::register_builtin_scenarios();
    std::vector<const runner::scenario*> selected;
    const auto select = [&](const auto& names) {
      for (const char* name : names) {
        const runner::scenario* sc = runner::registry::global().find(name);
        if (sc == nullptr)
          throw std::runtime_error(std::string("scenario_sweep: scenario '") +
                                   name + "' is not registered");
        selected.push_back(sc);
      }
    };
    if (size_ == size_class::full)
      select(sweep_scenarios);
    else
      select(smoke_scenarios);
    jobs_ = runner::expand_default_jobs(selected, replicates_, seed_);
  }

  double iterate(std::size_t index, tally& t) override {
    const fs::path dir = fs::path(scratch_) /
                         ("sweep-" + std::to_string(::getpid()) + "-" +
                          std::to_string(index));
    fs::remove_all(dir);
    options_.cache_dir = dir.string();

    std::vector<runner::job_result> cold;
    const double seconds = 1e-6 * time_us([&] {
      obs::span span("runner/bench_cold_pass");
      cold = runner::run_jobs(jobs_, options_);
    });
    std::vector<runner::job_result> warm;
    warm_seconds_ = 1e-6 * time_us([&] {
      obs::span span("runner/bench_warm_pass");
      warm = runner::run_jobs(jobs_, options_);
    });
    fs::remove_all(dir);

    t.attempted += cold.size();
    for (const runner::job_result& r : cold) {
      if (r.ok()) continue;
      ++t.failed;
      if (index == 0)
        std::cerr << "lcgbench: scenario_sweep job failed: " << r.scenario
                  << ": " << r.error << "\n";
    }
    const std::string bytes = jsonl_bytes(cold);
    t.check(jsonl_bytes(warm) == bytes,
            "scenario_sweep: warm pass output differs from the cold pass");
    if (first_bytes_.empty())
      first_bytes_ = bytes;
    else
      t.check(bytes == first_bytes_,
              "scenario_sweep: iteration output differs from the first");
    cold_seconds_ = seconds;
    last_cold_ = std::move(cold);
    last_warm_ = std::move(warm);
    return seconds;
  }

  void layer_metrics(double, metric_list& out) override {
    std::vector<double> job_s;
    std::map<std::string, double> family_s;
    double busy = 0.0;
    double failed = 0.0;
    for (const runner::job_result& r : last_cold_) {
      job_s.push_back(r.wall_seconds);
      family_s[family_of(r.scenario)] += r.wall_seconds;
      busy += r.wall_seconds;
      if (!r.ok()) ++failed;
    }
    const double workers = static_cast<double>(
        std::min(options_.jobs, last_cold_.size()));
    out.push_back({"runner.job_s.p50", quantile(job_s, 0.5), "s"});
    out.push_back({"runner.job_s.p95", quantile(job_s, 0.95), "s"});
    out.push_back({"runner.slowest_job_s",
                   *std::max_element(job_s.begin(), job_s.end()), "s"});
    out.push_back(
        {"runner.busy_ratio", busy / (cold_seconds_ * workers), "ratio"});
    out.push_back({"runner.failed_jobs", failed, "count"});
    for (const char* family : families)
      out.push_back({std::string("runner.family_s.") + family,
                     family_s[family], "s"});

    // The queue waits runner/queue_wait_seconds recorded, read exactly
    // from the cold pass's runner/job spans (the warm pass re-runs the
    // failed jobs, which must not count twice).
    const std::vector<obs::span_record> spans = obs::registry::global().spans();
    double warm_start_us = 0.0;
    for (const obs::span_record& s : spans)
      if (s.name == "runner/bench_warm_pass") warm_start_us = s.start_us;
    std::vector<double> waits;
    for (const obs::span_record& s : spans)
      for (const auto& [key, value] : s.timings)
        if (s.name == "runner/job" && key == "queue_s" &&
            s.start_us < warm_start_us)
          waits.push_back(value);
    out.push_back({"runner.queue_wait_s.p50",
                   waits.empty() ? 0.0 : median_of(waits), "s"});

    std::size_t hits = 0;
    for (const runner::job_result& r : last_warm_)
      if (r.from_cache) ++hits;
    out.push_back({"runner.cache_hit_ratio",
                   static_cast<double>(hits) /
                       static_cast<double>(last_warm_.size()),
                   "ratio"});
    out.push_back({"runner.warm_sweep_ms", 1e3 * warm_seconds_, "ms"});

    // Cache entry writes and reads, one per successful job.
    const fs::path dir =
        fs::path(scratch_) / ("cache-" + std::to_string(::getpid()));
    fs::remove_all(dir);
    std::vector<double> store_us;
    std::vector<double> lookup_us;
    {
      obs::span span("runner/bench_cache");
      const runner::result_cache cache(dir);
      for (std::size_t i = 0; i < jobs_.size(); ++i)
        if (last_cold_[i].ok())
          store_us.push_back(time_us(
              [&] { (void)cache.store(jobs_[i], last_cold_[i].rows); }));
      for (std::size_t i = 0; i < jobs_.size(); ++i)
        if (last_cold_[i].ok())
          lookup_us.push_back(time_us([&] { (void)cache.lookup(jobs_[i]); }));
    }
    fs::remove_all(dir);
    out.push_back({"runner.cache_store_us", median_of(store_us), "us"});
    out.push_back({"runner.cache_lookup_us", median_of(lookup_us), "us"});
  }

 private:
  std::uint64_t seed_;
  size_class size_;
  std::uint32_t replicates_;
  std::string scratch_;
  runner::run_options options_;
  std::vector<runner::job> jobs_;
  std::string first_bytes_;
  double cold_seconds_ = 0.0;
  double warm_seconds_ = 0.0;
  std::vector<runner::job_result> last_cold_;
  std::vector<runner::job_result> last_warm_;
};

}  // namespace

std::unique_ptr<workload> make_scenario_sweep(std::uint64_t seed,
                                              size_class size,
                                              std::string scratch_dir) {
  return std::make_unique<scenario_sweep>(seed, size, std::move(scratch_dir));
}

}  // namespace lcgbench
