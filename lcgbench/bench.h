// Shared pieces of the lcgbench driver: the workload interface, the
// result tally, metric lists, sampling statistics, span harvesting and the
// provenance stamp. See README.md for what is measured and why.

#ifndef LCGBENCH_BENCH_H
#define LCGBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/registry.h"

namespace lcgbench {

/// Sizes of one benchmark invocation: the full sizes the BENCHMARK.json
/// workloads define, or the smoke sizes the benchmark's own tests use
/// (small enough to finish in seconds, but running every output check).
enum class size_class { full, smoke };

/// Operations attempted and failed, plus the output-check verdict.
/// A failed output check counts as one failed operation and clears
/// `correct`; a failed sweep job counts as failed but leaves `correct`
/// alone (the job's error is program output, reported honestly).
struct tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void check(bool ok, const std::string& what);
};

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

using metric_list = std::vector<metric>;

/// lcg::quantile (util/stats.h) at q = 0.5.
[[nodiscard]] double median_of(std::vector<double> values);

/// splitmix64 finaliser, for deriving independent input streams from the
/// workload seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index);

/// Default seeds. For these the output checks also compare against values
/// recorded in each workload's file.
inline constexpr std::uint64_t arena_default_seed = 120;
inline constexpr std::uint64_t htlc_default_seed = 256;
inline constexpr std::uint64_t sweep_default_seed = 42;

/// Worker threads the workloads may use: the host's hardware threads.
[[nodiscard]] std::size_t host_threads();

/// Spans and metric snapshot of one traced region, copied out of the
/// global obs registry.
struct harvest {
  std::string workload;
  std::vector<lcg::obs::span_record> spans;
  lcg::obs::metrics_snapshot snapshot;
};

/// Counter `name` in `snap` (0 when never registered).
[[nodiscard]] std::uint64_t counter_in(const lcg::obs::metrics_snapshot& snap,
                                       std::string_view name);
/// Smallest bucket edge below which half of histogram `name` falls (its
/// max when the median lies in the overflow bucket; 0 when empty).
[[nodiscard]] double histogram_median(const lcg::obs::metrics_snapshot& snap,
                                      std::string_view name);

/// `v` with all 17 significant digits, so equal text means equal doubles.
[[nodiscard]] std::string format_exact(double v);

/// `text` as a JSON string literal.
[[nodiscard]] std::string json_quote(std::string_view text);

/// Resets and enables the obs registry; end_trace() disables it and copies
/// out what the traced region recorded.
void begin_trace();
[[nodiscard]] harvest end_trace(std::string workload);

/// Build and run provenance, stamped on every result and trace header.
struct provenance {
  std::string git_sha;
  std::string source_sha256;
  std::string compiler;
  std::string build_type;
  std::string cxx_flags;
  std::size_t nproc = 0;
  std::string workload;
  std::uint64_t seed = 0;
  std::string threads;  ///< the workload's thread settings
  std::string size;     ///< "full" or "smoke"

  [[nodiscard]] std::string json() const;
};

/// One benchmark workload. The driver calls setup() several times (its
/// median is setup_s), then prepare() once, then iterate() in a closed
/// loop: the next iteration starts only when the previous one returned.
/// iterate() checks its own outputs into the tally and returns the seconds
/// of its timed part. Iteration `index` runs input `index % pool()`; the
/// driver runs whole passes over the pool, so every input is timed equally
/// often whatever the code's speed.
class workload {
 public:
  virtual ~workload() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Thread settings, for the provenance stamp.
  [[nodiscard]] virtual std::string threads() const = 0;
  /// Number of distinct inputs iterate() cycles through.
  [[nodiscard]] virtual std::size_t pool() const { return 1; }
  /// Builds every input of the timed loop from the seed; idempotent.
  virtual void setup() = 0;
  /// Untimed checks that need the inputs but are run once per invocation.
  virtual void prepare(tally&) {}
  /// Iteration `index` (0-based); returns its timed seconds.
  virtual double iterate(std::size_t index, tally& t) = 0;
  /// Per-layer metrics, called with obs still enabled right after a
  /// traced iterate(0) that took `traced_seconds`: reads that iteration's
  /// outputs and counters, then replays this workload's inputs through
  /// each layer's public functions under bench spans.
  virtual void layer_metrics(double traced_seconds, metric_list& out) = 0;
};

[[nodiscard]] std::unique_ptr<workload> make_arena_dynamics(
    std::uint64_t seed, size_class size);
[[nodiscard]] std::unique_ptr<workload> make_htlc_stream(std::uint64_t seed,
                                                         size_class size);
[[nodiscard]] std::unique_ptr<workload> make_scenario_sweep(
    std::uint64_t seed, size_class size, std::string scratch_dir);

/// Times `fn` once, in microseconds.
template <class F>
double time_us(F&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace lcgbench

#endif  // LCGBENCH_BENCH_H
