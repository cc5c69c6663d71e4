// Shared best-of-R timing loop and host identity for the bench_* binaries.
//
// Every bench used to carry its own stopwatch loop; they now all run
// through best_of_ms, built on obs::scoped_timer so the benches and the
// runtime instrumentation (src/obs/) time against the same steady clock.
// Best-of (not mean-of) because the minimum over repeats is the standard
// low-noise estimator for a deterministic workload.

#ifndef LCG_BENCH_TIMING_H
#define LCG_BENCH_TIMING_H

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <ostream>
#include <string>
#include <thread>
#include <utility>

#include "obs/span.h"

namespace lcg::bench {

/// Best-of-`repeat` wall milliseconds of `fn()`. The value of the LAST
/// run is moved into `*out` (when non-null) — every bench workload is
/// deterministic, so all repeats produce the same result and "last"
/// carries no ambiguity.
template <typename Fn, typename Out>
double best_of_ms(std::size_t repeat, Fn&& fn, Out* out) {
  double best = 0.0;
  for (std::size_t r = 0; r < repeat; ++r) {
    obs::scoped_timer timer;
    auto result = fn();
    const double ms = timer.elapsed_ms();
    if (r == 0 || ms < best) best = ms;
    if (out != nullptr) *out = std::move(result);
  }
  return best;
}

/// Overload for workloads whose result is ignored.
template <typename Fn>
double best_of_ms(std::size_t repeat, Fn&& fn) {
  double best = 0.0;
  for (std::size_t r = 0; r < repeat; ++r) {
    obs::scoped_timer timer;
    fn();
    const double ms = timer.elapsed_ms();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

#ifndef LCG_BUILD_TYPE
#define LCG_BUILD_TYPE "unknown"
#endif

/// CPU model name from /proc/cpuinfo, or "unknown" where it is unreadable.
inline std::string host_cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string model = line.substr(line.find_first_not_of(" \t", colon + 1));
    // Keep the value a plain JSON string.
    model.erase(std::remove_if(model.begin(), model.end(),
                               [](char c) { return c == '"' || c == '\\'; }),
                model.end());
    return model;
  }
  return "unknown";
}

/// Writes the host identity fields of a bench record, leading comma
/// included: hardware threads, CPU model, compiler version and build type.
/// A record is only comparable with records that carry the same identity.
inline void write_host_fields(std::ostream& os) {
  static const std::string cpu = host_cpu_model();
  os << ", \"host_hw_threads\": "
     << std::max(1u, std::thread::hardware_concurrency())
     << ", \"host_cpu\": \"" << cpu << "\""
     << ", \"compiler\": \"" << __VERSION__ << "\""
     << ", \"build_type\": \"" << LCG_BUILD_TYPE << "\"";
}

}  // namespace lcg::bench

#endif  // LCG_BENCH_TIMING_H
