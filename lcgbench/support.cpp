#include <algorithm>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "util/stats.h"

namespace lcgbench {

void tally::check(bool ok, const std::string& what) {
  if (ok) return;
  ++failed;
  correct = false;
  std::cerr << "lcgbench: output check failed: " << what << "\n";
}

double median_of(std::vector<double> values) {
  return lcg::quantile(std::move(values), 0.5);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::size_t host_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::uint64_t counter_in(const lcg::obs::metrics_snapshot& snap,
                         std::string_view name) {
  for (const auto& [key, value] : snap.counters)
    if (key == name) return value;
  return 0;
}

double histogram_median(const lcg::obs::metrics_snapshot& snap,
                        std::string_view name) {
  for (const auto& h : snap.histograms) {
    if (h.name != name || h.count == 0) continue;
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      seen += h.buckets[b];
      if (2 * seen >= h.count) return h.bounds[b];
    }
    return h.max;
  }
  return 0.0;
}

void begin_trace() {
  lcg::obs::registry& reg = lcg::obs::registry::global();
  reg.reset();
  reg.enable(true);
}

harvest end_trace(std::string workload) {
  lcg::obs::registry& reg = lcg::obs::registry::global();
  reg.enable(false);
  return {std::move(workload), reg.spans(), reg.snapshot()};
}

std::string format_exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_quote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string provenance::json() const {
  std::ostringstream os;
  os << "{\"git_sha\": " << json_quote(git_sha)
     << ", \"source_sha256\": " << json_quote(source_sha256)
     << ", \"compiler\": " << json_quote(compiler)
     << ", \"build_type\": " << json_quote(build_type)
     << ", \"cxx_flags\": " << json_quote(cxx_flags)
     << ", \"nproc\": " << nproc << ", \"workload\": " << json_quote(workload)
     << ", \"seed\": " << seed << ", \"threads\": " << json_quote(threads)
     << ", \"size\": " << json_quote(size) << "}";
  return os.str();
}

}  // namespace lcgbench
