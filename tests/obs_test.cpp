#include "obs/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "arena/provider.h"
#include "graph/generators.h"
#include "obs/span.h"

namespace lcg::obs {
namespace {

/// Every test runs against the (process-global) registry, so each one
/// starts from a zeroed, enabled state and leaves obs disabled behind it
/// — the same state production code finds it in.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry::global().reset();
    registry::global().enable(true);
  }
  void TearDown() override {
    registry::global().enable(false);
    registry::global().reset();
  }
};

TEST_F(ObsTest, CounterAddsAndResets) {
  counter& c = registry::global().get_counter("test/count");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);

  // Same name -> same underlying counter (handles are stable).
  counter& again = registry::global().get_counter("test/count");
  EXPECT_EQ(&again, &c);

  registry::global().reset();
  registry::global().enable(true);
  EXPECT_EQ(c.value(), 0u);  // reset zeroes in place, never reallocates
  c.add(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST_F(ObsTest, GaugeTracksValueAndPeak) {
  gauge& g = registry::global().get_gauge("test/inflight");
  g.add(5);
  g.add(3);
  g.add(-6);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.peak(), 8);
  g.set(100);
  EXPECT_EQ(g.value(), 100);
  EXPECT_EQ(g.peak(), 100);
}

TEST_F(ObsTest, HistogramBucketsOnUpperBounds) {
  histogram& h =
      registry::global().get_histogram("test/latency", {1.0, 2.0, 4.0});
  // A value equal to a bound lands in that bound's bucket (le semantics);
  // anything above the last bound lands in the overflow bucket.
  h.record(1.0);
  h.record(1.5);
  h.record(4.0);
  h.record(9.0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 15.5);
  EXPECT_DOUBLE_EQ(h.max(), 9.0);
  const std::vector<std::uint64_t> buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);

  // Re-fetching by name returns the same histogram; later bounds are
  // ignored (first registration wins).
  histogram& again =
      registry::global().get_histogram("test/latency", {42.0});
  EXPECT_EQ(&again, &h);
  EXPECT_EQ(again.bounds().size(), 3u);
}

TEST_F(ObsTest, HistogramEmptyIsAllZero) {
  histogram& h = registry::global().get_histogram("test/empty");
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_FALSE(h.bounds().empty());  // default decade grid
}

TEST_F(ObsTest, EightThreadsSumExactly) {
  counter& c = registry::global().get_counter("test/mt_count");
  gauge& g = registry::global().get_gauge("test/mt_gauge");
  histogram& h = registry::global().get_histogram("test/mt_histo", {0.5});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  {
    std::vector<std::jthread> pool;
    pool.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&] {
        for (int i = 0; i < kPerThread; ++i) {
          c.add();
          g.add(1);
          h.record(0.25);
        }
      });
    }
  }
  // Relaxed atomics still sum exactly — no increment may be lost.
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(g.value(), static_cast<std::int64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(h.sum(), 0.25 * kThreads * kPerThread);
  EXPECT_EQ(h.bucket_counts().at(0),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(ObsTest, DisabledRegistryIsANoOp) {
  registry::global().enable(false);
  counter& c = registry::global().get_counter("test/off_count");
  gauge& g = registry::global().get_gauge("test/off_gauge");
  histogram& h = registry::global().get_histogram("test/off_histo");
  c.add(5);
  g.add(5);
  h.record(5.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);

  {
    span s("test/off_span");
    EXPECT_FALSE(s.active());
    s.attr("k", "v").timing("t", 1.0);  // all no-ops
  }
  EXPECT_TRUE(registry::global().spans().empty());
}

TEST_F(ObsTest, SpansNestViaThreadLocalParent) {
  {
    span outer("test/outer");
    ASSERT_TRUE(outer.active());
    outer.attr("scenario", "demo").attr("seed", 42LL);
    {
      span inner("test/inner");
      inner.timing("wait_s", 0.5);
    }
    {
      span sibling("test/sibling");
    }
  }
  const std::vector<span_record> spans = registry::global().spans();
  ASSERT_EQ(spans.size(), 3u);
  // Inner spans end (and record) first; the outer span closes last.
  const span_record& inner = spans[0];
  const span_record& sibling = spans[1];
  const span_record& outer = spans[2];
  EXPECT_EQ(outer.name, "test/outer");
  EXPECT_EQ(outer.parent, 0u);  // root
  EXPECT_EQ(inner.name, "test/inner");
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(sibling.parent, outer.id);
  ASSERT_EQ(outer.attrs.size(), 2u);
  EXPECT_EQ(outer.attrs[0].first, "scenario");
  EXPECT_EQ(outer.attrs[0].second, "demo");
  EXPECT_EQ(outer.attrs[1].second, "42");
  ASSERT_EQ(inner.timings.size(), 1u);
  EXPECT_EQ(inner.timings[0].first, "wait_s");
  EXPECT_DOUBLE_EQ(inner.timings[0].second, 0.5);
  EXPECT_GE(outer.dur_us, inner.dur_us);
}

TEST_F(ObsTest, SpanEndIsIdempotent) {
  span s("test/once");
  s.end();
  s.end();  // second end must not record a duplicate
  EXPECT_EQ(registry::global().spans().size(), 1u);
  // After the current span ends, a new span is again a root.
  span next("test/root_again");
  next.end();
  EXPECT_EQ(registry::global().spans().at(1).parent, 0u);
}

TEST_F(ObsTest, ScopedTimerRecordsOnlyWhenEnabled) {
  histogram& h = registry::global().get_histogram("test/timer", {1e9});
  {
    scoped_timer t(h);
  }
  EXPECT_EQ(h.count(), 1u);

  registry::global().enable(false);
  {
    scoped_timer t(h);
  }
  EXPECT_EQ(h.count(), 1u);  // disabled: not even a clock read

  // The default-constructed timer is always armed — the bench loops rely
  // on it regardless of obs state.
  scoped_timer bench_timer;
  EXPECT_GE(bench_timer.elapsed_ms(), 0.0);
  EXPECT_GE(bench_timer.stop(), 0.0);
}

TEST_F(ObsTest, SnapshotIsSortedAndComplete) {
  // Metrics registered by earlier tests persist (reset zeroes in place,
  // it never removes), so assert membership and ordering, not exact size.
  registry::global().get_counter("test/snap_b").add(2);
  registry::global().get_counter("test/snap_a").add(1);
  registry::global().get_gauge("test/snap_g").set(3);
  registry::global().get_histogram("test/snap_h", {1.0}).record(0.5);
  const metrics_snapshot snap = registry::global().snapshot();

  EXPECT_TRUE(std::is_sorted(
      snap.counters.begin(), snap.counters.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
  const auto counter_value = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [n, v] : snap.counters)
      if (n == name) return v;
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  EXPECT_EQ(counter_value("test/snap_a"), 1u);
  EXPECT_EQ(counter_value("test/snap_b"), 2u);

  bool found_gauge = false;
  for (const gauge_snapshot& g : snap.gauges) {
    if (g.name != "test/snap_g") continue;
    found_gauge = true;
    EXPECT_EQ(g.value, 3);
    EXPECT_EQ(g.peak, 3);
  }
  EXPECT_TRUE(found_gauge);

  bool found_histo = false;
  for (const histogram_snapshot& h : snap.histograms) {
    if (h.name != "test/snap_h") continue;
    found_histo = true;
    EXPECT_EQ(h.count, 1u);
    EXPECT_DOUBLE_EQ(h.sum, 0.5);
    ASSERT_EQ(h.buckets.size(), 2u);
    EXPECT_EQ(h.buckets[0], 1u);
  }
  EXPECT_TRUE(found_histo);
}

TEST_F(ObsTest, ExactEvaluationMaterialisesOneRowPerNode) {
  // dist/compute_row counts materialised p_trans rows at the rank core. An
  // exact-backend evaluation of u sweeps the n - 1 sources != u and reads
  // u's own row for E_fees: exactly n rows, each built once however often
  // the sweep workers read it.
  const std::size_t n = 10;
  const graph::digraph g = graph::cycle_graph(n);
  arena::provider_options options;
  options.threads = 2;
  const arena::utility_provider provider(topology::game_params{}, options);
  ASSERT_FALSE(provider.sampled_at(n));
  (void)provider.evaluate(g, 3);
  EXPECT_EQ(registry::global().get_counter("dist/compute_row").value(), n);
}

}  // namespace
}  // namespace lcg::obs
