#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <future>
#include <sstream>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "testing/json_check.h"

namespace defrag::obs {
namespace {

TEST(MetricsRegistryTest, SameNameReturnsSameHandle) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x.events");
  Counter& b = reg.counter("x.events");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.size(), 1u);
  a.add(2);
  b.add(3);
  EXPECT_EQ(a.value(), 5u);
}

TEST(MetricsRegistryTest, KindCollisionThrows) {
  MetricsRegistry reg;
  reg.counter("x.thing");
  EXPECT_THROW(reg.gauge("x.thing"), CheckFailure);
  EXPECT_THROW(reg.histogram("x.thing"), CheckFailure);
  reg.histogram("y.thing");
  EXPECT_THROW(reg.counter("y.thing"), CheckFailure);
}

TEST(MetricsRegistryTest, InvalidNamesThrow) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.counter(""), CheckFailure);
  EXPECT_THROW(reg.counter("has space"), CheckFailure);
  EXPECT_THROW(reg.counter("has\"quote"), CheckFailure);
  // The full legal alphabet.
  EXPECT_NO_THROW(reg.counter("Az0.9_-ok"));
}

TEST(MetricsRegistryTest, GaugeTracksSetFlag) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("x.level");
  EXPECT_FALSE(g.is_set());
  g.set(0.0);  // setting to the default value still counts as set
  EXPECT_TRUE(g.is_set());
  g.set(-2.5);
  EXPECT_DOUBLE_EQ(g.value(), -2.5);
}

TEST(MetricsRegistryTest, HistogramFeedsStatsAndBuckets) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("x.us");
  h.observe(100.0);
  h.observe(300.0);
  h.observe(0.0);
  h.observe(-5.0);  // negatives: exact in moments, zeros in buckets
  EXPECT_EQ(h.stats().count(), 4u);
  EXPECT_DOUBLE_EQ(h.stats().sum(), 395.0);
  EXPECT_DOUBLE_EQ(h.stats().min(), -5.0);
  EXPECT_EQ(h.buckets().zeros(), 2u);
  EXPECT_EQ(h.buckets().bucket(6), 1u);  // 100 in [64, 128)
  EXPECT_EQ(h.buckets().bucket(8), 1u);  // 300 in [256, 512)
}

TEST(MetricsRegistryTest, DisabledSkipsUpdates) {
  MetricsRegistry reg;
  Counter& c = reg.counter("x.count");
  Gauge& g = reg.gauge("x.gauge");
  Histogram& h = reg.histogram("x.hist");
  set_enabled(false);
  c.add(7);
  g.set(1.0);
  h.observe(42.0);
  set_enabled(true);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_FALSE(g.is_set());
  EXPECT_EQ(h.stats().count(), 0u);
  c.add(1);
  EXPECT_EQ(c.value(), 1u);
}

TEST(MetricsRegistryTest, MergeShardsEqualsSequential) {
  // The canonical parallel pattern: one registry per worker, folded into a
  // root. Every metric kind must land exactly where single-threaded
  // accumulation would put it.
  MetricsRegistry expected;
  MetricsRegistry root;
  std::vector<std::unique_ptr<MetricsRegistry>> shards;
  for (int s = 0; s < 4; ++s) shards.push_back(std::make_unique<MetricsRegistry>());

  for (int i = 0; i < 400; ++i) {
    const auto v = static_cast<double>(i % 37);
    expected.counter("w.events").add(1);
    expected.histogram("w.size").observe(v);
    shards[static_cast<std::size_t>(i % 4)]->counter("w.events").add(1);
    shards[static_cast<std::size_t>(i % 4)]->histogram("w.size").observe(v);
  }
  expected.gauge("w.last").set(3.5);
  shards[2]->gauge("w.last").set(3.5);

  for (const auto& s : shards) root.merge_from(*s);

  EXPECT_EQ(root.counter("w.events").value(),
            expected.counter("w.events").value());
  EXPECT_TRUE(root.gauge("w.last").is_set());
  EXPECT_DOUBLE_EQ(root.gauge("w.last").value(), 3.5);
  const Histogram& hr = root.histogram("w.size");
  const Histogram& he = expected.histogram("w.size");
  EXPECT_EQ(hr.stats().count(), he.stats().count());
  EXPECT_NEAR(hr.stats().mean(), he.stats().mean(), 1e-9);
  EXPECT_NEAR(hr.stats().variance(), he.stats().variance(), 1e-9);
  EXPECT_EQ(hr.buckets().zeros(), he.buckets().zeros());
  for (int i = 0; i < Log2Histogram::kBuckets; ++i) {
    EXPECT_EQ(hr.buckets().bucket(i), he.buckets().bucket(i)) << "bucket " << i;
  }
}

TEST(MetricsRegistryTest, MergeFromWithPrefixRescopesNames) {
  // The per-tenant publication pattern from defrag-serve: a session-local
  // registry with bare names folded under a scope prefix in the target.
  MetricsRegistry session;
  session.counter("backups").add(2);
  session.counter("logical_bytes").add(4096);
  session.gauge("last_rate").set(1.5);
  session.histogram("wall_us").observe(100.0);

  MetricsRegistry root;
  root.counter("service.tenant.alice.backups").add(1);  // pre-existing total
  root.merge_from(session, "service.tenant.alice.");

  EXPECT_EQ(root.counter("service.tenant.alice.backups").value(), 3u);
  EXPECT_EQ(root.counter("service.tenant.alice.logical_bytes").value(), 4096u);
  EXPECT_DOUBLE_EQ(root.gauge("service.tenant.alice.last_rate").value(), 1.5);
  EXPECT_EQ(root.histogram("service.tenant.alice.wall_us").stats().count(), 1u);
  // The bare names never appear in the target.
  EXPECT_EQ(root.size(), 4u);

  // Two tenants with identical bare names stay disjoint.
  root.merge_from(session, "service.tenant.bob.");
  EXPECT_EQ(root.counter("service.tenant.bob.backups").value(), 2u);
  EXPECT_EQ(root.counter("service.tenant.alice.backups").value(), 3u);

  // A prefix producing an invalid combined name is rejected.
  EXPECT_THROW(root.merge_from(session, "bad prefix."), CheckFailure);
}

TEST(MetricsRegistryTest, CounterIsThreadSafe) {
  MetricsRegistry reg;
  Counter& c = reg.counter("x.parallel");
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(MetricsRegistryTest, ConcurrentRegistrationIsSafe) {
  MetricsRegistry reg;
  ThreadPool pool(4);
  std::vector<std::future<void>> futures;
  for (std::size_t i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([&reg, i] {
      reg.counter("shared.counter").add(1);
      reg.counter("per." + std::to_string(i % 8)).add(1);
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(reg.counter("shared.counter").value(), 64u);
  EXPECT_EQ(reg.size(), 9u);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsHandles) {
  MetricsRegistry reg;
  Counter& c = reg.counter("x.count");
  Histogram& h = reg.histogram("x.hist");
  reg.gauge("x.gauge").set(9.0);
  c.add(10);
  h.observe(5.0);
  reg.reset();
  EXPECT_EQ(reg.size(), 3u);  // registrations survive
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.stats().count(), 0u);
  EXPECT_FALSE(reg.gauge("x.gauge").is_set());
  c.add(1);  // the old handle still feeds the same slot
  EXPECT_EQ(reg.snapshot().counter_or_zero("x.count"), 1u);
}

TEST(MetricsSnapshotTest, SortedLookupAndDelta) {
  MetricsRegistry reg;
  reg.counter("b.two").add(2);
  reg.counter("a.one").add(1);
  reg.gauge("c.three").set(3.0);

  const MetricsSnapshot before = reg.snapshot();
  ASSERT_EQ(before.entries.size(), 3u);
  EXPECT_EQ(before.entries[0].name, "a.one");  // sorted by name
  EXPECT_EQ(before.entries[1].name, "b.two");
  EXPECT_EQ(before.counter_or_zero("b.two"), 2u);
  EXPECT_EQ(before.counter_or_zero("missing"), 0u);
  EXPECT_EQ(before.counter_or_zero("c.three"), 0u);  // not a counter
  EXPECT_EQ(before.find("missing"), nullptr);

  reg.counter("b.two").add(5);
  const MetricsSnapshot after = reg.snapshot();
  EXPECT_EQ(counter_delta(before, after, "b.two"), 5u);
  EXPECT_EQ(counter_delta(before, after, "a.one"), 0u);
  EXPECT_EQ(counter_delta(after, before, "b.two"), 0u);  // never negative
}

TEST(MetricsJsonTest, GoldenOutput) {
  // The schema is a contract with tools/metrics_diff.py and external
  // consumers: byte-exact output for fixed input.
  MetricsRegistry reg;
  reg.counter("a.count").add(3);
  reg.gauge("b.gauge").set(2.5);
  Histogram& h = reg.histogram("c.hist");
  h.observe(2.0);
  h.observe(2.0);

  std::ostringstream os;
  write_metrics_json(reg.snapshot(), os);
  const std::string expected =
      "{\n"
      "  \"schema\": \"defrag.metrics.v1\",\n"
      "  \"metrics\": {\n"
      "    \"a.count\": {\"type\": \"counter\", \"value\": 3},\n"
      "    \"b.gauge\": {\"type\": \"gauge\", \"value\": 2.5},\n"
      "    \"c.hist\": {\"type\": \"histogram\", \"count\": 2, \"sum\": 4, "
      "\"mean\": 2, \"stddev\": 0, \"min\": 2, \"max\": 2, \"p50\": 3, "
      "\"p90\": 3, \"p99\": 3, \"zeros\": 0, \"buckets\": [[1, 2]]}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(MetricsJsonTest, OutputIsValidJson) {
  // Exercise every kind plus an unset gauge and an empty histogram, and run
  // the result through a real JSON grammar check.
  MetricsRegistry reg;
  reg.counter("k.counter").add(123456789);
  reg.gauge("k.gauge_set").set(-0.125);
  reg.gauge("k.gauge_unset");
  reg.histogram("k.hist_empty");
  Histogram& h = reg.histogram("k.hist");
  for (int i = 0; i < 100; ++i) h.observe(static_cast<double>(i * i));

  std::ostringstream os;
  write_metrics_json(reg.snapshot(), os);
  EXPECT_TRUE(testing::JsonChecker::valid(os.str())) << os.str();
}

TEST(MetricsJsonTest, EmptySnapshotIsValidJson) {
  std::ostringstream os;
  write_metrics_json(MetricsSnapshot{}, os);
  EXPECT_TRUE(testing::JsonChecker::valid(os.str())) << os.str();
}

TEST(SlugTest, CollapsesToMetricSegment) {
  EXPECT_EQ(slug("DDFS-Like"), "ddfs_like");
  EXPECT_EQ(slug("SiLo-Like"), "silo_like");
  EXPECT_EQ(slug("DeFrag"), "defrag");
  EXPECT_EQ(slug("Sparse-Indexing"), "sparse_indexing");
  EXPECT_EQ(slug("CBR-Like"), "cbr_like");
  EXPECT_EQ(slug("  weird  name!! "), "weird_name");
  EXPECT_EQ(slug(""), "");
}

TEST(GlobalRegistryTest, IsASingleton) {
  MetricsRegistry& a = MetricsRegistry::global();
  MetricsRegistry& b = MetricsRegistry::global();
  EXPECT_EQ(&a, &b);
}

}  // namespace
}  // namespace defrag::obs
