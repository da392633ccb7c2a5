// Unit tests of the benchmark's own helpers. Run: python3 perfbench/run.py --test

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "lib.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, TailNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(SamplesBeyond(100, 0.9), 10u);
  EXPECT_EQ(SamplesBeyond(99, 0.9), 9u);
  EXPECT_EQ(MinSamplesForTail(0.9), 100u);
  EXPECT_EQ(MinSamplesForTail(0.99), 1000u);
  EXPECT_EQ(MinSamplesForTail(0.95), 200u);
  EXPECT_EQ(MinSamplesForTail(0.75), 40u);

  EXPECT_FALSE(TailPercentile(OneTo(99), 0.9).has_value());
  ASSERT_TRUE(TailPercentile(OneTo(100), 0.9).has_value());
  EXPECT_EQ(*TailPercentile(OneTo(100), 0.9), 90.0);
  EXPECT_FALSE(TailPercentile(OneTo(999), 0.99).has_value());
  EXPECT_EQ(*TailPercentile(OneTo(1000), 0.99), 990.0);
  EXPECT_FALSE(TailPercentile({}, 0.5).has_value());
}

TEST(Percentile, OrderOfSamplesDoesNotMatter) {
  std::vector<double> v = OneTo(200);
  std::mt19937 gen(7);
  std::shuffle(v.begin(), v.end(), gen);
  EXPECT_EQ(*TailPercentile(v, 0.95), 190.0);
  EXPECT_EQ(Median(v), 100.0);
  EXPECT_EQ(Median({3.0}), 3.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0}), 2.0);
}

TEST(Digest, IndependentOfOrder) {
  std::vector<std::pair<uint64_t, uint64_t>> items;
  for (uint64_t k = 0; k < 50; ++k) {
    items.emplace_back(k, Fnv1a(&k, sizeof(k)) ^ 0xabcdef);
  }
  OrderFreeDigest a;
  for (const auto& [k, h] : items) {
    a.Add(k, h);
  }
  std::mt19937 gen(3);
  std::shuffle(items.begin(), items.end(), gen);
  OrderFreeDigest b;
  for (const auto& [k, h] : items) {
    b.Add(k, h);
  }
  EXPECT_EQ(a.value(), b.value());
  EXPECT_EQ(a.count(), 50u);
}

TEST(Digest, SeesChangedMissingAndSwappedItems) {
  OrderFreeDigest base, changed, missing, swapped;
  for (uint64_t k = 0; k < 10; ++k) {
    base.Add(k, 100 + k);
    changed.Add(k, k == 4 ? 999 : 100 + k);
    if (k != 7) {
      missing.Add(k, 100 + k);
    }
    // Items 2 and 3 trade payloads: same multiset of hashes, other keys.
    swapped.Add(k, k == 2 ? 103 : k == 3 ? 102 : 100 + k);
  }
  EXPECT_NE(base.value(), changed.value());
  EXPECT_NE(base.value(), missing.value());
  EXPECT_NE(base.value(), swapped.value());
  // Duplicates do not cancel out.
  OrderFreeDigest twice;
  twice.Add(1, 5);
  twice.Add(1, 5);
  EXPECT_NE(twice.value(), 0u);
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  std::vector<Span> spans = {
      {"root", 1, 0, 0, 0, 100},
      {"a", 2, 1, 0, 10, 30},   // 20
      {"b", 3, 1, 0, 20, 50},   // overlaps a: union of a and b is [10, 50)
      {"c", 4, 1, 0, 90, 130},  // sticks out of the root: only [90, 100) counts
      {"a.child", 5, 2, 0, 12, 18},
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 40);
  EXPECT_EQ(self[4], 6);
}

TEST(SelfTime, TracerNestsSpansOnOneThread) {
  Tracer tracer(true);
  {
    auto outer = tracer.Open("outer");
    auto inner = tracer.Open("inner", 42);
    EXPECT_NE(inner.id(), 0u);
  }
  {
    auto skipped = tracer.Open("skipped", 0, /*active=*/false);
    EXPECT_EQ(skipped.id(), 0u);
  }
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].request, 42u);
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], (spans[0].end_ns - spans[0].start_ns) - (spans[1].end_ns - spans[1].start_ns));

  Tracer off(false);
  auto nothing = off.Open("x");
  EXPECT_EQ(off.Record("y", 0, 1), 0u);
  EXPECT_TRUE(off.spans().empty());
}

TEST(MetricName, Validation) {
  EXPECT_TRUE(ValidMetricName("setup_s"));
  EXPECT_TRUE(ValidMetricName("planner.broadcast-1.5d_ms"));
  EXPECT_TRUE(ValidMetricName("9lives"));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("_leading"));
  EXPECT_FALSE(ValidMetricName(".leading"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("slash/ms"));
  EXPECT_FALSE(ValidMetricName("quote\""));
}

TEST(MetricName, ResultLineKeepsAllDigits) {
  MetricSet m;
  m.Add("b.ms", 1.0 / 3.0, "ms");
  m.Add("a", 2.0, "count");
  EXPECT_EQ(m.ResultLine(true, 5, 0),
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {"
            "\"a\": {\"value\": 2, \"unit\": \"count\"}, "
            "\"b.ms\": {\"value\": 0.33333333333333331, \"unit\": \"ms\"}}}");
  EXPECT_DEATH(m.Add("a", 1.0, "count"), "bad metric");
  EXPECT_DEATH(m.Add("bad name", 1.0, "count"), "bad metric");
}

}  // namespace
}  // namespace perfbench
