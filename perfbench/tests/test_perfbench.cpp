// The benchmark's own tests: seeded determinism of the op sequence and
// of what it builds, the percentile/median/geomean helpers, and span
// self time.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "partition/compiled_program.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Span;

std::vector<std::uint64_t> built_hashes(std::uint64_t seed, int ops) {
  const std::vector<perfbench::Structure> pool =
      perfbench::trip_sweep_pool();
  perfbench::SpanLog log;
  std::vector<std::uint64_t> hashes;
  for (int i = 0; i < ops; ++i) {
    const perfbench::OpSpec spec =
        perfbench::trip_sweep_op(seed, static_cast<std::uint64_t>(i),
                                 pool.size());
    // Build at a small trip count derived from the op's own n, keeping
    // the test fast while still depending on every seeded choice.
    for (const perfbench::Built& b : perfbench::build_programs(
             pool[spec.structure], 16 + spec.n % 17, mimd::Machine{2, 1}, log,
             0)) {
      hashes.push_back(mimd::structural_hash(
          b.result.program, b.result.normalized.graph, b.copts));
    }
  }
  return hashes;
}

TEST(OpSequence, SameSeedSameOps) {
  const std::size_t pool = perfbench::trip_sweep_pool().size();
  for (std::uint64_t i = 0; i < 200; ++i) {
    const perfbench::OpSpec a = perfbench::trip_sweep_op(7, i, pool);
    const perfbench::OpSpec b = perfbench::trip_sweep_op(7, i, pool);
    EXPECT_EQ(a.structure, b.structure);
    EXPECT_EQ(a.n, b.n);
    EXPECT_GE(a.n, perfbench::kTripMin);
    EXPECT_LE(a.n, perfbench::kTripMax);
    EXPECT_LT(a.structure, pool);
  }
}

TEST(OpSequence, DifferentSeedsDiffer) {
  const std::size_t pool = perfbench::trip_sweep_pool().size();
  int same = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    const perfbench::OpSpec a = perfbench::trip_sweep_op(1, i, pool);
    const perfbench::OpSpec b = perfbench::trip_sweep_op(2, i, pool);
    same += (a.structure == b.structure && a.n == b.n) ? 1 : 0;
  }
  EXPECT_LT(same, 10);
}

TEST(OpSequence, TripCountsSpanTheRange) {
  const std::size_t pool = perfbench::trip_sweep_pool().size();
  std::set<std::size_t> structures;
  int low = 0;
  int high = 0;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const perfbench::OpSpec s = perfbench::trip_sweep_op(3, i, pool);
    structures.insert(s.structure);
    low += s.n < 1024 ? 1 : 0;    // first quarter of the log range
    high += s.n > 4096 ? 1 : 0;   // last quarter
  }
  EXPECT_EQ(structures.size(), pool);
  EXPECT_GT(low, 350);
  EXPECT_GT(high, 350);
}

TEST(OpSequence, BalancedPickPermutesEveryBlock) {
  constexpr std::size_t kSize = 10;
  for (std::uint64_t block = 0; block < 20; ++block) {
    std::set<std::size_t> seen;
    for (std::uint64_t j = 0; j < kSize; ++j) {
      seen.insert(perfbench::balanced_pick(9, 3, block * kSize + j, kSize));
    }
    EXPECT_EQ(seen.size(), kSize) << "block " << block;
    EXPECT_LT(*seen.rbegin(), kSize);
  }
  int same = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    same += perfbench::balanced_pick(9, 3, i, kSize) ==
                    perfbench::balanced_pick(10, 3, i, kSize)
                ? 1
                : 0;
  }
  EXPECT_LT(same, 30);
}

TEST(OpSequence, StrataPairEveryStructureWithEveryTripRange) {
  const std::size_t pool = perfbench::trip_sweep_pool().size();
  const double lo = std::log(static_cast<double>(perfbench::kTripMin));
  const double width =
      (std::log(static_cast<double>(perfbench::kTripMax)) - lo) /
      static_cast<double>(pool);
  std::set<std::pair<std::size_t, std::size_t>> pairs;
  for (std::uint64_t i = 0; i < pool * pool; ++i) {
    const perfbench::OpSpec s = perfbench::trip_sweep_op(4, i, pool);
    const auto stratum = static_cast<std::size_t>(
        (std::log(static_cast<double>(s.n)) - lo) / width);
    pairs.emplace(s.structure, std::min(stratum, pool - 1));
  }
  // Rounding n to an integer can push a draw across a stratum edge.
  EXPECT_GE(pairs.size(), pool * pool - pool);
}

TEST(OpSequence, PoolHoldsPaperLoopsAndGeneratedText) {
  const auto a = perfbench::trip_sweep_pool();
  const auto b = perfbench::trip_sweep_pool();
  ASSERT_EQ(a.size(), perfbench::paper_structures().size() +
                          perfbench::kTextLoops);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].source, b[i].source);
    EXPECT_EQ(a[i].graph.has_value(), a[i].source.empty());
  }
}

TEST(OpSequence, SameSeedSameStructuralHashes) {
  const auto a = built_hashes(5, 24);
  const auto b = built_hashes(5, 24);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, built_hashes(6, 24));
}

TEST(Percentile, RequiresTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  ASSERT_TRUE(perfbench::percentile(v, 0.90).has_value());
  EXPECT_EQ(*perfbench::percentile(v, 0.90), 90.0);
  EXPECT_EQ(*perfbench::percentile(v, 0.50), 50.0);
  EXPECT_FALSE(perfbench::percentile(v, 0.99).has_value());
  v.pop_back();  // 99 samples: rank 90 leaves only 9 beyond
  EXPECT_FALSE(perfbench::percentile(v, 0.90).has_value());
  std::vector<double> big;
  for (int i = 1000; i >= 1; --i) big.push_back(i);  // order must not matter
  EXPECT_EQ(*perfbench::percentile(big, 0.99), 990.0);
  EXPECT_FALSE(perfbench::percentile(std::vector<double>{}, 0.5).has_value());
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(perfbench::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(perfbench::median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_THROW((void)perfbench::median({}), std::invalid_argument);
}

TEST(Geomean, MatchesDefinition) {
  EXPECT_DOUBLE_EQ(perfbench::geomean({2.0, 8.0}), 4.0);
  EXPECT_DOUBLE_EQ(perfbench::geomean({5.0}), 5.0);
  EXPECT_NEAR(perfbench::geomean({1.0, 10.0, 100.0}), 10.0, 1e-12);
  EXPECT_THROW((void)perfbench::geomean({1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW((void)perfbench::geomean({}), std::invalid_argument);
}

Span span(std::int64_t b, std::int64_t e, std::int32_t parent) {
  Span s;
  s.start_ns = b;
  s.end_ns = e;
  s.parent = parent;
  return s;
}

TEST(SelfTime, SpanMinusChildCoverage) {
  // root [0,100) with children [10,30) and [50,60); the first child has
  // a grandchild [12,20) that must not be subtracted from the root.
  const std::vector<Span> spans = {span(0, 100, -1), span(10, 30, 0),
                                   span(12, 20, 1), span(50, 60, 0)};
  const auto self = perfbench::self_times_ns(spans);
  EXPECT_EQ(self[0], 70);
  EXPECT_EQ(self[1], 12);
  EXPECT_EQ(self[2], 8);
  EXPECT_EQ(self[3], 10);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  const std::vector<Span> spans = {span(0, 100, -1), span(10, 40, 0),
                                   span(30, 50, 0), span(90, 120, 0)};
  const auto self = perfbench::self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);  // [10,50) and [90,100) covered
}

TEST(SpanLog, RecordsNestingOnlyWhenEnabled) {
  perfbench::SpanLog log;
  { const perfbench::SpanLog::Scope s(log, "off", 1); }
  EXPECT_TRUE(log.spans().empty());
  log.set_enabled(true);
  {
    const perfbench::SpanLog::Scope outer(log, "outer", 4);
    const perfbench::SpanLog::Scope inner(log, "inner", 4);
  }
  { const perfbench::SpanLog::Scope next(log, "next", 5); }
  ASSERT_EQ(log.spans().size(), 3u);
  EXPECT_EQ(log.spans()[0].parent, -1);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_EQ(log.spans()[2].parent, -1);
  EXPECT_EQ(log.spans()[2].op, 5u);
  EXPECT_LE(log.spans()[0].start_ns, log.spans()[1].start_ns);
  EXPECT_GE(log.spans()[0].end_ns, log.spans()[1].end_ns);
}

TEST(Metrics, NamesAreUniqueAndWellFormed) {
  std::set<std::string> seen;
  for (const auto* list : {&perfbench::end_to_end_metrics(),
                           &perfbench::per_layer_metrics()}) {
    for (const perfbench::MetricSpec& m : *list) {
      const std::string name = m.name;
      EXPECT_TRUE(seen.insert(name).second) << name;
      EXPECT_LE(name.size(), 64u) << name;
      for (const char ch : name) {
        EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(ch)) || ch == '_' ||
                    ch == '.' || ch == '-')
            << name;
      }
    }
  }
  EXPECT_LE(perfbench::per_layer_metrics().size(), 128u);
}

}  // namespace
