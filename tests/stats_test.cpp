#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace mcs::util {
namespace {

TEST(OnlineMoments, MatchesDirectComputation) {
  const std::vector<double> xs = {1.0, 2.5, -3.0, 7.25, 0.0, 4.5};
  OnlineMoments m;
  for (double x : xs) m.add(x);

  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);

  EXPECT_EQ(m.count(), xs.size());
  EXPECT_NEAR(m.mean(), mean, 1e-12);
  EXPECT_NEAR(m.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(m.min(), -3.0);
  EXPECT_DOUBLE_EQ(m.max(), 7.25);
}

TEST(OnlineMoments, EmptyAndSingle) {
  OnlineMoments m;
  EXPECT_EQ(m.count(), 0u);
  EXPECT_DOUBLE_EQ(m.mean(), 0.0);
  EXPECT_DOUBLE_EQ(m.variance(), 0.0);
  m.add(5.0);
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
  EXPECT_DOUBLE_EQ(m.variance(), 0.0);
}

TEST(StudentT, TableValues) {
  EXPECT_DOUBLE_EQ(student_t_975(1), 12.706);
  EXPECT_DOUBLE_EQ(student_t_975(10), 2.228);
  EXPECT_DOUBLE_EQ(student_t_975(30), 2.042);
  EXPECT_NEAR(student_t_975(1000), 1.9623, 5e-4);
  EXPECT_DOUBLE_EQ(student_t_975(0), 0.0);
}

TEST(StudentT, BeyondTableMatchesTrueQuantiles) {
  // Regression (df > table boundary): the old fallback returned the bare
  // normal quantile 1.960 for every df > 30 — 4% low at df = 31, biasing
  // every CI built from a few dozen batches or replications. Reference
  // values from R's qt(0.975, df).
  EXPECT_NEAR(student_t_975(31), 2.0395, 1e-3);
  EXPECT_NEAR(student_t_975(40), 2.0211, 1e-3);
  EXPECT_NEAR(student_t_975(60), 2.0003, 1e-3);
  EXPECT_NEAR(student_t_975(120), 1.9799, 1e-3);
  // Monotone decreasing toward the normal quantile, never below it.
  double prev = student_t_975(30);
  for (std::uint64_t df = 31; df <= 400; ++df) {
    const double t = student_t_975(df);
    EXPECT_LT(t, prev) << "df=" << df;
    EXPECT_GT(t, 1.9599) << "df=" << df;
    prev = t;
  }
}

TEST(BatchMeans, ConstantSequenceHasZeroWidth) {
  BatchMeans bm(10);
  for (int i = 0; i < 100; ++i) bm.add(3.5);
  const ConfidenceInterval ci = bm.interval();
  EXPECT_DOUBLE_EQ(ci.mean, 3.5);
  EXPECT_DOUBLE_EQ(ci.half_width, 0.0);
  EXPECT_TRUE(ci.contains(3.5));
}

TEST(BatchMeans, CoversTrueMeanOfIidStream) {
  Rng rng(2);
  BatchMeans bm(500);
  for (int i = 0; i < 100000; ++i) bm.add(rng.exponential(0.5));  // mean 2
  const ConfidenceInterval ci = bm.interval();
  EXPECT_NEAR(ci.mean, 2.0, 0.1);
  EXPECT_GT(ci.half_width, 0.0);
  EXPECT_LT(ci.half_width, 0.2);
  EXPECT_TRUE(ci.contains(2.0));
}

TEST(BatchMeans, FewSamplesNoInterval) {
  BatchMeans bm(1000);
  bm.add(1.0);
  EXPECT_EQ(bm.completed_batches(), 0u);
  EXPECT_EQ(bm.interval_batches(), 0u);
  EXPECT_DOUBLE_EQ(bm.interval().half_width, 0.0);
  EXPECT_DOUBLE_EQ(bm.interval().mean, 1.0);
}

TEST(BatchMeans, PartialTrailingBatchIsNotSilentlyDropped) {
  // Regression: 1999 observations in 1000-wide batches used to yield ONE
  // completed batch and therefore no interval at all (half-width 0 reads
  // as "converged exactly"). The 999-observation trailing batch is at
  // least half full and must participate.
  Rng rng(7);
  BatchMeans bm(1000);
  for (int i = 0; i < 1999; ++i) bm.add(rng.exponential(0.5));
  EXPECT_EQ(bm.completed_batches(), 1u);
  EXPECT_EQ(bm.interval_batches(), 2u);
  EXPECT_GT(bm.interval().half_width, 0.0);
}

TEST(BatchMeans, SliverPartialBatchStaysExcluded) {
  // A partial batch below half full would only add noise: 2100
  // observations in 1000-wide batches keeps the 100-observation tail out.
  Rng rng(8);
  BatchMeans bm(1000);
  for (int i = 0; i < 2100; ++i) bm.add(rng.exponential(0.5));
  EXPECT_EQ(bm.completed_batches(), 2u);
  EXPECT_EQ(bm.interval_batches(), 2u);

  // The half-full boundary itself participates (500 of 1000).
  BatchMeans at_half(1000);
  for (int i = 0; i < 2500; ++i) at_half.add(rng.exponential(0.5));
  EXPECT_EQ(at_half.completed_batches(), 2u);
  EXPECT_EQ(at_half.interval_batches(), 3u);
}

TEST(BatchMeans, PartialBatchIntervalMatchesExplicitThreeBatches) {
  // The mean stays the total mean; the half-width must equal a t-interval
  // over the three batch means (two full + the half-full trailing one).
  BatchMeans bm(4);
  const double xs[] = {1, 1, 1, 1, 3, 3, 3, 3, 5, 5};
  OnlineMoments batch_means;
  for (double x : xs) bm.add(x);
  batch_means.add(1.0);
  batch_means.add(3.0);
  batch_means.add(5.0);
  const ConfidenceInterval expect = t_interval(batch_means);
  const ConfidenceInterval got = bm.interval();
  EXPECT_DOUBLE_EQ(got.half_width, expect.half_width);
  EXPECT_DOUBLE_EQ(got.mean, 2.6);  // total mean over all 10 observations
}

TEST(PercentileInplace, MatchesSortedOrderStatistics) {
  // 0..100 shuffled: type-7 quantiles are exact on the integer lattice.
  std::vector<double> xs;
  for (int i = 100; i >= 0; --i) xs.push_back(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(percentile_inplace(xs, 0.50), 50.0);
  EXPECT_DOUBLE_EQ(percentile_inplace(xs, 0.95), 95.0);
  EXPECT_DOUBLE_EQ(percentile_inplace(xs, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(percentile_inplace(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile_inplace(xs, 1.0), 100.0);
}

TEST(PercentileInplace, InterpolatesBetweenOrderStatistics) {
  std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};
  // h = 0.5 * 3 = 1.5 -> halfway between the 2nd and 3rd order statistic.
  EXPECT_DOUBLE_EQ(percentile_inplace(xs, 0.5), 2.5);
  std::vector<double> one = {7.0};
  EXPECT_DOUBLE_EQ(percentile_inplace(one, 0.99), 7.0);
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(percentile_inplace(empty, 0.5), 0.0);
}

}  // namespace
}  // namespace mcs::util
