#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/statistics.h"

namespace opdvfs::stats {
namespace {

TEST(Statistics, MeanBasics)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({4.0}), 4.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Statistics, Stddev)
{
    EXPECT_DOUBLE_EQ(stddev({}), 0.0);
    EXPECT_DOUBLE_EQ(stddev({5.0}), 0.0);
    // Population stddev of {2, 4} is 1.
    EXPECT_DOUBLE_EQ(stddev({2.0, 4.0}), 1.0);
}

TEST(Statistics, QuantileInterpolates)
{
    std::vector<double> xs = {3.0, 1.0, 2.0}; // unsorted on purpose
    EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.0);
    EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 3.0);
    EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 1.5);
}

TEST(Statistics, QuantileEdgeCases)
{
    EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(quantile({7.0}, 0.99), 7.0);
    // Out-of-range q clamps.
    EXPECT_DOUBLE_EQ(quantile({1.0, 2.0}, 2.0), 2.0);
}

TEST(Statistics, NearestRankReturnsTheCeilRankedSample)
{
    std::vector<double> xs = {4.0, 1.0, 3.0, 2.0}; // unsorted on purpose
    EXPECT_DOUBLE_EQ(nearestRank(xs, 0.5), 2.0);  // ceil(2.0) = 2nd
    EXPECT_DOUBLE_EQ(nearestRank(xs, 0.51), 3.0); // ceil(2.04) = 3rd
    EXPECT_DOUBLE_EQ(nearestRank(xs, 0.25), 1.0);
    EXPECT_DOUBLE_EQ(nearestRank(xs, 1.0), 4.0);
    // A high percentile of a small set is its largest sample, not the
    // median a truncated (n - 1) * q index would give.
    EXPECT_DOUBLE_EQ(nearestRank({10.0, 30.0, 20.0}, 0.95), 30.0);
    EXPECT_DOUBLE_EQ(nearestRank({10.0, 30.0, 20.0}, 0.5), 20.0);
    // q * n landing on an integer does not round up past it.
    std::vector<double> twenty;
    for (int i = 1; i <= 20; ++i)
        twenty.push_back(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(nearestRank(twenty, 0.95), 19.0);
    EXPECT_DOUBLE_EQ(nearestRank(twenty, 0.99), 20.0);
}

TEST(Statistics, NearestRankEdgeCases)
{
    EXPECT_DOUBLE_EQ(nearestRank({}, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(nearestRank({7.0}, 0.99), 7.0);
    EXPECT_DOUBLE_EQ(nearestRank({7.0, 9.0}, 0.0), 7.0);
    // Out-of-range q clamps.
    EXPECT_DOUBLE_EQ(nearestRank({1.0, 2.0}, 2.0), 2.0);
    EXPECT_DOUBLE_EQ(nearestRank({1.0, 2.0}, -1.0), 1.0);
}

TEST(Statistics, RelativeError)
{
    EXPECT_DOUBLE_EQ(relativeError(110.0, 100.0), 0.1);
    EXPECT_DOUBLE_EQ(relativeError(90.0, 100.0), 0.1);
    EXPECT_THROW(relativeError(1.0, 0.0), std::invalid_argument);
}

TEST(Statistics, Mape)
{
    EXPECT_DOUBLE_EQ(mape({}, {}), 0.0);
    EXPECT_DOUBLE_EQ(mape({110.0, 90.0}, {100.0, 100.0}), 0.1);
    EXPECT_THROW(mape({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Statistics, CdfAt)
{
    std::vector<double> samples = {0.1, 0.2, 0.3, 0.4};
    auto cdf = cdfAt(samples, {0.0, 0.2, 0.25, 1.0});
    EXPECT_DOUBLE_EQ(cdf[0], 0.0);
    EXPECT_DOUBLE_EQ(cdf[1], 0.5);
    EXPECT_DOUBLE_EQ(cdf[2], 0.5);
    EXPECT_DOUBLE_EQ(cdf[3], 1.0);
}

TEST(Statistics, BucketFractionsTableTwoStyle)
{
    // The Table 2 buckets: (0,1%], (1%,5%], (5%,10%], (10%, inf).
    std::vector<double> errors = {0.005, 0.02, 0.03, 0.07, 0.5};
    auto buckets = bucketFractions(errors, {0.01, 0.05, 0.10});
    ASSERT_EQ(buckets.size(), 4u);
    EXPECT_DOUBLE_EQ(buckets[0], 0.2);
    EXPECT_DOUBLE_EQ(buckets[1], 0.4);
    EXPECT_DOUBLE_EQ(buckets[2], 0.2);
    EXPECT_DOUBLE_EQ(buckets[3], 0.2);
    double total = buckets[0] + buckets[1] + buckets[2] + buckets[3];
    EXPECT_DOUBLE_EQ(total, 1.0);
}

TEST(Statistics, FitLineRecoversSlope)
{
    std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
    std::vector<double> y = {2.5, 4.5, 6.5, 8.5}; // y = 2x + 0.5
    auto fit = fitLine(x, y);
    EXPECT_NEAR(fit.slope, 2.0, 1e-12);
    EXPECT_NEAR(fit.intercept, 0.5, 1e-12);
    EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Statistics, FitLineErrors)
{
    EXPECT_THROW(fitLine({1.0}, {1.0}), std::invalid_argument);
    EXPECT_THROW(fitLine({1.0, 1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Statistics, Accumulator)
{
    Accumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
    acc.add(2.0);
    acc.add(-1.0);
    acc.add(5.0);
    EXPECT_EQ(acc.count(), 3u);
    EXPECT_DOUBLE_EQ(acc.min(), -1.0);
    EXPECT_DOUBLE_EQ(acc.max(), 5.0);
    EXPECT_DOUBLE_EQ(acc.sum(), 6.0);
    EXPECT_DOUBLE_EQ(acc.mean(), 2.0);
}

} // namespace
} // namespace opdvfs::stats
