#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace opdvfs {
namespace {

TEST(Rng, DeterministicBySeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.uniform(0, 1) == b.uniform(0, 1))
            ++equal;
    }
    EXPECT_LT(equal, 5);
}

TEST(Rng, UniformRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        double x = rng.uniform(2.5, 3.5);
        EXPECT_GE(x, 2.5);
        EXPECT_LT(x, 3.5);
    }
}

TEST(Rng, UniformIntInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = rng.uniformInt(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= v == 0;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, IndexCoversRange)
{
    Rng rng(11);
    std::vector<int> counts(5, 0);
    for (int i = 0; i < 5000; ++i)
        counts[rng.index(5)]++;
    for (int c : counts)
        EXPECT_GT(c, 700); // roughly uniform
}

TEST(Rng, NoiseFactorStaysPositive)
{
    Rng rng(13);
    for (int i = 0; i < 10000; ++i) {
        double f = rng.noiseFactor(0.5); // extreme sigma
        EXPECT_GT(f, 0.0);
    }
}

TEST(Rng, NoiseFactorCentredOnOne)
{
    Rng rng(17);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.noiseFactor(0.02);
    EXPECT_NEAR(sum / n, 1.0, 0.005);
}

TEST(Rng, WeightedIndexFollowsWeights)
{
    Rng rng(19);
    std::vector<double> weights = {1.0, 0.0, 3.0};
    std::vector<int> counts(3, 0);
    for (int i = 0; i < 8000; ++i)
        counts[rng.weightedIndex(weights)]++;
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
}

TEST(Rng, WeightedIndexAllZeroFallsBackToUniform)
{
    Rng rng(23);
    std::vector<double> weights = {0.0, 0.0, 0.0, 0.0};
    std::vector<int> counts(4, 0);
    for (int i = 0; i < 4000; ++i)
        counts[rng.weightedIndex(weights)]++;
    for (int c : counts)
        EXPECT_GT(c, 600);
}

TEST(RouletteWheel, DrawsTheSameIndicesAsWeightedIndex)
{
    // Two generators in lock-step: any difference in engine draws or
    // in the returned index shows up as a mismatch.
    Rng shape(29);
    for (int trial = 0; trial < 200; ++trial) {
        std::size_t n = 1 + shape.index(64);
        std::vector<double> weights(n);
        for (auto &w : weights) {
            // A third of the entries are zero; the rest span decades,
            // like GA scores.
            double decade = static_cast<double>(shape.index(6));
            w = shape.chance(1.0 / 3.0)
                ? 0.0
                : shape.uniform(0.0, 1.0) * std::pow(10.0, -decade);
        }
        if (trial % 10 == 0)
            std::fill(weights.begin(), weights.end(), 0.0);

        RouletteWheel wheel;
        wheel.reset(weights);
        std::uint64_t seed = 1000 + static_cast<std::uint64_t>(trial);
        Rng reference(seed), fast(seed);
        for (int draw = 0; draw < 50; ++draw) {
            ASSERT_EQ(wheel.draw(fast), reference.weightedIndex(weights))
                << "trial " << trial << " draw " << draw;
        }
        EXPECT_EQ(fast.engine()(), reference.engine()());
    }
}

TEST(RouletteWheel, ResetReplacesTheWeights)
{
    RouletteWheel wheel;
    wheel.reset({1.0, 1.0, 1.0});
    wheel.reset({0.0, 5.0});
    Rng rng(31);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(wheel.draw(rng), 1u);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(29);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(31);
    Rng child = a.fork();
    // The child must not replay the parent's stream.
    Rng reference(31);
    reference.fork();
    double parent_next = a.uniform(0, 1);
    double child_next = child.uniform(0, 1);
    EXPECT_NE(parent_next, child_next);
    // But forking is deterministic overall.
    Rng b(31);
    Rng child_b = b.fork();
    EXPECT_DOUBLE_EQ(child_b.uniform(0, 1), child_next);
}

} // namespace
} // namespace opdvfs
