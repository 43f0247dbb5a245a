/**
 * @file
 * The benchmark's one percentile helper.  Every timing goes through
 * nearestRank(); an end-to-end percentile is reported only when at
 * least kMinBeyond samples lie above it, and always with its sample
 * count.
 */

#ifndef OPDVFS_PERFBENCH_STATS_H
#define OPDVFS_PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/** Samples that must lie strictly above a reported percentile. */
inline constexpr std::size_t kMinBeyond = 10;

/** A nearest-rank percentile and the samples it came from. */
struct Quantile
{
    double value = 0.0;
    std::size_t samples = 0;
    /** Samples ranked above the percentile. */
    std::size_t beyond = 0;
};

/**
 * Nearest-rank percentile @p q in (0, 1] of @p values: the
 * ceil(q * n)-th smallest sample.  Empty when there are no samples or
 * fewer than @p min_beyond rank above it.
 */
inline std::optional<Quantile>
nearestRank(std::vector<double> values, double q,
            std::size_t min_beyond = kMinBeyond)
{
    const std::size_t n = values.size();
    if (n == 0)
        return std::nullopt;
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, n);
    if (n - rank < min_beyond)
        return std::nullopt;
    std::nth_element(values.begin(), values.begin() + (rank - 1),
                     values.end());
    return Quantile{values[rank - 1], n, n - rank};
}

/**
 * Median of a handful of summary values, such as the p50s of the
 * hit-storm latency windows, each of which nearestRank() already
 * vouched for.  0 when there are none.
 */
inline double
median(const std::vector<double> &values)
{
    auto q = nearestRank(values, 0.5, 0);
    return q ? q->value : 0.0;
}

inline double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

} // namespace perfbench

#endif // OPDVFS_PERFBENCH_STATS_H
