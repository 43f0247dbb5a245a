/**
 * @file
 * Descriptive statistics and error metrics used by the model-validation
 * benches (Fig. 15 CDFs, Table 2 error buckets) and by tests.
 */

#ifndef OPDVFS_COMMON_STATISTICS_H
#define OPDVFS_COMMON_STATISTICS_H

#include <cstddef>
#include <string>
#include <vector>

namespace opdvfs::stats {

/** Arithmetic mean; returns 0 for an empty input. */
double mean(const std::vector<double> &xs);

/** Population standard deviation; returns 0 for fewer than 2 samples. */
double stddev(const std::vector<double> &xs);

/**
 * Linear-interpolated quantile, q in [0, 1].  The input does not need
 * to be sorted.  Returns 0 for an empty input.
 */
double quantile(std::vector<double> xs, double q);

/**
 * Nearest-rank percentile, q in [0, 1]: the ceil(q * n)-th smallest
 * sample (the smallest for q = 0), so the result is always an
 * observed value and p95 of a small set is its largest sample, not
 * its median.  The input does not need to be sorted.  Returns 0 for
 * an empty input.
 */
double nearestRank(std::vector<double> xs, double q);

/** |predicted - actual| / |actual|; actual must be non-zero. */
double relativeError(double predicted, double actual);

/** Mean absolute percentage error over paired samples (as a fraction). */
double mape(const std::vector<double> &predicted,
            const std::vector<double> &actual);

/**
 * Empirical CDF evaluated at the given thresholds: fraction of samples
 * <= threshold, one output per threshold.
 */
std::vector<double> cdfAt(const std::vector<double> &samples,
                          const std::vector<double> &thresholds);

/**
 * Bucket fractions for Table-2 style reporting.  Edges define half-open
 * buckets (edge[i-1], edge[i]]; the first bucket is (0, edge[0]] and a
 * final bucket captures everything above the last edge.  Returns
 * edges.size() + 1 fractions that sum to 1 (for non-empty input).
 */
std::vector<double> bucketFractions(const std::vector<double> &samples,
                                    const std::vector<double> &edges);

/** Simple linear regression y = a*x + b; returns {a, b}. */
struct LinearFit
{
    double slope = 0.0;
    double intercept = 0.0;
    /** Coefficient of determination. */
    double r2 = 0.0;
};

/** Least-squares line through the points; needs >= 2 samples. */
LinearFit fitLine(const std::vector<double> &x, const std::vector<double> &y);

/** Running mean/min/max accumulator. */
class Accumulator
{
  public:
    void add(double x);

    double mean() const;
    double min() const { return min_; }
    double max() const { return max_; }
    double sum() const { return sum_; }
    std::size_t count() const { return count_; }

  private:
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    std::size_t count_ = 0;
};

} // namespace opdvfs::stats

#endif // OPDVFS_COMMON_STATISTICS_H
