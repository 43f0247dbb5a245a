#include "common/statistics.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace opdvfs::stats {

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    return std::accumulate(xs.begin(), xs.end(), 0.0)
        / static_cast<double>(xs.size());
}

double
stddev(const std::vector<double> &xs)
{
    if (xs.size() < 2)
        return 0.0;
    double m = mean(xs);
    double ss = 0.0;
    for (double x : xs)
        ss += (x - m) * (x - m);
    return std::sqrt(ss / static_cast<double>(xs.size()));
}

double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    std::sort(xs.begin(), xs.end());
    double pos = q * static_cast<double>(xs.size() - 1);
    auto lo = static_cast<std::size_t>(pos);
    auto hi = std::min(lo + 1, xs.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double
nearestRank(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    const std::size_t n = xs.size();
    // The epsilon keeps q * n that lands on an integer (0.95 * 20)
    // from rounding up past it.
    auto rank = static_cast<std::size_t>(std::ceil(
        std::clamp(q, 0.0, 1.0) * static_cast<double>(n) - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, n);
    std::nth_element(xs.begin(), xs.begin() + (rank - 1), xs.end());
    return xs[rank - 1];
}

double
relativeError(double predicted, double actual)
{
    if (actual == 0.0)
        throw std::invalid_argument("relativeError: actual value is zero");
    return std::abs(predicted - actual) / std::abs(actual);
}

double
mape(const std::vector<double> &predicted, const std::vector<double> &actual)
{
    if (predicted.size() != actual.size())
        throw std::invalid_argument("mape: size mismatch");
    if (predicted.empty())
        return 0.0;
    double total = 0.0;
    for (std::size_t i = 0; i < predicted.size(); ++i)
        total += relativeError(predicted[i], actual[i]);
    return total / static_cast<double>(predicted.size());
}

std::vector<double>
cdfAt(const std::vector<double> &samples, const std::vector<double> &thresholds)
{
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    std::vector<double> out;
    out.reserve(thresholds.size());
    for (double t : thresholds) {
        auto it = std::upper_bound(sorted.begin(), sorted.end(), t);
        double frac = sorted.empty()
            ? 0.0
            : static_cast<double>(it - sorted.begin())
                / static_cast<double>(sorted.size());
        out.push_back(frac);
    }
    return out;
}

std::vector<double>
bucketFractions(const std::vector<double> &samples,
                const std::vector<double> &edges)
{
    std::vector<double> counts(edges.size() + 1, 0.0);
    for (double s : samples) {
        std::size_t bucket = edges.size();
        for (std::size_t i = 0; i < edges.size(); ++i) {
            if (s <= edges[i]) {
                bucket = i;
                break;
            }
        }
        counts[bucket] += 1.0;
    }
    if (!samples.empty()) {
        for (double &c : counts)
            c /= static_cast<double>(samples.size());
    }
    return counts;
}

LinearFit
fitLine(const std::vector<double> &x, const std::vector<double> &y)
{
    if (x.size() != y.size() || x.size() < 2)
        throw std::invalid_argument("fitLine: need >= 2 paired samples");

    double n = static_cast<double>(x.size());
    double sx = std::accumulate(x.begin(), x.end(), 0.0);
    double sy = std::accumulate(y.begin(), y.end(), 0.0);
    double sxx = 0.0, sxy = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        sxx += x[i] * x[i];
        sxy += x[i] * y[i];
        syy += y[i] * y[i];
    }

    double denom = n * sxx - sx * sx;
    if (denom == 0.0)
        throw std::invalid_argument("fitLine: degenerate x values");

    LinearFit fit;
    fit.slope = (n * sxy - sx * sy) / denom;
    fit.intercept = (sy - fit.slope * sx) / n;

    double ss_tot = syy - sy * sy / n;
    double ss_res = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        double r = y[i] - (fit.slope * x[i] + fit.intercept);
        ss_res += r * r;
    }
    fit.r2 = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
    return fit;
}

void
Accumulator::add(double x)
{
    if (count_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    sum_ += x;
    ++count_;
}

double
Accumulator::mean() const
{
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

} // namespace opdvfs::stats
