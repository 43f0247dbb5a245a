#include "common/random.h"

#include <algorithm>
#include <numeric>

namespace opdvfs {

std::size_t
Rng::weightedIndex(const std::vector<double> &weights)
{
    double total = std::accumulate(weights.begin(), weights.end(), 0.0);
    if (total <= 0.0)
        return index(weights.size());

    double r = uniform(0.0, total);
    double acc = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        acc += weights[i];
        if (r < acc)
            return i;
    }
    return weights.size() - 1;
}

void
RouletteWheel::reset(const std::vector<double> &weights)
{
    // The same running sum weightedIndex() accumulates, kept per index.
    prefix_.resize(weights.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        acc += weights[i];
        prefix_[i] = acc;
    }
}

std::size_t
RouletteWheel::draw(Rng &rng) const
{
    double total = prefix_.back();
    if (total <= 0.0)
        return rng.index(prefix_.size());

    // weightedIndex() returns the first i with r < acc_i: the first
    // prefix sum above r.
    double r = rng.uniform(0.0, total);
    auto it = std::upper_bound(prefix_.begin(), prefix_.end(), r);
    if (it == prefix_.end())
        return prefix_.size() - 1;
    return static_cast<std::size_t>(it - prefix_.begin());
}

} // namespace opdvfs
