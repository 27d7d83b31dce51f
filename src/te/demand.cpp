#include "te/demand.hpp"

#include <algorithm>
#include <span>

#include "common/logging.hpp"
#include "sim/snapshot.hpp"

namespace dhl {
namespace te {

DemandEstimator::DemandEstimator(const DemandConfig &cfg, std::size_t series)
    : cfg_(cfg), filled_(series, 0), next_(series, 0)
{
    fatal_if(cfg_.history < 1, "te: demand history must be >= 1");
    fatal_if(cfg_.multiplier <= 0.0, "te: demand multiplier must be > 0");
    history_.assign(series, std::vector<double>(cfg_.history, 0.0));
}

void DemandEstimator::record(std::size_t series, double usage)
{
    fatal_if(series >= history_.size(), "te: demand series out of range");
    fatal_if(usage < 0.0, "te: usage rate must be >= 0");
    auto &ring = history_[series];
    if (filled_[series] < cfg_.history) {
        ring[filled_[series]++] = usage;
    } else {
        ring[next_[series]] = usage;
        next_[series] = (next_[series] + 1) % cfg_.history;
    }
}

double DemandEstimator::estimate(std::size_t series) const
{
    fatal_if(series >= history_.size(), "te: demand series out of range");
    const auto &ring = history_[series];
    const auto filled = static_cast<std::ptrdiff_t>(filled_[series]);
    if (filled == 0)
        return 0.0;
    return cfg_.multiplier *
           *std::max_element(ring.begin(), ring.begin() + filled);
}

template <class Self, class Ar>
void DemandEstimator::visit(Self &self, Ar &ar)
{
    const std::size_t window = self.cfg_.history;
    ar.each("d", sim::indices(self.history_.size()), [&](std::size_t s) {
        ar.io("n", self.filled_[s]);
        ar.io("next", self.next_[s]);
        if constexpr (Ar::loading)
            fatal_if(self.filled_[s] > window || self.next_[s] >= window,
                     "te: snapshot history exceeds window");
        ar.each("h", std::span(self.history_[s].data(), self.filled_[s]));
    });
}

DHL_SNAPSHOT_VISIT(DemandEstimator);

} // namespace te
} // namespace dhl
