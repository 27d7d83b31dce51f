/**
 * @file
 * Implementation of the LRU cart cache.
 */

#include "dhl/placement.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "storage/cart_array.hpp"

namespace dhl {
namespace core {

void
validate(const PlacementConfig &cfg)
{
    fatal_if(cfg.cache_carts == 0, "the cache needs at least one cart");
    fatal_if(!(cfg.backing_read_bw > 0.0),
             "backing pool bandwidth must be positive");
}

CartCache::CartCache(const DhlConfig &dhl, const PlacementConfig &cfg)
    : dhl_(dhl), cfg_(cfg), model_(dhl)
{
    validate(cfg_);
}

bool
CartCache::resident(const std::string &dataset) const
{
    return entries_.count(dataset) != 0;
}

double
CartCache::hitRate() const
{
    if (accesses_ == 0)
        return 0.0;
    return static_cast<double>(hits_) / static_cast<double>(accesses_);
}

std::size_t
CartCache::makeRoom(std::size_t carts)
{
    std::size_t evicted = 0;
    while (occupied_ + carts > cfg_.cache_carts) {
        panic_if(lru_.empty(), "cache accounting out of sync");
        const std::string victim = lru_.back();
        lru_.pop_back();
        auto it = entries_.find(victim);
        panic_if(it == entries_.end(), "LRU entry without a record");
        occupied_ -= it->second.carts;
        entries_.erase(it);
        ++evicted;
    }
    return evicted;
}

PlacementAccess
CartCache::access(const std::string &dataset, double bytes)
{
    fatal_if(dataset.empty(), "a dataset needs a name");
    fatal_if(!(bytes > 0.0), "dataset size must be positive");

    const auto carts = static_cast<std::size_t>(
        std::ceil(bytes / dhl_.cartCapacity().value()));
    if (carts > cfg_.cache_carts) [[unlikely]]
        fatal("dataset '" + dataset + "' needs " + std::to_string(carts) +
              " carts but the cache holds only " +
              std::to_string(cfg_.cache_carts));

    ++accesses_;
    PlacementAccess out{};
    out.carts = carts;

    auto it = entries_.find(dataset);
    if (it != entries_.end()) {
        // Hit: refresh recency.  A size change re-fits the entry.
        ++hits_;
        out.hit = true;
        lru_.erase(it->second.lru_pos);
        lru_.push_front(dataset);
        it->second.lru_pos = lru_.begin();
        if (it->second.carts != carts) {
            const std::size_t old = it->second.carts;
            occupied_ -= old;
            out.evicted = makeRoom(carts);
            occupied_ += carts;
            it->second.carts = carts;
            it->second.bytes = bytes;
        }
    } else {
        // Miss: make room, load from the backing pool onto fresh
        // carts.  The load runs at the slower of the pool's read rate
        // and the carts' aggregate write rate.
        out.hit = false;
        out.evicted = makeRoom(carts);
        const storage::CartArray array(dhl_.ssd, dhl_.ssds_per_cart,
                                       dhl_.pcie);
        const double write_bw =
            array.writeBandwidth() * static_cast<double>(carts);
        const double load_bw = std::min(cfg_.backing_read_bw, write_bw);
        out.load_time = bytes / load_bw;
        total_load_time_ += out.load_time;

        lru_.push_front(dataset);
        entries_.emplace(dataset, Entry{bytes, carts, lru_.begin()});
        occupied_ += carts;
    }

    const auto bulk = model_.bulk(qty::Bytes{bytes});
    out.stage_time = bulk.total_time.value();
    out.dhl_energy = bulk.total_energy.value();
    out.total_time = out.load_time + out.stage_time;
    return out;
}

} // namespace core
} // namespace dhl
