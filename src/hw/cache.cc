#include "hw/cache.hh"

namespace ctg
{

CacheArray::CacheArray(std::uint64_t bytes, unsigned assoc)
    : assoc_(assoc)
{
    const std::uint64_t num_lines = bytes / lineBytes;
    ctg_assert(num_lines > 0 && assoc > 0);
    ctg_assert(num_lines % assoc == 0);
    sets_ = num_lines / assoc;
    // Power-of-two set counts only, for cheap indexing.
    ctg_assert((sets_ & (sets_ - 1)) == 0);
    entries_.resize(num_lines);
}

std::uint64_t
CacheArray::setIndex(Addr line_addr) const
{
    return (line_addr >> lineShift) & (sets_ - 1);
}

CacheEntry *
CacheArray::lookup(Addr line_addr)
{
    const std::uint64_t set = setIndex(line_addr);
    for (unsigned way = 0; way < assoc_; ++way) {
        CacheEntry &entry = entries_[set * assoc_ + way];
        if (entry.valid && entry.lineAddr == line_addr) {
            entry.lru = ++lruClock_;
            return &entry;
        }
    }
    return nullptr;
}

const CacheEntry *
CacheArray::peek(Addr line_addr) const
{
    const std::uint64_t set = setIndex(line_addr);
    for (unsigned way = 0; way < assoc_; ++way) {
        const CacheEntry &entry = entries_[set * assoc_ + way];
        if (entry.valid && entry.lineAddr == line_addr)
            return &entry;
    }
    return nullptr;
}

CacheEntry &
CacheArray::insert(Addr line_addr, CacheEntry *evicted)
{
    const std::uint64_t set = setIndex(line_addr);
    CacheEntry *victim = nullptr;
    for (unsigned way = 0; way < assoc_; ++way) {
        CacheEntry &entry = entries_[set * assoc_ + way];
        if (!entry.valid) {
            victim = &entry;
            break;
        }
        if (victim == nullptr || entry.lru < victim->lru)
            victim = &entry;
    }
    ctg_assert(victim != nullptr);
    if (evicted != nullptr) {
        if (victim->valid)
            *evicted = *victim;
        else
            evicted->valid = false;
    }
    *victim = CacheEntry{};
    victim->valid = true;
    victim->lineAddr = line_addr;
    victim->lru = ++lruClock_;
    return *victim;
}

bool
CacheArray::invalidate(Addr line_addr)
{
    const std::uint64_t set = setIndex(line_addr);
    for (unsigned way = 0; way < assoc_; ++way) {
        CacheEntry &entry = entries_[set * assoc_ + way];
        if (entry.valid && entry.lineAddr == line_addr) {
            entry = CacheEntry{};
            return true;
        }
    }
    return false;
}

} // namespace ctg
