#include "hw/cache.hh"

#include <algorithm>

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

CacheEntry *
CacheArray::lookup(Addr line_addr)
{
    const std::uint32_t key = lineKey(line_addr);
    CacheEntry *set = &entries_[setIndex(line_addr) * assoc_];
    for (unsigned way = 0; way < assoc_; ++way) {
        if (set[way].key == key) {
            set[way].lru = stamp();
            return &set[way];
        }
    }
    return nullptr;
}

const CacheEntry *
CacheArray::peek(Addr line_addr) const
{
    const std::uint32_t key = lineKey(line_addr);
    const CacheEntry *set = &entries_[setIndex(line_addr) * assoc_];
    for (unsigned way = 0; way < assoc_; ++way) {
        if (set[way].key == key)
            return &set[way];
    }
    return nullptr;
}

const CacheEntry &
CacheArray::victim(Addr line_addr) const
{
    const CacheEntry *set = &entries_[setIndex(line_addr) * assoc_];
    const CacheEntry *victim = &set[0];
    for (unsigned way = 0; way < assoc_; ++way) {
        if (!set[way].valid)
            return set[way];
        if (set[way].lru < victim->lru)
            victim = &set[way];
    }
    return *victim;
}

CacheEntry &
CacheArray::insert(Addr line_addr, CacheEntry *evicted)
{
    const std::uint32_t key = lineKey(line_addr);
    CacheEntry &slot = const_cast<CacheEntry &>(victim(line_addr));
    if (evicted != nullptr) {
        if (slot.valid)
            *evicted = slot;
        else
            evicted->valid = false;
    }
    slot = CacheEntry{};
    slot.valid = true;
    slot.key = key;
    slot.lru = stamp();
    return slot;
}

bool
CacheArray::invalidate(Addr line_addr)
{
    const std::uint32_t key = lineKey(line_addr);
    CacheEntry *set = &entries_[setIndex(line_addr) * assoc_];
    for (unsigned way = 0; way < assoc_; ++way) {
        if (set[way].key == key) {
            set[way] = CacheEntry{};
            return true;
        }
    }
    return false;
}

void
CacheArray::renormalizeLru()
{
    std::vector<CacheEntry *> ways;
    ways.reserve(assoc_);
    for (std::uint64_t s = 0; s < sets_; ++s) {
        ways.clear();
        for (unsigned way = 0; way < assoc_; ++way) {
            CacheEntry &entry = entries_[s * assoc_ + way];
            if (entry.valid)
                ways.push_back(&entry);
        }
        std::sort(ways.begin(), ways.end(),
                  [](const CacheEntry *a, const CacheEntry *b) {
                      return a->lru < b->lru;
                  });
        std::uint32_t rank = 0;
        for (CacheEntry *entry : ways)
            entry->lru = ++rank;
    }
    lruClock_ = assoc_;
}

} // namespace ctg
