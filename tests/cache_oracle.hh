/**
 * @file
 * Test oracle for CacheArray: the plain array-of-structs layout, a
 * 32 B entry holding the full 64-bit line address and a 64-bit LRU
 * clock that never wraps. The packed 24 B CacheArray must choose the
 * same hits and victims and keep the same values, whatever points
 * its 32-bit clock renormalizes at.
 */

#ifndef CTG_TESTS_CACHE_ORACLE_HH
#define CTG_TESTS_CACHE_ORACLE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"

namespace ctg
{

struct OracleCacheEntry
{
    Addr lineAddr = 0; //!< line-aligned byte address
    std::uint64_t value = 0;
    std::uint64_t lru = 0;
    bool valid = false;
};

static_assert(sizeof(OracleCacheEntry) == 32);

class OracleCacheArray
{
  public:
    OracleCacheArray(std::uint64_t bytes, unsigned assoc)
        : assoc_(assoc)
    {
        const std::uint64_t num_lines = bytes / lineBytes;
        ctg_assert(num_lines > 0 && num_lines % assoc == 0);
        sets_ = num_lines / assoc;
        ctg_assert((sets_ & (sets_ - 1)) == 0);
        entries_.resize(num_lines);
    }

    OracleCacheEntry *
    lookup(Addr line_addr)
    {
        OracleCacheEntry *entry = find(line_addr);
        if (entry != nullptr)
            entry->lru = ++lruClock_;
        return entry;
    }

    const OracleCacheEntry *
    peek(Addr line_addr)
    {
        return find(line_addr);
    }

    OracleCacheEntry &
    insert(Addr line_addr, OracleCacheEntry *evicted)
    {
        OracleCacheEntry *set = &entries_[setIndex(line_addr) * assoc_];
        OracleCacheEntry *victim = nullptr;
        for (unsigned way = 0; way < assoc_; ++way) {
            if (!set[way].valid) {
                victim = &set[way];
                break;
            }
            if (victim == nullptr || set[way].lru < victim->lru)
                victim = &set[way];
        }
        if (victim->valid)
            *evicted = *victim;
        else
            evicted->valid = false;
        *victim = OracleCacheEntry{};
        victim->valid = true;
        victim->lineAddr = line_addr;
        victim->lru = ++lruClock_;
        return *victim;
    }

    bool
    invalidate(Addr line_addr)
    {
        OracleCacheEntry *entry = find(line_addr);
        if (entry != nullptr)
            *entry = OracleCacheEntry{};
        return entry != nullptr;
    }

    std::span<const OracleCacheEntry> entries() const { return entries_; }

  private:
    std::uint64_t
    setIndex(Addr line_addr) const
    {
        return (line_addr >> lineShift) & (sets_ - 1);
    }

    OracleCacheEntry *
    find(Addr line_addr)
    {
        OracleCacheEntry *set = &entries_[setIndex(line_addr) * assoc_];
        for (unsigned way = 0; way < assoc_; ++way) {
            if (set[way].valid && set[way].lineAddr == line_addr)
                return &set[way];
        }
        return nullptr;
    }

    std::vector<OracleCacheEntry> entries_;
    std::uint64_t sets_;
    unsigned assoc_;
    std::uint64_t lruClock_ = 0;
};

} // namespace ctg

#endif // CTG_TESTS_CACHE_ORACLE_HH
