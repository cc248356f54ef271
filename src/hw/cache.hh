/**
 * @file
 * Generic set-associative cache array with LRU replacement.
 *
 * The array stores 64 B line entries keyed by line address. Each
 * entry carries a MESI-style coherence state, a functional data
 * value (one 64-bit token standing in for the line's contents — the
 * migration property tests check these tokens for linearizability),
 * and, for LLC/directory use, a sharer bitmap and owner.
 */

#ifndef CTG_HW_CACHE_HH
#define CTG_HW_CACHE_HH

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"

namespace ctg
{

/**
 * The 32-bit key of a line: its index + 1, so 0 can mark an empty
 * slot. Cache tags and main memory share it. Panics past 256 GiB,
 * where index + 1 no longer fits.
 */
inline std::uint32_t
lineKey(Addr line_addr)
{
    const Addr index = line_addr >> lineShift;
    if (index >= std::numeric_limits<std::uint32_t>::max())
        panic("line %#llx is past the 256 GiB line-key range",
              static_cast<unsigned long long>(line_addr));
    return static_cast<std::uint32_t>(index + 1);
}

/** Coherence state of a cached line. */
enum class CohState : std::uint8_t
{
    Invalid = 0,
    Shared,
    Exclusive,
    Modified,
};

/** One cache entry: 24 B with no padding, so a 16-way set is 384 B
 * (six host lines) where 32 B entries took 512. An entry is valid
 * exactly when its key is nonzero. */
struct CacheEntry
{
    std::uint32_t key = 0; //!< lineKey() of the line, 0 when empty
    /** Recency stamp; only its order within one set matters. */
    std::uint32_t lru = 0;
    std::uint64_t value = 0;
    /** Directory info (LLC only): which cores may hold the line — a
     * superset of the cores with a valid private copy. */
    std::uint32_t sharers = 0;
    /** Core holding the line Modified (always a sharer), or -1. */
    std::int8_t owner = -1;
    bool valid = false;
    CohState state = CohState::Invalid;
    /** L2 only: the way of the line's entry in its home LLC slice.
     * Inclusion keeps that entry in place while this one is valid. */
    std::uint8_t dirWay = 0;

    /** Line-aligned byte address of a valid entry. */
    Addr lineAddr() const { return Addr{key - 1} << lineShift; }
};

static_assert(sizeof(CacheEntry) == 24);

/**
 * Set-associative tag/data array.
 */
class CacheArray
{
  public:
    /**
     * @param bytes total capacity
     * @param assoc ways per set (assoc == lines -> fully associative)
     */
    CacheArray(std::uint64_t bytes, unsigned assoc);

    /** Find the entry for a line; nullptr on miss. Touches LRU. */
    CacheEntry *lookup(Addr line_addr);

    /** Find without updating recency. */
    const CacheEntry *peek(Addr line_addr) const;

    /**
     * Insert a line, evicting the set's LRU victim if needed.
     * @param evicted receives a copy of the displaced valid entry
     * @return reference to the inserted entry
     */
    CacheEntry &insert(Addr line_addr, CacheEntry *evicted);

    /** The entry insert(line_addr) would fill now: the set's first
     * invalid way, else its least recently used one. */
    const CacheEntry &victim(Addr line_addr) const;

    /** Invalidate a line if present; true if it was. */
    bool invalidate(Addr line_addr);

    /** The entry at one way of a line's set, valid or not. */
    CacheEntry &
    at(Addr line_addr, unsigned way)
    {
        return entries_[setIndex(line_addr) * assoc_ + way];
    }

    /** Start loading the host lines (one or two) of the entry at
     * one way of a line's set. */
    void
    prefetch(Addr line_addr, unsigned way) const
    {
        const CacheEntry *entry =
            &entries_[setIndex(line_addr) * assoc_ + way];
        __builtin_prefetch(entry);
        __builtin_prefetch(&entry->owner);
    }

    /** The way an entry of this array sits in. */
    unsigned
    wayOf(const CacheEntry &entry) const
    {
        return static_cast<unsigned>(&entry - entries_.data()) %
               assoc_;
    }

    /**
     * Restamp every set's valid ways 1..n in their LRU order and
     * restart the clock at the associativity. Victims compare stamps
     * within one set only, so replacement is unchanged; insert and
     * lookup call this when the 32-bit clock would wrap.
     */
    void renormalizeLru();

    std::uint64_t lines() const { return entries_.size(); }
    std::uint64_t sets() const { return sets_; }

    /** Every way of every set, valid or not (invariant checks). */
    std::span<const CacheEntry> entries() const { return entries_; }

  private:
    std::uint64_t
    setIndex(Addr line_addr) const
    {
        return (line_addr >> lineShift) & (sets_ - 1);
    }

    /** The next recency stamp. */
    std::uint32_t
    stamp()
    {
        if (lruClock_ == std::numeric_limits<std::uint32_t>::max())
            [[unlikely]] renormalizeLru();
        return ++lruClock_;
    }

    std::vector<CacheEntry> entries_;
    std::uint64_t sets_;
    unsigned assoc_;
    std::uint32_t lruClock_ = 0;
};

} // namespace ctg

#endif // CTG_HW_CACHE_HH
