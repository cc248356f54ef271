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
#include <span>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"

namespace ctg
{

/** Coherence state of a cached line. */
enum class CohState : std::uint8_t
{
    Invalid = 0,
    Shared,
    Exclusive,
    Modified,
};

/** One cache entry: 32 B, ordered widest field first so there is
 * no padding. `lru` stays 64-bit: a wrapping clock would change the
 * replacement order. */
struct CacheEntry
{
    Addr lineAddr = 0; //!< line-aligned byte address
    std::uint64_t value = 0;
    std::uint64_t lru = 0;
    /** Directory info (LLC only): which cores may hold the line — a
     * superset of the cores with a valid private copy. */
    std::uint32_t sharers = 0;
    /** Core holding the line Modified (always a sharer), or -1. */
    std::int16_t owner = -1;
    bool valid = false;
    CohState state = CohState::Invalid;
};

static_assert(sizeof(CacheEntry) == 32);

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

    /** Invalidate a line if present; true if it was. */
    bool invalidate(Addr line_addr);

    std::uint64_t lines() const { return entries_.size(); }
    std::uint64_t sets() const { return sets_; }

    /** Every way of every set, valid or not (invariant checks). */
    std::span<const CacheEntry> entries() const { return entries_; }

  private:
    std::uint64_t setIndex(Addr line_addr) const;

    std::vector<CacheEntry> entries_;
    std::uint64_t sets_;
    unsigned assoc_;
    std::uint64_t lruClock_ = 0;
};

} // namespace ctg

#endif // CTG_HW_CACHE_HH
