/**
 * @file
 * Sparse allocation-era metadata: an open-addressing hash table
 * keyed by allocation-head PFN.
 *
 * The struct-of-arrays frame table (mem/frame.hh) keeps only the hot
 * per-frame bits inline and overlays the owner handle onto the dead
 * free-list link slots of allocated heads; the one cold field left —
 * the allocation timestamp — lives here, one 8-byte entry per
 * *allocated block head with a nonzero timestamp*. Free frames have
 * no entry (PR 5 established their allocation-era fields are dead),
 * and blocks allocated at second 0 are kept out of the table
 * entirely — a missing entry reads back as 0, exactly what the old
 * array-of-structs layout stored.
 *
 * The table is a bespoke linear-probing map rather than
 * std::unordered_map because the per-entry cost is the whole point:
 * a node-based map spends ~6x the 8 bytes an Entry needs, which
 * would hand back most of the diet on order-0-heavy workloads. It
 * runs denser than a general-purpose table (grow at 13/16 load) and
 * shrinks when erases empty it out, since the 4K-dense fleet servers
 * this exists for live near the high-water mark. The owner may set
 * a floor: the first allocation takes that many slots and shrinking
 * stops there, so a server that fills and drains its table skips
 * the rehashes through the small sizes. Slots are still allocated
 * only with the first entry. Deletion uses
 * backward-shift (no tombstones), so lookup cost never degrades over
 * a server's lifetime. Iteration order is never exposed —
 * serialization sorts by key — so the table contributes no
 * nondeterminism to snapshots or stats.
 */

#ifndef CTG_MEM_SIDE_TABLE_HH
#define CTG_MEM_SIDE_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "base/logging.hh"

namespace ctg
{

/** Open-addressing map: head PFN -> allocation second. */
class AllocSideTable
{
  public:
    struct Entry
    {
        std::uint32_t key = emptyKey;
        std::uint32_t second = 0;
    };
    static_assert(sizeof(Entry) == 8);

    /** Never a valid PFN (FrameArray caps size below this). */
    static constexpr std::uint32_t emptyKey = 0xffffffffu;

    AllocSideTable() = default;

    /** A table that never holds fewer than min_slots slots (rounded
     * up to a power of two) once it holds any. */
    explicit AllocSideTable(std::uint64_t min_slots)
    {
        while (minCapacity_ < min_slots)
            minCapacity_ *= 2;
    }

    /** Insert or overwrite. Storing second 0 is the same as erasing:
     * absent entries read as zero. */
    void
    set(std::uint32_t key, std::uint32_t second)
    {
        ctg_assert(key != emptyKey);
        if (second == 0) {
            erase(key);
            return;
        }
        if ((size_ + 1) * 16 > capacity() * std::uint64_t{13})
            rehash(std::max<std::size_t>(minCapacity_, capacity() * 2));
        const std::uint32_t mask = capacity() - 1;
        std::uint32_t i = indexFor(key);
        while (slots_[i].key != emptyKey) {
            if (slots_[i].key == key) {
                slots_[i].second = second;
                return;
            }
            i = (i + 1) & mask;
        }
        slots_[i] = Entry{key, second};
        ++size_;
    }

    /** Allocation second for a head PFN; 0 when absent. */
    std::uint32_t
    secondFor(std::uint32_t key) const
    {
        if (size_ == 0)
            return 0;
        const std::uint32_t mask = capacity() - 1;
        std::uint32_t i = indexFor(key);
        while (slots_[i].key != emptyKey) {
            if (slots_[i].key == key)
                return slots_[i].second;
            i = (i + 1) & mask;
        }
        return 0;
    }

    /** Remove by backward-shifting the probe chain (no tombstones). */
    bool
    erase(std::uint32_t key)
    {
        if (size_ == 0)
            return false;
        const std::uint32_t mask = capacity() - 1;
        std::uint32_t i = indexFor(key);
        while (true) {
            if (slots_[i].key == emptyKey)
                return false;
            if (slots_[i].key == key)
                break;
            i = (i + 1) & mask;
        }
        // An entry at s can fill the hole at j iff j lies on its
        // probe path, i.e. the displacement of s from its ideal slot
        // covers the distance from j to s.
        std::uint32_t j = i;
        std::uint32_t s = i;
        while (true) {
            s = (s + 1) & mask;
            if (slots_[s].key == emptyKey)
                break;
            const std::uint32_t ideal = indexFor(slots_[s].key);
            if (((s - ideal) & mask) >= ((s - j) & mask)) {
                slots_[j] = slots_[s];
                j = s;
            }
        }
        slots_[j] = Entry{};
        --size_;
        // Fleet servers are measured by their end-of-run footprint;
        // give churn-heavy phases their memory back once the table
        // drops well below the grow threshold (wide hysteresis, so
        // alloc/free cycling cannot thrash rehashes).
        if (capacity() > minCapacity_ && size_ * 8 < capacity())
            rehash(capacity() / 2);
        return true;
    }

    std::uint64_t size() const { return size_; }

    /** Heap bytes held (the footprint the diet accounts for). */
    std::uint64_t
    bytes() const
    {
        return static_cast<std::uint64_t>(slots_.capacity()) *
               sizeof(Entry);
    }

    void
    clear()
    {
        slots_.clear();
        slots_.shrink_to_fit();
        size_ = 0;
    }

    /** Entries sorted by key — the canonical (deterministic) order
     * used by serialization. */
    std::vector<Entry>
    sortedEntries() const
    {
        std::vector<Entry> out;
        out.reserve(size_);
        for (const Entry &e : slots_) {
            if (e.key != emptyKey)
                out.push_back(e);
        }
        std::sort(out.begin(), out.end(),
                  [](const Entry &a, const Entry &b) {
                      return a.key < b.key;
                  });
        return out;
    }

  private:
    std::uint32_t
    capacity() const
    {
        return static_cast<std::uint32_t>(slots_.size());
    }

    std::uint32_t
    indexFor(std::uint32_t key) const
    {
        // Fibonacci hashing spreads the sequential PFN keys the
        // allocator produces; power-of-two capacity keeps the probe
        // arithmetic mask-only.
        return (key * 0x9e3779b1u) & (capacity() - 1);
    }

    void
    rehash(std::size_t cap)
    {
        std::vector<Entry> old = std::move(slots_);
        slots_.assign(cap, Entry{});
        size_ = 0;
        for (const Entry &e : old) {
            if (e.key != emptyKey)
                set(e.key, e.second);
        }
    }

    std::vector<Entry> slots_;
    std::uint64_t size_ = 0;
    /** Power of two; the first allocation and the shrink floor. */
    std::uint32_t minCapacity_ = 16;
};

} // namespace ctg

#endif // CTG_MEM_SIDE_TABLE_HH
