/**
 * @file
 * Process address spaces: anonymous mmap regions, demand faulting
 * with a THP policy (2 MB attempt on aligned chunks), HugeTLB 1 GB
 * reservation, and migration support (the address space is a
 * PageOwnerClient whose pages compaction and Contiguitas can move).
 */

#ifndef CTG_KERNEL_ADDRSPACE_HH
#define CTG_KERNEL_ADDRSPACE_HH

#include <cstdint>
#include <map>
#include <vector>

#include "base/rng.hh"
#include "base/types.hh"
#include "kernel/kernel.hh"
#include "kernel/pagetable.hh"

namespace ctg
{

namespace serde
{
class Writer;
class Reader;
} // namespace serde

/**
 * Mapped-chunk table: the chunk heads (vpn and order) in a dense slot
 * array, with O(1) append, O(1) swap-remove by slot and O(1) uniform
 * random sampling. The churn paths used to sample unordered_map
 * buckets, which made RNG-visible behavior depend on the standard
 * library's internal bucket layout, state that cannot be serialized.
 * Here the only structure the RNG ever sees is the slot array, a
 * pure function of the operation history and what a snapshot saves.
 *
 * The table keeps no vpn index. AddressSpace stores each chunk's
 * slot in the software field of its leaf page-table entry
 * (PageTables::map's tag), reads it back from the translation when
 * the chunk goes, and re-tags the chunk that eraseAt moves through
 * the page table holding its leaf, kept in its entry.
 */
class ChunkTable
{
  public:
    struct Entry
    {
        Vpn vpn;
        /** The table holding the chunk's leaf (host state, not
         * serialized). */
        PageTables::Table *table;

        /** 0, hugeOrder or gigaOrder: implied by the leaf's table. */
        unsigned order() const { return PageTables::leafOrder(*table); }
    };

    bool
    empty() const
    {
        return slots_.empty();
    }

    std::size_t
    size() const
    {
        return slots_.size();
    }

    const Entry &
    at(std::size_t i) const
    {
        return slots_[i];
    }

    /** Append a chunk whose leaf is in table; returns its slot. */
    std::uint32_t
    insert(Vpn vpn, PageTables::Table &table)
    {
        slots_.push_back(Entry{vpn, &table});
        return static_cast<std::uint32_t>(slots_.size() - 1);
    }

    /** Remove the chunk at slot: the last chunk moves into it,
     * unless slot was the last. */
    void
    eraseAt(std::uint32_t slot)
    {
        ctg_assert(slot < slots_.size());
        slots_[slot] = slots_.back();
        slots_.pop_back();
    }

    /** The dense slot array; each vpn and order is serialized
     * verbatim. */
    const std::vector<Entry> &entries() const { return slots_; }

  private:
    std::vector<Entry> slots_;
};

/**
 * One process's virtual address space.
 */
class AddressSpace : public PageOwnerClient
{
  public:
    AddressSpace(Kernel &kernel, std::uint32_t pid);

    /** Checkpoint restore: re-attach at the serialized client id
     * (owner handles baked into frames must keep resolving to this
     * object) and adopt the serialized tables/regions/chunk state
     * without allocating. */
    AddressSpace(Kernel &kernel, serde::Reader &in);

    ~AddressSpace() override;

    AddressSpace(const AddressSpace &) = delete;
    AddressSpace &operator=(const AddressSpace &) = delete;

    /**
     * Reserve a virtual region of the given size (rounded up to
     * whole pages; bases are 1 GB aligned so gigantic mappings are
     * possible). Nothing is backed until touched.
     * @return the base virtual address.
     */
    Addr mmap(std::uint64_t bytes);

    /** Unmap a region and free all its backing memory. */
    void munmap(Addr base);

    /**
     * Fault-in every page of [addr, addr+bytes) within a region.
     * Aligned 2 MB chunks try a THP allocation first when the kernel
     * has THP enabled; failures fall back to 4 KB pages.
     * @return number of 4 KB pages newly backed.
     */
    std::uint64_t touchRange(Addr addr, std::uint64_t bytes);

    /**
     * Try to back [addr, addr+1GB) with one gigantic page (HugeTLB
     * dynamic allocation path). The range must be untouched.
     * @return true on success.
     */
    bool backWithGigantic(Addr addr);

    /** Release backing of random mapped chunks totalling roughly the
     * given number of pages (workload churn). Returns pages freed. */
    std::uint64_t releasePages(std::uint64_t pages, Rng &rng);

    /** Like releasePages but restricted to [base, base+bytes): punch
     * random holes into one heap segment. */
    std::uint64_t releaseRange(Addr base, std::uint64_t bytes,
                               std::uint64_t pages, Rng &rng);

    /**
     * khugepaged analogue: collapse up to `budget` fully-4K-backed
     * aligned 2 MB ranges into huge mappings. Each collapse
     * allocates a fresh huge page, migrates the 512 base pages into
     * it and installs a PMD leaf. Pinned pages block a collapse.
     * @return ranges promoted.
     */
    std::uint64_t promoteHugeRanges(std::uint64_t budget);

    /** Translate a virtual address. */
    Translation translate(Addr vaddr) const;

    /** PageOwnerClient: repoint vpn (tag) to a new frame. */
    bool relocate(std::uint64_t tag, Pfn old_head,
                  Pfn new_head) override;

    PageTables &pageTables() { return tables_; }
    const PageTables &pageTables() const { return tables_; }

    /** Mapped chunk heads, in the slot order churn samples from. */
    const ChunkTable &chunks() const { return chunks_; }

    /** @{ Backing-page statistics by mapping size. */
    std::uint64_t pages4k() const { return pages4k_; }
    std::uint64_t chunks2m() const { return chunks2m_; }
    std::uint64_t chunks1g() const { return chunks1g_; }
    /** Total backed 4 KB page equivalents. */
    std::uint64_t backedPages() const;
    /** @} */

    std::uint32_t pid() const { return pid_; }

    /** Pick a random mapped 4 KB-backed frame (for pinning tests);
     * invalidPfn if none. */
    Pfn randomBacked4kFrame(Rng &rng) const;

    /** Serialize the full address-space state (checkpoint). */
    void saveTo(serde::Writer &out) const;

  private:
    struct Region
    {
        Vpn baseVpn;
        std::uint64_t pages;
    };

    /** Slot, and so leaf tag, of the next chunk inserted. */
    std::uint32_t
    nextSlot() const
    {
        return static_cast<std::uint32_t>(chunks_.size());
    }

    /** The request backing the chunk of the given order at vpn (a
     * run's first page). */
    AllocRequest userRequest(Vpn vpn, unsigned order) const;

    /** Back one aligned chunk with a fresh allocation.
     * @return the table holding its leaf, nullptr on failure. */
    PageTables::Table *backChunk(Vpn vpn, unsigned order);

    /** Back the unmapped 4 KB pages [lo, hi) of the PTE table table
     * with one Kernel::allocRun, as backChunk of each in vpn order
     * would. @return the pages backed. */
    std::uint64_t backRun(PageTables::Table &table, Vpn lo, Vpn hi);

    /** Unmap the chunk at vpn and free its frames. */
    void unbackChunk(Vpn vpn, unsigned order);

    /** Forget a chunk whose leaf was just removed (its frames are
     * the caller's to free): its slot is the leaf's tag. */
    void forgetChunk(Vpn vpn, const Translation &tr);

    Kernel &kernel_;
    std::uint32_t pid_;
    std::uint16_t clientId_;
    PageTables tables_;
    std::map<Vpn, Region> regions_;
    /** Mapped chunk heads and orders (0, 9 or 18); each leaf's tag
     * is its chunk's slot here. */
    ChunkTable chunks_;
    Vpn nextBaseVpn_ = Vpn{1} << gigaOrder; // skip the zero GB
    std::uint64_t pages4k_ = 0;
    std::uint64_t chunks2m_ = 0;
    std::uint64_t chunks1g_ = 0;
};

} // namespace ctg

#endif // CTG_KERNEL_ADDRSPACE_HH
