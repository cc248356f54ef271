#include "base/host_mem.hh"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace ctg
{

namespace
{

/** Every operator-new call so far — the gauge behind
 * heapAllocCount(). */
std::atomic<std::uint64_t> heapAllocs{0};

/** Count one allocation, then take it from malloc (or
 * posix_memalign when over-aligned). Null on failure; the throwing
 * variants turn that into std::bad_alloc. */
void *
countedAlloc(std::size_t size, std::size_t align)
{
    heapAllocs.fetch_add(1, std::memory_order_relaxed);
    if (align <= alignof(std::max_align_t))
        return std::malloc(size != 0 ? size : 1);
    void *ptr = nullptr;
    if (posix_memalign(&ptr, align < sizeof(void *) ? sizeof(void *)
                                                    : align,
                       size != 0 ? size : align) != 0)
        return nullptr;
    return ptr;
}

void *
countedAllocOrThrow(std::size_t size, std::size_t align)
{
    void *ptr = countedAlloc(size, align);
    if (ptr == nullptr)
        throw std::bad_alloc();
    return ptr;
}

} // namespace

std::uint64_t
peakRssBytes()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage ru = {};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
#if defined(__APPLE__)
    // macOS reports ru_maxrss in bytes.
    return static_cast<std::uint64_t>(ru.ru_maxrss);
#else
    // Linux reports ru_maxrss in KiB.
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
#endif
#else
    return 0;
#endif
}

std::uint64_t
heapAllocCount()
{
    return heapAllocs.load(std::memory_order_relaxed);
}

} // namespace ctg

// -------------------------------------------------------------------
// Global operator new/delete replacement. Linked program-wide through
// ctg_base (every binary's undefined `operator new` pulls this object
// in ahead of libstdc++'s definition), so every C++ allocation is
// counted. Both malloc and posix_memalign memory is released by free,
// so every delete variant is the same call. Sanitizer builds keep
// working: the allocations are ASan/TSan-intercepted malloc calls.
// -------------------------------------------------------------------

void *
operator new(std::size_t size)
{
    return ctg::countedAllocOrThrow(size, alignof(std::max_align_t));
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return ctg::countedAlloc(size, alignof(std::max_align_t));
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return ::operator new(size, std::nothrow);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return ctg::countedAllocOrThrow(size,
                                    static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return ::operator new(size, align);
}

void *
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    return ctg::countedAlloc(size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    return ::operator new(size, align, std::nothrow);
}

void
operator delete(void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, const std::nothrow_t &) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, const std::nothrow_t &) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::align_val_t,
                const std::nothrow_t &) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::align_val_t,
                  const std::nothrow_t &) noexcept
{
    std::free(ptr);
}
