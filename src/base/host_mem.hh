/**
 * @file
 * Host-process memory introspection for the scale benches: the
 * simulator's own footprint is a first-class result at fleet scale
 * (bytes/frame and peak RSS are what bound the population size one
 * box can hold).
 */

#ifndef CTG_BASE_HOST_MEM_HH
#define CTG_BASE_HOST_MEM_HH

#include <cstdint>

namespace ctg
{

/** Peak resident-set size of this process in bytes (getrusage
 * ru_maxrss), or 0 where the platform cannot report it. */
std::uint64_t peakRssBytes();

/** Host-heap allocations performed by this process so far: every
 * operator-new call, of any variant (host_mem.cc replaces the global
 * operator new/delete family to count them). Benchmarks read a delta
 * of this around a server's run to report host allocations per
 * simulated server. Monotonic, relaxed. */
std::uint64_t heapAllocCount();

} // namespace ctg

#endif // CTG_BASE_HOST_MEM_HH
