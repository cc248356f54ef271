#include "workloads/access_gen.hh"

namespace ctg
{

AccessProfile
makeAccessProfile(WorkloadKind kind)
{
    AccessProfile p;
    switch (kind) {
      case WorkloadKind::Web:
        // Huge bytecode/code footprint (instruction walks matter)
        // and a very large heap: the paper's flagship for 1 GB
        // pages.
        p.dataBytes = std::uint64_t{10} << 30;
        p.codeBytes = std::uint64_t{768} << 20;
        p.dataZipfTheta = 0.55;
        p.codeZipfTheta = 0.5;
        p.writeFrac = 0.3;
        break;
      case WorkloadKind::CacheA:
        p.dataBytes = std::uint64_t{12} << 30;
        p.codeBytes = std::uint64_t{64} << 20;
        p.dataZipfTheta = 0.6;
        p.codeZipfTheta = 0.75;
        p.writeFrac = 0.35;
        break;
      case WorkloadKind::CacheB:
        p.dataBytes = std::uint64_t{11} << 30;
        p.codeBytes = std::uint64_t{48} << 20;
        p.dataZipfTheta = 0.62;
        p.codeZipfTheta = 0.8;
        p.writeFrac = 0.4;
        break;
      case WorkloadKind::Memcached:
        p.dataBytes = std::uint64_t{6} << 30;
        p.codeBytes = std::uint64_t{16} << 20;
        p.dataZipfTheta = 0.6;
        p.codeZipfTheta = 0.85;
        p.writeFrac = 0.4;
        break;
      case WorkloadKind::Nginx:
        p.dataBytes = std::uint64_t{1} << 30;
        p.codeBytes = std::uint64_t{24} << 20;
        p.dataZipfTheta = 0.7;
        p.codeZipfTheta = 0.85;
        p.writeFrac = 0.3;
        break;
      case WorkloadKind::CI:
        p.dataBytes = std::uint64_t{4} << 30;
        p.codeBytes = std::uint64_t{512} << 20;
        p.dataZipfTheta = 0.6;
        p.codeZipfTheta = 0.6;
        p.writeFrac = 0.35;
        break;
      case WorkloadKind::Aging:
      case WorkloadKind::FsCacheHeavy:
      case WorkloadKind::UnmovableBursty:
        panic("no access profile for workload kind %s",
              workloadName(kind));
    }
    return p;
}

AccessProfile
makeAdsAccessProfile()
{
    AccessProfile p;
    p.dataBytes = std::uint64_t{14} << 30;
    p.codeBytes = std::uint64_t{384} << 20;
    p.dataZipfTheta = 0.5;
    p.codeZipfTheta = 0.55;
    p.writeFrac = 0.3;
    return p;
}

AccessStream::AccessStream(const AccessProfile &profile,
                           Addr data_base, Addr code_base,
                           std::uint64_t seed)
    : profile_(profile), dataBase_(data_base), codeBase_(code_base),
      rng_(seed)
{
    const std::uint64_t data_pages = profile_.dataBytes / pageBytes;
    const std::uint64_t code_pages = profile_.codeBytes / pageBytes;
    ctg_assert(data_pages > 0 && code_pages > 0);
    dataZipf_ =
        std::make_unique<Zipf>(data_pages, profile_.dataZipfTheta);
    codeZipf_ =
        std::make_unique<Zipf>(code_pages, profile_.codeZipfTheta);
}

Addr
AccessStream::nextData(bool *is_write)
{
    // Scramble the zipf rank so hot pages are spread over the
    // region rather than clustered at its start.
    std::uint64_t rank = dataZipf_->sample(rng_);
    std::uint64_t scrambled = rank * 0x9e3779b97f4a7c15ULL;
    const std::uint64_t page = scrambled % dataZipf_->items();
    if (is_write != nullptr)
        *is_write = rng_.chance(profile_.writeFrac);
    return dataBase_ + page * pageBytes +
           (rng_.below(pageBytes / lineBytes) * lineBytes);
}

Addr
AccessStream::nextCode()
{
    std::uint64_t rank = codeZipf_->sample(rng_);
    std::uint64_t scrambled = rank * 0x9e3779b97f4a7c15ULL;
    const std::uint64_t page = scrambled % codeZipf_->items();
    return codeBase_ + page * pageBytes +
           (rng_.below(pageBytes / lineBytes) * lineBytes);
}

} // namespace ctg
