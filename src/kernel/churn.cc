#include "kernel/churn.hh"

#include <algorithm>
#include <cmath>

#include "base/serde.hh"

namespace ctg
{

namespace
{

/** Shared config normalization of both constructors. */
double
normalizeConfig(ChurnPool::Config &config)
{
    ctg_assert(config.ratePerSec > 0);
    ctg_assert(!config.orderDist.empty());
    // Lognormal modulation inflates the mean arrival rate by
    // exp(sigma^2/2); normalize so configured rates stay the mean.
    if (config.burstSigma > 0.0) {
        config.ratePerSec /=
            std::exp(config.burstSigma * config.burstSigma / 2.0);
    }
    double weight_total = 0.0;
    for (const auto &[order, weight] : config.orderDist) {
        ctg_assert(order <= maxOrder);
        weight_total += weight;
    }
    return weight_total;
}

} // namespace

ChurnPool::ChurnPool(Kernel &kernel, Config config, std::uint64_t seed)
    : kernel_(kernel), config_(std::move(config)), rng_(seed)
{
    orderWeightTotal_ = normalizeConfig(config_);
    if (config_.relocatable)
        clientId_ = kernel_.owners().registerClient(this);
    nextArrival_ = rng_.exponential(1.0 / config_.ratePerSec);
}

ChurnPool::ChurnPool(Kernel &kernel, Config config, serde::Reader &in)
    : kernel_(kernel), config_(std::move(config))
{
    orderWeightTotal_ = normalizeConfig(config_);

    clientId_ = in.getU16();
    if (config_.relocatable != (clientId_ != 0))
        throw serde::Error("churn pool: relocatable/client mismatch");
    if (clientId_ != 0)
        kernel_.owners().attachClientAt(clientId_, this);

    rng_.setRawState(in.getRngState());
    nowSec_ = in.getDouble();
    nextArrival_ = in.getDouble();
    burstFactor_ = in.getDouble();
    nextBurstChange_ = in.getDouble();

    const std::uint64_t frames = kernel_.mem().numFrames();
    const std::uint64_t slot_count = in.getU64();
    if (slot_count > frames)
        throw serde::Error("churn pool: slot count exceeds memory");
    slots_.reserve(slot_count);
    std::uint64_t live_pages = 0;
    for (std::uint64_t i = 0; i < slot_count; ++i) {
        Slot slot;
        slot.head = in.getU64();
        slot.order = in.getU32();
        if (slot.order > maxOrder ||
            (slot.head != invalidPfn && slot.head >= frames))
            throw serde::Error("churn pool: bad slot");
        if (slot.head != invalidPfn)
            live_pages += Pfn{1} << slot.order;
        slots_.push_back(slot);
    }

    freeSlots_ = in.getPodVector<std::uint32_t>();
    for (const std::uint32_t slot : freeSlots_) {
        if (slot >= slots_.size() ||
            slots_[slot].head != invalidPfn)
            throw serde::Error("churn pool: bad free-slot entry");
    }

    // The live heap is restored verbatim (the pop order of
    // equal-death entries is observable state); entries must tile the
    // occupied slots exactly.
    const std::uint64_t live_count = in.getU64();
    if (live_count != slots_.size() - freeSlots_.size())
        throw serde::Error("churn pool: live count mismatch");
    std::vector<Obj> &heap = serde::heapOf(live_);
    heap.reserve(live_count);
    for (std::uint64_t i = 0; i < live_count; ++i) {
        Obj obj;
        obj.death = in.getDouble();
        obj.slot = in.getU32();
        if (obj.slot >= slots_.size() ||
            slots_[obj.slot].head == invalidPfn)
            throw serde::Error("churn pool: bad live entry");
        heap.push_back(obj);
    }
    if (!std::is_heap(heap.begin(), heap.end(), std::greater<>()))
        throw serde::Error("churn pool: live heap order violated");

    livePages_ = in.getU64();
    if (livePages_ != live_pages)
        throw serde::Error("churn pool: live-page count mismatch");
    failedAllocs_ = in.getU64();
    paused_ = in.getBool();
}

void
ChurnPool::saveTo(serde::Writer &out) const
{
    out.putU16(clientId_);
    out.putRngState(rng_.rawState());
    out.putDouble(nowSec_);
    out.putDouble(nextArrival_);
    out.putDouble(burstFactor_);
    out.putDouble(nextBurstChange_);
    out.putU64(slots_.size());
    for (const Slot &slot : slots_) {
        out.putU64(slot.head);
        out.putU32(slot.order);
    }
    out.putPodVector(freeSlots_);
    const std::vector<Obj> &heap = serde::heapOf(live_);
    out.putU64(heap.size());
    for (const Obj &obj : heap) {
        out.putDouble(obj.death);
        out.putU32(obj.slot);
    }
    out.putU64(livePages_);
    out.putU64(failedAllocs_);
    out.putBool(paused_);
}

ChurnPool::~ChurnPool()
{
    if (!kernel_.tearingDown())
        drain();
    if (clientId_ != 0)
        kernel_.owners().unregisterClient(clientId_);
}

unsigned
ChurnPool::sampleOrder()
{
    double pick = rng_.uniform() * orderWeightTotal_;
    for (const auto &[order, weight] : config_.orderDist) {
        if (pick < weight)
            return order;
        pick -= weight;
    }
    return config_.orderDist.back().first;
}

std::uint32_t
ChurnPool::acquireSlot()
{
    if (!freeSlots_.empty()) {
        const std::uint32_t slot = freeSlots_.back();
        freeSlots_.pop_back();
        return slot;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
}

bool
ChurnPool::relocate(std::uint64_t tag, Pfn old_head, Pfn new_head)
{
    const auto slot = static_cast<std::size_t>(tag);
    if (slot >= slots_.size() || slots_[slot].head != old_head)
        return false;
    slots_[slot].head = new_head;
    return true;
}

void
ChurnPool::advanceTo(double now_sec)
{
    ctg_assert(now_sec >= nowSec_);

    while (true) {
        // Interleave deaths and arrivals in time order so the live
        // set stays faithful to the queueing process.
        const double next_death =
            live_.empty() ? 1e300 : live_.top().death;
        const double next_arrival =
            paused_ ? 1e300 : nextArrival_;
        const double next_event =
            std::min(next_death, next_arrival);
        if (next_event > now_sec)
            break;

        // Resample the burst factor when its period elapses.
        if (config_.burstSigma > 0.0 &&
            next_event >= nextBurstChange_) {
            burstFactor_ = std::exp(
                rng_.gaussian(0.0, config_.burstSigma));
            burstFactor_ = std::clamp(burstFactor_, 0.1, 6.0);
            nextBurstChange_ =
                next_event +
                rng_.exponential(config_.burstPeriodSec);
        }

        if (next_death <= next_arrival) {
            const std::uint32_t slot = live_.top().slot;
            live_.pop();
            Slot &record = slots_[slot];
            ctg_assert(record.head != invalidPfn);
            kernel_.freePages(record.head);
            livePages_ -= Pfn{1} << record.order;
            record.head = invalidPfn;
            freeSlots_.push_back(slot);
        } else {
            const unsigned order = sampleOrder();
            AllocRequest req;
            req.order = order;
            req.mt = config_.mt;
            req.source = config_.source;
            req.lifetime = config_.lifetime;
            const std::uint32_t slot = acquireSlot();
            if (clientId_ != 0) {
                req.owner =
                    OwnerRegistry::makeOwner(clientId_, slot);
            }
            const Pfn head = kernel_.allocPages(req);
            if (head == invalidPfn) {
                ++failedAllocs_;
                freeSlots_.push_back(slot);
            } else {
                if (clientId_ != 0) {
                    // IO buffers are busy for DMA: software cannot
                    // block access to migrate them (the pinned
                    // marker); only Contiguitas-HW moves them.
                    kernel_.mem().setRangePinned(
                        head, head + (Pfn{1} << order), true);
                }
                const bool long_lived =
                    rng_.chance(config_.longLivedFrac);
                const double life = rng_.exponential(
                    long_lived ? config_.longMeanLifeSec
                               : config_.meanLifeSec);
                slots_[slot] = Slot{head, order};
                live_.push(Obj{nextArrival_ + life, slot});
                livePages_ += Pfn{1} << order;
            }
            nextArrival_ += rng_.exponential(
                1.0 / (config_.ratePerSec * burstFactor_));
        }
    }
    nowSec_ = now_sec;
}

void
ChurnPool::drain()
{
    while (!live_.empty()) {
        const std::uint32_t slot = live_.top().slot;
        live_.pop();
        Slot &record = slots_[slot];
        if (record.head != invalidPfn) {
            kernel_.freePages(record.head);
            record.head = invalidPfn;
            freeSlots_.push_back(slot);
        }
    }
    livePages_ = 0;
}

} // namespace ctg
