#include "contiguitas/resize_controller.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "base/span_trace.hh"

namespace ctg
{

ResizeController::ResizeController(const ResizeParams &params)
    : params_(params)
{
    ctg_assert(params_.thresholdUnmov > 0);
    ctg_assert(params_.thresholdMov > 0);
    ctg_assert(params_.cue >= 0 && params_.cme >= 0);
    ctg_assert(params_.cms >= 0 && params_.cus >= 0);
    ctg_assert(params_.maxFactor > 0 && params_.maxFactor <= 1.0);
}

ResizeDecision
ResizeController::evaluate(double pressure_unmov, double pressure_mov,
                           std::uint64_t mem_unmov) const
{
    CTG_SPAN_NAMED(span, Region, "controller.evaluate",
                   {{"mem_unmov",
                     static_cast<std::int64_t>(mem_unmov)},
                    {"p_unmov_pct",
                     static_cast<std::int64_t>(pressure_unmov * 100)},
                    {"p_mov_pct",
                     static_cast<std::int64_t>(pressure_mov * 100)}});
    ResizeDecision decision;
    const double mem = static_cast<double>(mem_unmov);

    if (pressure_unmov >= params_.thresholdUnmov &&
        pressure_mov < params_.thresholdMov) {
        // Expand unmovable upon high pressure (Algorithm 1 line 4).
        double factor =
            pressure_unmov / params_.thresholdUnmov * params_.cue +
            params_.thresholdMov /
                std::max(pressure_mov, minPressure) * params_.cme;
        factor = std::min(factor, params_.maxFactor);
        decision.direction = ResizeDirection::Expand;
        decision.factor = factor;
        decision.targetPages = static_cast<std::uint64_t>(
            std::ceil((1.0 + factor) * mem));
    } else {
        // Shrink for all other cases (Algorithm 1 line 8).
        double factor =
            pressure_mov / params_.thresholdMov * params_.cms +
            params_.thresholdUnmov /
                std::max(pressure_unmov, minPressure) * params_.cus;
        factor = std::min(factor, params_.maxFactor);
        decision.direction = ResizeDirection::Shrink;
        decision.factor = factor;
        decision.targetPages = static_cast<std::uint64_t>(
            std::floor((1.0 - factor) * mem));
    }
    if (decision.targetPages == mem_unmov)
        decision.direction = ResizeDirection::None;

    span.arg("direction", static_cast<std::int64_t>(
                              decision.direction == ResizeDirection::Expand
                                  ? 1
                                  : decision.direction ==
                                            ResizeDirection::Shrink
                                        ? -1
                                        : 0));
    span.arg("target_pages",
             static_cast<std::int64_t>(decision.targetPages));
    span.arg("factor_bp",
             static_cast<std::int64_t>(decision.factor * 10000));

    ++stats_.evaluations;
    switch (decision.direction) {
      case ResizeDirection::Expand:
        ++stats_.expandDecisions;
        break;
      case ResizeDirection::Shrink:
        ++stats_.shrinkDecisions;
        break;
      case ResizeDirection::None:
        ++stats_.noneDecisions;
        break;
    }
    return decision;
}

void
ResizeController::regStats(StatGroup group) const
{
    group.gauge("evaluations",
                [this] { return double(stats_.evaluations); },
                "Algorithm 1 controller wakeups");
    group.gauge("expand_decisions",
                [this] { return double(stats_.expandDecisions); });
    group.gauge("shrink_decisions",
                [this] { return double(stats_.shrinkDecisions); });
    group.gauge("none_decisions",
                [this] { return double(stats_.noneDecisions); },
                "evaluations whose target equals the current size");
}

} // namespace ctg
