#include "umm/timers.hpp"

#include <algorithm>

namespace obx::umm {

AccessTimer::AccessTimer(Model model, MachineConfig config)
    : model_(model), config_(config), rule_(WarpRule::global(model, config)) {
  if (config_.shared.enabled()) shared_rule_ = WarpRule::shared(config_.shared);
}

TimeUnits AccessTimer::charge_step(std::span<const Addr> addrs) {
  const std::uint32_t w = config_.width;
  std::uint64_t total_stages = 0;
  std::uint64_t warps = 0;
  std::uint64_t shared_rounds = 0;
  for (std::size_t base = 0; base < addrs.size(); base += w) {
    const std::size_t count = std::min<std::size_t>(w, addrs.size() - base);
    const std::span<const Addr> warp = addrs.subspan(base, count);
    const std::uint64_t k = rule_.stages(warp);
    if (k > 0) {
      total_stages += k;
      ++warps;
      if (shared_rule_.has_value()) shared_rounds += shared_rule_->stages(warp);
    }
  }
  return charge_precomputed(total_stages, warps, shared_rounds);
}

TimeUnits AccessTimer::charge_precomputed(std::uint64_t total_stages, std::uint64_t warps,
                                          std::uint64_t shared_rounds) {
  if (total_stages == 0) return 0;  // no warp was dispatched
  ++stats_.access_steps;
  stats_.warps_dispatched += warps;
  stats_.stages_total += total_stages;
  TimeUnits t = total_stages + config_.latency - 1;
  if (shared_rounds > 0) {
    stats_.shared_rounds_total += shared_rounds;
    const TimeUnits shared_t = shared_rounds + config_.shared.latency - 1;
    shared_units_ += shared_t;
    t += shared_t;
  }
  now_ += t;
  return t;
}

TimeUnits AccessTimer::charge_compute() {
  ++stats_.compute_steps;
  if (!config_.count_compute) return 0;
  ++now_;
  ++compute_units_;
  return 1;
}

TimeUnits AccessTimer::time_units() const {
  if (!config_.overlap_latency) return now_;
  const TimeUnits bandwidth =
      stats_.stages_total == 0 ? 0 : stats_.stages_total + config_.latency - 1;
  const TimeUnits chain =
      static_cast<TimeUnits>(config_.latency) * stats_.access_steps;
  return std::max(bandwidth, chain) + compute_units_ + shared_units_;
}

}  // namespace obx::umm
