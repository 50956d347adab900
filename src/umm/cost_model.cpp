#include "umm/cost_model.hpp"

#include <algorithm>
#include <numeric>

#include "common/check.hpp"

namespace obx::umm {

StridedStepCost::StridedStepCost(WarpRule rule, std::uint32_t width, std::uint64_t p,
                                 std::uint64_t stride)
    : rule_(rule),
      width_(width),
      stride_(stride),
      full_warps_(width == 0 ? 0 : p / width),
      tail_lanes_(width == 0 ? 0 : p % width),
      modulus_(rule.modulus()),
      delta_(width * stride % modulus_),
      period_(modulus_ / std::gcd(delta_, modulus_)),
      full_warp_count_(modulus_, 0),
      tail_warp_count_(modulus_, 0) {
  OBX_CHECK(width > 0, "warp width must be positive");
  OBX_CHECK(p > 0, "at least one lane");
}

std::uint64_t StridedStepCost::count_for_residue(std::uint64_t residue,
                                                 std::uint64_t lanes) const {
  // Direct evaluation via the generic warp rule on synthetic addresses
  // residue, residue+stride, ..., residue+(lanes-1)*stride.
  std::vector<Addr> addrs(lanes);
  for (std::uint64_t j = 0; j < lanes; ++j) addrs[j] = residue + j * stride_;
  return rule_.stages(addrs);
}

std::uint64_t StridedStepCost::memoised_full(std::uint64_t residue) const {
  std::uint64_t& memo = full_warp_count_[residue];
  if (memo == 0) memo = count_for_residue(residue, width_);
  return memo;
}

StepStages StridedStepCost::stages(Addr base) const {
  const std::uint64_t r0 = base % modulus_;
  StepStages out;
  if (full_warps_ > 0) {
    if (delta_ == 0) {
      // The paper's models: every warp shares the base residue.
      out.stages += full_warps_ * memoised_full(r0);
    } else {
      // Warp m's residue is (r0 + m*delta) mod modulus, cycling with period
      // modulus / gcd(delta, modulus).  Sum one period, multiply, add the
      // remainder prefix.
      const std::uint64_t reps = full_warps_ / period_;
      const std::uint64_t rem = full_warps_ % period_;
      std::uint64_t cycle_sum = 0;
      std::uint64_t rem_sum = 0;
      std::uint64_t r = r0;
      for (std::uint64_t m = 0; m < period_; ++m) {
        const std::uint64_t k = memoised_full(r);
        cycle_sum += k;
        if (m < rem) rem_sum += k;
        r = (r + delta_) % modulus_;
      }
      out.stages += reps * cycle_sum + rem_sum;
    }
    out.warps += full_warps_;
  }
  if (tail_lanes_ > 0) {
    const std::uint64_t r_tail = (r0 + full_warps_ * delta_) % modulus_;
    std::uint64_t& memo = tail_warp_count_[r_tail];
    if (memo == 0) memo = count_for_residue(r_tail, tail_lanes_);
    out.stages += memo;
    out.warps += 1;
  }
  return out;
}

namespace {

std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) { return (a + b - 1) / b; }

}  // namespace

TimeUnits lemma1_row_wise(std::uint64_t n, std::uint64_t p, const MachineConfig& cfg) {
  // Each of the 2n steps touches p addresses spaced n apart: with n >= w they
  // fall in p distinct address groups (p stages); with n < w several lanes
  // share a group, leaving ceil(p*n/w) coalesced stages.
  const std::uint64_t stages =
      n >= cfg.width ? p : std::max<std::uint64_t>(ceil_div(p * n, cfg.width), 1);
  return 2 * n * (stages + cfg.latency - 1);
}

TimeUnits lemma1_column_wise(std::uint64_t n, std::uint64_t p, const MachineConfig& cfg) {
  return 2 * n * (ceil_div(p, cfg.width) + cfg.latency - 1);
}

TimeUnits theorem2_row_wise(std::uint64_t t, std::uint64_t p, const MachineConfig& cfg) {
  return t * (p + cfg.latency - 1);
}

TimeUnits theorem2_column_wise(std::uint64_t t, std::uint64_t p, const MachineConfig& cfg) {
  return t * (ceil_div(p, cfg.width) + cfg.latency - 1);
}

TimeUnits theorem3_lower_bound(std::uint64_t t, std::uint64_t p, const MachineConfig& cfg) {
  return std::max<TimeUnits>(ceil_div(p * t, cfg.width),
                             static_cast<TimeUnits>(cfg.latency) * t);
}

}  // namespace obx::umm
