#include "umm/warp.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "umm/address.hpp"

namespace obx::umm {
namespace {

constexpr std::size_t kStackWidth = 128;

}  // namespace

std::uint64_t umm_warp_stages(std::span<const Addr> addrs, std::uint32_t width) {
  // Collect the address groups of active lanes, sort, count distinct runs.
  std::uint64_t groups[kStackWidth];
  std::vector<std::uint64_t> heap;
  std::uint64_t* buf = groups;
  if (addrs.size() > kStackWidth) {
    heap.resize(addrs.size());
    buf = heap.data();
  }
  std::size_t active = 0;
  for (Addr a : addrs) {
    if (a == kInvalidAddr) continue;
    buf[active++] = address_group_of(a, width);
  }
  if (active == 0) return 0;
  std::sort(buf, buf + active);
  std::uint64_t distinct = 1;
  for (std::size_t i = 1; i < active; ++i) {
    if (buf[i] != buf[i - 1]) ++distinct;
  }
  return distinct;
}

std::uint64_t dmm_warp_stages(std::span<const Addr> addrs, std::uint32_t banks,
                              std::uint32_t bank_words) {
  // Count requests per bank; the warp is replayed once per conflicting round,
  // so its stage count is the maximum multiplicity.
  std::uint64_t counts_stack[kStackWidth] = {};
  std::vector<std::uint64_t> heap;
  std::uint64_t* counts = counts_stack;
  if (banks > kStackWidth) {
    heap.assign(banks, 0);
    counts = heap.data();
  }
  std::uint64_t max_count = 0;
  for (Addr a : addrs) {
    if (a == kInvalidAddr) continue;
    const std::uint64_t c = ++counts[bank_of(a / bank_words, banks)];
    max_count = std::max(max_count, c);
  }
  return max_count;
}

WarpRule WarpRule::global(Model model, const MachineConfig& config) {
  config.validate();
  if (model == Model::kDmm) return shared(SharedTier{.banks = config.width, .bank_words = 1});
  return WarpRule(Model::kUmm, config.effective_group(), 0);
}

WarpRule WarpRule::shared(const SharedTier& tier) {
  tier.validate();
  OBX_CHECK(tier.enabled(), "the shared tier is disabled");
  return WarpRule(Model::kDmm, tier.bank_words, tier.banks);
}

std::uint64_t WarpRule::stages(std::span<const Addr> addrs) const {
  return model_ == Model::kUmm ? umm_warp_stages(addrs, words_)
                               : dmm_warp_stages(addrs, banks_, words_);
}

std::uint64_t WarpRule::modulus() const {
  return model_ == Model::kUmm ? words_ : std::uint64_t{banks_} * words_;
}

}  // namespace obx::umm
