#include "umm/dmm.hpp"

#include "common/check.hpp"

namespace obx::umm {

void SharedTier::validate() const {
  if (!enabled()) return;
  OBX_CHECK(bank_words > 0, "shared tier bank_words must be positive");
  OBX_CHECK(latency > 0, "shared tier latency must be positive");
}

std::uint64_t conflict_free_stride(const SharedTier& tier) {
  // Never 0: an enabled-but-degenerate tier (bank_words == 0 escapes
  // validate() on read-only paths) must not hand the planner a zero pad
  // stride — Layout would reject it, and a silent 0 upstream of make_layout
  // would degenerate the scatter.  Both the disabled and the degenerate
  // tier fall back to stride 1 (plain column-wise).
  return tier.enabled() && tier.bank_words > 0 ? tier.bank_words : 1;
}

}  // namespace obx::umm
