#include "bulk/timing_estimator.hpp"

#include <vector>

#include "common/check.hpp"
#include "bulk/umm_executor.hpp"
#include "trace/step.hpp"

namespace obx::bulk {

TimingEstimator::TimingEstimator(umm::Model model, umm::MachineConfig config, Layout layout)
    : model_(model),
      config_(config),
      layout_(layout),
      global_cost_(umm::WarpRule::global(model, config), config.width, layout.lanes(),
                   layout.lane_stride()) {
  OBX_CHECK(supports(config_, layout_),
            "the strided fast path does not support " + layout_.name() +
                " on this machine (blocked layouts need width | block, the "
                "paper's group size and no shared tier); use UmmBulkExecutor");
  if (config_.shared.enabled()) {
    shared_cost_.emplace(umm::WarpRule::shared(config_.shared), config_.width,
                         layout_.lanes(), layout_.lane_stride());
  }
}

bool TimingEstimator::supports(const umm::MachineConfig& config, const Layout& layout) {
  if (!layout.uniform_residue(config.width)) return false;
  if (layout.arrangement() == Arrangement::kBlocked &&
      (config.effective_group() != config.width || config.shared.enabled())) {
    return false;
  }
  return true;
}

TimingResult TimingEstimator::run(const trace::Program& program) const {
  OBX_CHECK(program.stream != nullptr, "program has no stream factory");
  umm::AccessTimer timer(model_, config_);
  auto gen = program.stream();
  for (const trace::Step& s : gen) {
    if (s.is_memory()) {
      OBX_CHECK(s.addr < program.memory_words, "access beyond program memory");
      const Addr base = layout_.stride_base(s.addr);
      const umm::StepStages st = global_cost_.stages(base);
      timer.charge_precomputed(st.stages, st.warps,
                               shared_cost_.has_value() ? shared_cost_->stages(base).stages : 0);
    } else {
      timer.charge_compute();
    }
  }
  return {timer.time_units(), timer.stats()};
}

TimeUnits simulate_units(const trace::Program& program, const Layout& layout,
                         umm::Model model, const umm::MachineConfig& config) {
  if (TimingEstimator::supports(config, layout)) {
    return TimingEstimator(model, config, layout).run(program).time_units;
  }
  // Exact fallback: a cycle-accurate run on all-zero inputs.  The programs
  // are oblivious, so the address trace — and therefore the charged time —
  // is the same for every input.
  const std::vector<Word> zeros(layout.lanes() * program.input_words, Word{0});
  return UmmBulkExecutor(model, config, layout).run(program, zeros).time_units;
}

}  // namespace obx::bulk
