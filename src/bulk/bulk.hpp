// High-level convenience API: one call from "a Program and p inputs" to
// "p outputs" — the user-facing face of the bulk-execution library.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "bulk/host_executor.hpp"
#include "bulk/layout.hpp"
#include "bulk/timing_estimator.hpp"
#include "bulk/umm_executor.hpp"
#include "trace/program.hpp"

namespace obx::bulk {

struct BulkOutputs {
  std::vector<Word> flat;  ///< lane-major: output j at [j*words, (j+1)*words)
  std::size_t words_per_output = 0;

  std::span<const Word> output(Lane j) const {
    return std::span<const Word>(flat).subspan(j * words_per_output, words_per_output);
  }
  std::size_t count() const {
    return words_per_output == 0 ? 0 : flat.size() / words_per_output;
  }
};

/// Executes `program` for p inputs (lane-major flat) on the host with up to
/// `workers` threads and returns the per-lane outputs.
BulkOutputs run_bulk(const trace::Program& program, std::span<const Word> inputs,
                     std::size_t p, unsigned workers = 1);

/// Builds the layout for a program/arrangement pair.  `param` is the
/// arrangement parameter: the block size for kBlocked (required) or the pad
/// stride for kConflictFree (0 = stride 1, plain column addressing); ignored
/// by row-/column-wise.
Layout make_layout(const trace::Program& program, std::size_t p, Arrangement arrangement,
                   std::size_t param = 0);

}  // namespace obx::bulk
