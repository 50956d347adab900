#include "bulk/bulk.hpp"

#include "common/check.hpp"

namespace obx::bulk {

Layout make_layout(const trace::Program& program, std::size_t p, Arrangement arrangement,
                   std::size_t param) {
  switch (arrangement) {
    case Arrangement::kRowWise:
      return Layout::row_wise(p, program.memory_words);
    case Arrangement::kColumnWise:
      return Layout::column_wise(p, program.memory_words);
    case Arrangement::kBlocked:
      OBX_CHECK(param > 0, "blocked arrangement needs a block size");
      return Layout::blocked(p, program.memory_words, param);
    case Arrangement::kConflictFree:
      return Layout::conflict_free(p, program.memory_words, param == 0 ? 1 : param);
  }
  OBX_CHECK(false, "unknown arrangement");
  return Layout::column_wise(p, program.memory_words);
}

}  // namespace obx::bulk
