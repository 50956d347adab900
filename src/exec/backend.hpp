// Lane-tiled execution of a CompiledProgram.
//
// Where the interpreted executor sweeps the whole worker chunk once per step
// (streaming the full register file through cache every time), the compiled
// backend walks lane tiles.  Each tile of T lanes runs in per-thread scratch:
// its inputs are transposed into a tile image of n × T words (canonical word
// a of tile lane j at a·T + j, sized to stay L2-resident), a register tile of
// reg_count × T words (L1-resident) is zeroed, and *every* fused op of every
// segment runs over that tile before the next one starts.  Dispatch cost is
// amortised by superinstruction fusion; the arranged p·n image is touched at
// most once per tile, by the epilogue (see TileSink).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "common/simd_isa.hpp"
#include "common/types.hpp"
#include "bulk/layout.hpp"
#include "exec/compiled_program.hpp"

namespace obx::exec {

/// Which lockstep engine HostBulkExecutor uses.  kAuto prefers the
/// copy-and-patch JIT (zero per-superinstruction dispatch; see
/// exec/jit/jit_program.hpp), degrading to the compiled switch backend when
/// emission is unavailable (non-x86-64/non-Linux, OBX_JIT=0, arena failure)
/// and to the interpreter when the program exceeds the compile budget.
/// kJit and kCompiled ride the same ladder from their own rung — both fall
/// back (with the fallback recorded in the run result) rather than failing.
/// kJit is last so the numeric values of the pre-JIT backends — which plan
/// fingerprints fold in — are unchanged.
enum class Backend : std::uint8_t { kAuto, kInterpreted, kCompiled, kJit };

std::string to_string(Backend backend);

/// Auto tile budgets: the register tile (reg_count × T words) fits about a
/// third of a typical 48 KB L1d, leaving room for the image rows; the tile
/// image (n × T words) fits a per-core L2.
inline constexpr std::size_t kRegTileBytes = 16 * 1024;
inline constexpr std::size_t kTileImageBytes = 256 * 1024;

/// Picks a lane-tile size: `requested` if nonzero, else the largest power of
/// two in [32, 1024] keeping the register tile within kRegTileBytes and the
/// tile image (layout.words_per_input() × T words) within kTileImageBytes —
/// a program with a large memory image gets the 32-lane floor.  A tile at
/// least `vector_width` lanes wide is rounded down to a multiple of it so
/// only the final tile of a chunk has a scalar tail; smaller requests are
/// honoured as-is.  Tiles never exceed layout.lanes() and need not respect
/// the arrangement (no kernel addresses the arranged image).  Always returns
/// >= 1, even for degenerate inputs (p < vector_width, reg_count == 0): the
/// worst case is a valid scalar tile, never 0.
std::size_t resolve_tile_lanes(std::size_t requested, std::size_t reg_count,
                               const bulk::Layout& layout,
                               std::size_t vector_width = 1);

/// Where each lane tile's results go once its segments have run (the tile
/// epilogue).
struct TileSink {
  /// Image path: every canonical word of every lane is written back through
  /// `layout` into `memory`, the zero-filled arranged image
  /// (layout.total_words() words; padding words are never written).
  static TileSink image(const bulk::Layout& layout, std::span<Word> memory);
  /// Output path: words [offset, offset + words) of lane j are copied to
  /// out[j * words ...] (lane-major); no arranged image exists at all.
  static TileSink outputs(std::span<Word> out, Addr offset, std::size_t words);

  const bulk::Layout* layout = nullptr;  ///< set on the image path only
  std::span<Word> dst;
  Addr offset = 0;                       ///< output path only
  std::size_t words = 0;                 ///< output path only
};

/// Executes `compiled` over lanes [lane_begin, lane_end), tile by tile (see
/// the header comment), and writes each tile's results to `sink`.  Inputs are
/// lane-major flat (lane j at inputs[j * input_words ...]).  Any lane range
/// and any tile_lanes > 0 is valid.  Thread-safe across disjoint lane ranges;
/// keeps grow-only thread_local register and tile-image scratch.  `isa`
/// selects the lane-vectorized kernel set (lanes are packed
/// `simd_width_words(isa)` per vector, ragged tails handled scalar); tiers
/// this binary lacks degrade to the widest one it has.  Any tier is
/// bit-identical to kScalar.
void run_compiled_chunk(const CompiledProgram& compiled, std::span<const Word> inputs,
                        std::size_t input_words, const TileSink& sink, Lane lane_begin,
                        Lane lane_end, std::size_t tile_lanes,
                        SimdIsa isa = active_simd_isa());

}  // namespace obx::exec
