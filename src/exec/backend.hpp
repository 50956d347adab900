// Lane-tiled execution: one tile driver for every host engine.
//
// Every host engine walks lane tiles through the same driver
// (detail::run_tiles).  Each tile of T lanes runs in scratch private to its thread: its
// inputs are transposed into a tile image of n × T words (canonical word a
// of tile lane j at a·T + j), a register tile of reg_count × T words is
// zeroed, a segment runner applies the whole program to the tile, and the
// epilogue (TileSink) copies a window of each lane's words out, lane-major.
// The compiled and JIT runners execute fused segments over cache-sized tiles;
// the interpreted runner drains the program stream once over one coarse
// chunk.  No host engine builds an arranged p·n image: the data arrangement
// is priced only on the simulated machine (bulk::Layout).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "common/simd_isa.hpp"
#include "common/types.hpp"
#include "exec/compiled_program.hpp"
#include "trace/program.hpp"

namespace obx::exec {

/// Which lockstep engine a plan requests (plan::PlanOptions::backend) and
/// resolves.  kAuto and kCompiled run the compiled switch backend, whose
/// segment loop inlines the vector kernels, degrading to the interpreter
/// when the program exceeds the compile budget.  kJit asks for the
/// copy-and-patch JIT (see exec/jit/jit_program.hpp), which calls the same
/// kernels out of line and is slower on bulk-registry; it degrades to the
/// compiled switch when emission is unavailable (non-x86-64/non-Linux,
/// OBX_JIT=0, arena failure).  Every rung falls back (with the fallback
/// recorded in the plan's provenance) rather than failing.
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
/// tile image (words_per_lane × T words) within kTileImageBytes — a program
/// with a large memory image gets the 32-lane floor.  A tile at least
/// `vector_width` lanes wide is rounded down to a multiple of it so only the
/// final tile of a chunk has a scalar tail; smaller requests are honoured
/// as-is.  Tiles never exceed `lanes`.  Always returns >= 1, even for
/// degenerate inputs (p < vector_width, reg_count == 0): the worst case is a
/// valid scalar tile, never 0.
std::size_t resolve_tile_lanes(std::size_t requested, std::size_t reg_count,
                               std::size_t words_per_lane, std::size_t lanes,
                               std::size_t vector_width = 1);

/// Where each lane tile's results go once its segments have run (the tile
/// epilogue): words [offset, offset + words) of lane j are copied to
/// dst[j * words ...], lane-major.  outputs(memory, 0, n) keeps every word
/// of every lane (the image path); the program's output window keeps only
/// the outputs.
struct TileSink {
  static TileSink outputs(std::span<Word> out, Addr offset, std::size_t words);

  std::span<Word> dst;
  Addr offset = 0;
  std::size_t words = 0;
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

/// The interpreted engine: runs `program` over lanes [lane_begin, lane_end)
/// as one tile, draining program.stream() once and applying each step across
/// the chunk (ALU steps through trace::bulk_alu).  Same inputs, sink and
/// thread-safety contract as run_compiled_chunk, but the chunk's tile image
/// and register tile are allocated per call and freed on return: a chunk is
/// far larger than a compiled tile and must not stay pinned in the calling
/// thread.  When `counts` is non-null it receives the steps of one stream.
void run_interpreted_chunk(const trace::Program& program, std::span<const Word> inputs,
                           const TileSink& sink, Lane lane_begin, Lane lane_end,
                           trace::StepCounts* counts = nullptr);

}  // namespace obx::exec
