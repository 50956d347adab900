// Shared tile plumbing for the compiled backend's translation units.
//
// backend.cpp (the tile loop and dispatch), the JIT's run_jit_chunk and the
// per-ISA kernel TUs (backend_w1/w2/avx2/avx512.cpp) all address the same
// lane-major register tile and tile image; the structs and address math live
// here so they agree by construction.  reg/mem_ref are force-inlined for the
// same ODR reason as simd.hpp: they are compiled under different target
// flags per TU.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "common/types.hpp"
#include "exec/backend.hpp"
#include "exec/compiled_program.hpp"
#include "trace/alu_ops.hpp"

namespace obx::exec::detail {

/// One lane tile of `len` lanes, staged in per-thread scratch: an L1-resident
/// register tile (register r of tile lane j at regs[r * cap + j]) and an
/// L2-resident tile image (canonical word a of tile lane j at
/// mem[a * cap + j]).  Every lane is independent (Theorem 2), so a tile
/// needs nothing beyond its own lanes' words.
struct Tile {
  Word* regs = nullptr;
  Word* mem = nullptr;
  std::size_t cap = 0;
  std::size_t len = 0;
};

OBX_ALWAYS_INLINE Word* reg(const Tile& t, std::uint8_t r) {
  return t.regs + std::size_t{r} * t.cap;
}

/// Row `a` of the tile image: tile lane j's canonical word a is at [j].
OBX_ALWAYS_INLINE Word* mem_ref(const Tile& t, Addr a) {
  return t.mem + std::size_t{a} * t.cap;
}

/// The tile loop behind run_compiled_chunk and run_jit_chunk: for each
/// tile of `tile_lanes` lanes in [lane_begin, lane_end) it transposes the
/// inputs into the tile image, zeroes the rest of the image and the register
/// tile, calls `run_segments` (every segment, in order), and hands the
/// results to `sink`.  Defined in backend.cpp.
void run_tiles(const CompiledProgram& compiled, std::span<const Word> inputs,
               std::size_t input_words, const TileSink& sink, Lane lane_begin,
               Lane lane_end, std::size_t tile_lanes,
               const std::function<void(const Tile&)>& run_segments);

// Per-ISA segment bodies.  Each is defined in exactly one translation unit,
// compiled with that ISA's target flags, and instantiates exactly one vector
// width W — so no wide-vector code can be linker-folded into a baseline
// caller.  w1 is the scalar engine (no lane grouping); w2 is the baseline
// 128-bit engine (SSE2 on x86-64, AdvSIMD on AArch64, both on by default).
void exec_segment_w1(const Tile& t, const CompiledProgram::Segment& seg);
void exec_segment_w2(const Tile& t, const CompiledProgram::Segment& seg);
#if defined(OBX_SIMD_HAVE_AVX2)
void exec_segment_avx2(const Tile& t, const CompiledProgram::Segment& seg);
#endif
#if defined(OBX_SIMD_HAVE_AVX512)
void exec_segment_avx512(const Tile& t, const CompiledProgram::Segment& seg);
#endif

}  // namespace obx::exec::detail
