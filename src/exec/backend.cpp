#include "exec/backend.hpp"

#include <algorithm>
#include <bit>

#include "common/aligned.hpp"
#include "common/check.hpp"
#include "exec/backend_detail.hpp"
#include "trace/step.hpp"

namespace obx::exec {

namespace detail {

namespace {

/// Words per cacheline: the transposes below move 8-word row groups so each
/// lane-major read or write is one full line feeding 8 row streams.
constexpr std::size_t kLine = 8;

/// Transposes the tile's lane-major inputs (lane j at src[j * iw ...]) into
/// rows [0, iw) of the tile image and zeroes rows [iw, n) (whole rows, so a
/// partial tile zeroes a few columns it never reads).
void stage_tile(const Tile& t, const Word* src, std::size_t iw, std::size_t n) {
  std::size_t a0 = 0;
  for (; a0 + kLine <= iw; a0 += kLine) {
    Word* dst = mem_ref(t, static_cast<Addr>(a0));
    for (std::size_t j = 0; j < t.len; ++j) {
      const Word* line = src + j * iw + a0;
      for (std::size_t k = 0; k < kLine; ++k) dst[k * t.cap + j] = line[k];
    }
  }
  for (; a0 < iw; ++a0) {
    Word* dst = mem_ref(t, static_cast<Addr>(a0));
    for (std::size_t j = 0; j < t.len; ++j) dst[j] = src[j * iw + a0];
  }
  std::fill(mem_ref(t, static_cast<Addr>(iw)), mem_ref(t, static_cast<Addr>(n)), Word{0});
}

/// Output epilogue: rows [offset, offset + ow) back to lane-major dst.
void copy_outputs(const Tile& t, Addr offset, std::size_t ow, Word* dst) {
  std::size_t i0 = 0;
  for (; i0 + kLine <= ow; i0 += kLine) {
    const Word* src = mem_ref(t, static_cast<Addr>(offset + i0));
    for (std::size_t j = 0; j < t.len; ++j) {
      Word* line = dst + j * ow + i0;
      for (std::size_t k = 0; k < kLine; ++k) line[k] = src[k * t.cap + j];
    }
  }
  for (; i0 < ow; ++i0) {
    const Word* src = mem_ref(t, static_cast<Addr>(offset + i0));
    for (std::size_t j = 0; j < t.len; ++j) dst[j * ow + i0] = src[j];
  }
}

}  // namespace

void run_tiles(std::size_t memory_words, std::size_t reg_count,
               std::span<const Word> inputs, std::size_t input_words,
               const TileSink& sink, Lane lane_begin, Lane lane_end,
               std::size_t tile_lanes, bool reuse_scratch,
               const std::function<void(const Tile&)>& run_segments) {
  OBX_CHECK(tile_lanes > 0, "tile size must be positive");
  const std::size_t n = memory_words;
  OBX_CHECK(input_words <= n, "inputs larger than program memory");
  OBX_CHECK(sink.offset + sink.words <= n, "output region beyond program memory");
  reg_count = std::max<std::size_t>(reg_count, 1);
  // Compiled and JIT tiles use grow-only thread-local scratch for the
  // register tile and the tile image: with the CorePool running one task per
  // tile, this is the per-tile hot path, and a heap allocation here would
  // dominate small tiles.  Only the first reg_count·T and n·T words are
  // used, and both are re-initialised per tile, so a larger earlier program
  // cannot leak state into this one.  An interpreted chunk is one tile many
  // times that size, so its scratch belongs to this call and is freed on
  // return instead of staying pinned in the thread.
  thread_local aligned_vector<Word> thread_regs;
  thread_local aligned_vector<Word> thread_image;
  aligned_vector<Word> own_regs;
  aligned_vector<Word> own_image;
  aligned_vector<Word>& regs = reuse_scratch ? thread_regs : own_regs;
  aligned_vector<Word>& image = reuse_scratch ? thread_image : own_image;
  const std::size_t regs_needed = reg_count * tile_lanes;
  if (regs.size() < regs_needed) regs.resize(regs_needed);
  if (image.size() < n * tile_lanes) image.resize(n * tile_lanes);

  Tile t;
  t.regs = regs.data();
  t.mem = image.data();
  t.cap = tile_lanes;
  for (Lane base = lane_begin; base < lane_end; base += tile_lanes) {
    t.len = std::min(tile_lanes, lane_end - base);
    stage_tile(t, inputs.data() + base * input_words, input_words, n);
    std::fill_n(regs.data(), regs_needed, Word{0});
    run_segments(t);
    copy_outputs(t, sink.offset, sink.words, sink.dst.data() + base * sink.words);
  }
}

}  // namespace detail

namespace {

using detail::Tile;

using SegmentFn = void (*)(const Tile&, const CompiledProgram::Segment&);

/// Maps the requested SIMD tier to its segment body, degrading to the widest
/// engine this binary actually contains (an AVX2-less toolchain build asked
/// for kAvx2 still runs, on the baseline 128-bit engine).
SegmentFn segment_fn_for(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar:
      return detail::exec_segment_w1;
    case SimdIsa::kSse2:
    case SimdIsa::kNeon:
      return detail::exec_segment_w2;
    case SimdIsa::kAvx2:
#if defined(OBX_SIMD_HAVE_AVX2)
      return detail::exec_segment_avx2;
#else
      return detail::exec_segment_w2;
#endif
    case SimdIsa::kAvx512:
#if defined(OBX_SIMD_HAVE_AVX512)
      return detail::exec_segment_avx512;
#elif defined(OBX_SIMD_HAVE_AVX2)
      return detail::exec_segment_avx2;
#else
      return detail::exec_segment_w2;
#endif
  }
  return detail::exec_segment_w1;
}

}  // namespace

std::string to_string(Backend backend) {
  switch (backend) {
    case Backend::kAuto: return "auto";
    case Backend::kInterpreted: return "interpreted";
    case Backend::kCompiled: return "compiled";
    case Backend::kJit: return "jit";
  }
  return "?";
}

std::size_t resolve_tile_lanes(std::size_t requested, std::size_t reg_count,
                               std::size_t words_per_lane, std::size_t lanes,
                               std::size_t vector_width) {
  const std::size_t w = std::max<std::size_t>(vector_width, 1);
  std::size_t tile = requested;
  if (tile == 0) {
    const std::size_t reg_words = std::max<std::size_t>(reg_count, 1);
    const std::size_t image_words = std::max<std::size_t>(words_per_lane, 1);
    tile = std::min(kRegTileBytes / (sizeof(Word) * reg_words),
                    kTileImageBytes / (sizeof(Word) * image_words));
    // Power of two in [32, 1024]: already a multiple of every vector width.
    tile = std::clamp<std::size_t>(std::bit_floor(tile), 32, 1024);
  }
  tile = std::max<std::size_t>(std::min(tile, lanes), 1);
  if (tile >= w) tile -= tile % w;  // round down to a vector-width multiple
  // Degenerate inputs (p < vector width, reg_count == 0) must still yield a
  // runnable scalar tile: run_tiles refuses tile_lanes == 0.
  return tile;
}

TileSink TileSink::outputs(std::span<Word> out, Addr offset, std::size_t words) {
  TileSink s;
  s.dst = out;
  s.offset = offset;
  s.words = words;
  return s;
}

void run_compiled_chunk(const CompiledProgram& compiled, std::span<const Word> inputs,
                        std::size_t input_words, const TileSink& sink, Lane lane_begin,
                        Lane lane_end, std::size_t tile_lanes, SimdIsa isa) {
  const SegmentFn segment_fn = segment_fn_for(isa);
  detail::run_tiles(compiled.memory_words(), compiled.register_count(), inputs,
                    input_words, sink, lane_begin, lane_end, tile_lanes,
                    /*reuse_scratch=*/true, [&](const Tile& t) {
                      for (const CompiledProgram::Segment& seg : compiled.segments()) {
                        segment_fn(t, seg);
                      }
                    });
}

void run_interpreted_chunk(const trace::Program& program, std::span<const Word> inputs,
                           const TileSink& sink, Lane lane_begin, Lane lane_end,
                           trace::StepCounts* counts) {
  const std::size_t n = program.memory_words;
  detail::run_tiles(
      n, program.register_count, inputs, program.input_words, sink, lane_begin, lane_end,
      std::max<std::size_t>(lane_end - lane_begin, 1), /*reuse_scratch=*/false,
      [&](const Tile& t) {
        trace::StepCounts local;
        for (const trace::Step& s : program.stream()) {
          switch (s.kind) {
            case trace::StepKind::kLoad:
              OBX_CHECK(s.addr < n, "load beyond program memory");
              std::copy_n(detail::mem_ref(t, s.addr), t.len, detail::reg(t, s.dst));
              ++local.loads;
              break;
            case trace::StepKind::kStore:
              OBX_CHECK(s.addr < n, "store beyond program memory");
              std::copy_n(detail::reg(t, s.src0), t.len, detail::mem_ref(t, s.addr));
              ++local.stores;
              break;
            case trace::StepKind::kAlu:
              trace::bulk_alu(s.op, detail::reg(t, s.dst), detail::reg(t, s.src0),
                              detail::reg(t, s.src1), detail::reg(t, s.src2), t.len);
              ++local.alu;
              break;
            case trace::StepKind::kImm:
              std::fill_n(detail::reg(t, s.dst), t.len, s.imm);
              ++local.imm;
              break;
          }
        }
        if (counts != nullptr) *counts = local;
      });
}

}  // namespace obx::exec
