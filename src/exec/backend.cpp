#include "exec/backend.hpp"

#include <algorithm>
#include <bit>

#include "common/aligned.hpp"
#include "common/check.hpp"
#include "exec/backend_detail.hpp"

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

/// Image epilogue: every row back into the arranged image.  Within one block
/// of a blocked layout — and across the whole tile for the other
/// arrangements — tile lane j of word a sits lane_stride() words after lane
/// j - 1, so each row is one strided (mostly unit-stride) copy.
void write_image(const Tile& t, std::size_t n, Lane base, const bulk::Layout& layout,
                 Word* memory) {
  const std::size_t stride = layout.lane_stride();
  const bool blocked = layout.arrangement() == bulk::Arrangement::kBlocked;
  for (std::size_t j0 = 0; j0 < t.len;) {
    const Lane lane = base + j0;
    const std::size_t j1 =
        blocked ? std::min(t.len, j0 + layout.block() - lane % layout.block()) : t.len;
    for (std::size_t a = 0; a < n; ++a) {
      const Word* src = mem_ref(t, static_cast<Addr>(a)) + j0;
      Word* dst = memory + layout.global(static_cast<Addr>(a), lane);
      if (stride == 1) {
        std::copy(src, src + (j1 - j0), dst);
      } else {
        for (std::size_t j = 0; j < j1 - j0; ++j) dst[j * stride] = src[j];
      }
    }
    j0 = j1;
  }
}

}  // namespace

void run_tiles(const CompiledProgram& compiled, std::span<const Word> inputs,
               std::size_t input_words, const TileSink& sink, Lane lane_begin,
               Lane lane_end, std::size_t tile_lanes,
               const std::function<void(const Tile&)>& run_segments) {
  OBX_CHECK(tile_lanes > 0, "tile size must be positive");
  const std::size_t n = compiled.memory_words();
  OBX_CHECK(input_words <= n, "inputs larger than program memory");
  if (sink.layout != nullptr) {
    OBX_CHECK(sink.layout->words_per_input() == n,
              "compiled program sized for a different layout");
  } else {
    OBX_CHECK(sink.offset + sink.words <= n, "output region beyond program memory");
  }
  const std::size_t reg_count = std::max<std::size_t>(compiled.register_count(), 1);
  // Grow-only thread-local scratch for the register tile and the tile image:
  // with the CorePool running one task per tile, this is the per-tile hot
  // path, and a heap allocation here would dominate small tiles.  Only the
  // first reg_count·T and n·T words are used, and both are re-initialised
  // per tile, so a larger earlier program cannot leak state into this one.
  thread_local aligned_vector<Word> regs;
  thread_local aligned_vector<Word> image;
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
    if (sink.layout != nullptr) {
      write_image(t, n, base, *sink.layout, sink.dst.data());
    } else {
      copy_outputs(t, sink.offset, sink.words, sink.dst.data() + base * sink.words);
    }
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
                               const bulk::Layout& layout, std::size_t vector_width) {
  const std::size_t w = std::max<std::size_t>(vector_width, 1);
  std::size_t tile = requested;
  if (tile == 0) {
    const std::size_t reg_words = std::max<std::size_t>(reg_count, 1);
    const std::size_t image_words = std::max<std::size_t>(layout.words_per_input(), 1);
    tile = std::min(kRegTileBytes / (sizeof(Word) * reg_words),
                    kTileImageBytes / (sizeof(Word) * image_words));
    // Power of two in [32, 1024]: already a multiple of every vector width.
    tile = std::clamp<std::size_t>(std::bit_floor(tile), 32, 1024);
  }
  tile = std::max<std::size_t>(std::min(tile, layout.lanes()), 1);
  if (tile >= w) tile -= tile % w;  // round down to a vector-width multiple
  // Degenerate inputs (p < vector width, reg_count == 0) must still yield a
  // runnable scalar tile: run_tiles refuses tile_lanes == 0.
  return tile;
}

TileSink TileSink::image(const bulk::Layout& layout, std::span<Word> memory) {
  OBX_CHECK(memory.size() == layout.total_words(), "memory image sized for another layout");
  TileSink s;
  s.layout = &layout;
  s.dst = memory;
  return s;
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
  detail::run_tiles(compiled, inputs, input_words, sink, lane_begin, lane_end, tile_lanes,
                    [&](const Tile& t) {
                      for (const CompiledProgram::Segment& seg : compiled.segments()) {
                        segment_fn(t, seg);
                      }
                    });
}

}  // namespace obx::exec
