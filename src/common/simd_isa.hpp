// Runtime SIMD ISA selection for lane-vectorized bulk execution.
//
// Theorem 2's `O(pt/w + lt)` bound has `w` = how many lanes one memory
// transaction (or one ALU instruction) serves.  On the host that is the SIMD
// width: every lane of a bulk run issues the identical instruction sequence,
// so W lanes can ride one vector register with no divergence masks.  This
// header names the ISA tiers the vectorized kernels are built for and picks
// one at runtime — once per process — so a single binary runs the widest
// vectors the CPU supports.
//
// The selection is overridable with the OBX_SIMD environment variable
// ("scalar", "sse2", "neon", "avx2", "avx512", or "auto"); an override that
// names a tier the CPU or the build does not support falls back to the best
// supported tier.  The chosen tier is recorded in plan::ExecutionPlan
// provenance (and its fingerprint), printed by `obx_cli plan`, and reported
// by bulk::HostRunResult.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace obx {

/// SIMD instruction-set tiers, narrowest to widest.  kScalar is plain
/// baseline codegen with no lane grouping; kSse2/kNeon run 2 words (128 bits)
/// per iteration at baseline flags; kAvx2/kAvx512 run 4/8 words and exist
/// only when the build's compiler supports the flags (OBX_SIMD_HAVE_AVX2 /
/// OBX_SIMD_HAVE_AVX512) *and* the CPU reports the features at runtime.
enum class SimdIsa : std::uint8_t {
  kScalar,
  kSse2,
  kNeon,
  kAvx2,
  kAvx512,
};

/// 64-bit words processed per vector iteration: 1, 2, 2, 4, 8.
std::size_t simd_width_words(SimdIsa isa);

std::string to_string(SimdIsa isa);

/// Parses an OBX_SIMD-style name ("scalar", "sse2", "neon", "avx2",
/// "avx512"); nullopt for anything else (including "auto" / "").
std::optional<SimdIsa> parse_simd_isa(std::string_view name);

/// True if this build contains kernels for `isa` and the running CPU
/// supports it.  kScalar is always true.
bool simd_isa_supported(SimdIsa isa);

/// Every tier simd_isa_supported() accepts, narrowest first (kScalar is
/// always the first entry).
std::vector<SimdIsa> supported_simd_isas();

/// The widest supported tier on this CPU with this build.
SimdIsa detect_simd_isa();

/// The tier every dispatching component (compiled backend kernels, the JIT,
/// plan provenance) uses: detect_simd_isa() unless OBX_SIMD
/// overrides it, latched on first call so one process never mixes tiers
/// behind a cached plan's back.  Unsupported override values clamp to
/// detect_simd_isa() with a one-time stderr warning.
SimdIsa active_simd_isa();

}  // namespace obx
