#include "common/simd_isa.hpp"

#include <cstdio>
#include <cstdlib>

namespace obx {

std::size_t simd_width_words(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar: return 1;
    case SimdIsa::kSse2: return 2;
    case SimdIsa::kNeon: return 2;
    case SimdIsa::kAvx2: return 4;
    case SimdIsa::kAvx512: return 8;
  }
  return 1;
}

std::string to_string(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar: return "scalar";
    case SimdIsa::kSse2: return "sse2";
    case SimdIsa::kNeon: return "neon";
    case SimdIsa::kAvx2: return "avx2";
    case SimdIsa::kAvx512: return "avx512";
  }
  return "?";
}

std::optional<SimdIsa> parse_simd_isa(std::string_view name) {
  if (name == "scalar") return SimdIsa::kScalar;
  if (name == "sse2") return SimdIsa::kSse2;
  if (name == "neon") return SimdIsa::kNeon;
  if (name == "avx2") return SimdIsa::kAvx2;
  if (name == "avx512") return SimdIsa::kAvx512;
  return std::nullopt;
}

bool simd_isa_supported(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar:
      return true;
    case SimdIsa::kSse2:
#if defined(__x86_64__) || defined(_M_X64)
      return true;  // SSE2 is part of the x86-64 baseline
#else
      return false;
#endif
    case SimdIsa::kNeon:
#if defined(OBX_SIMD_HAVE_NEON)
      return true;  // AdvSIMD is part of the AArch64 baseline
#else
      return false;
#endif
    case SimdIsa::kAvx2:
#if defined(OBX_SIMD_HAVE_AVX2) && (defined(__x86_64__) || defined(_M_X64)) && \
    defined(__GNUC__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case SimdIsa::kAvx512:
#if defined(OBX_SIMD_HAVE_AVX512) && (defined(__x86_64__) || defined(_M_X64)) && \
    defined(__GNUC__)
      // The kernels use 512-bit integer/double ops plus the DQ/BW/VL forms
      // the compiler emits freely at -mavx512f -mavx512dq -mavx512bw
      // -mavx512vl; require the full set.
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0;
#else
      return false;
#endif
  }
  return false;
}

std::vector<SimdIsa> supported_simd_isas() {
  std::vector<SimdIsa> tiers;
  for (const SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kSse2, SimdIsa::kNeon,
                            SimdIsa::kAvx2, SimdIsa::kAvx512}) {
    if (simd_isa_supported(isa)) tiers.push_back(isa);
  }
  return tiers;
}

SimdIsa detect_simd_isa() {
  if (simd_isa_supported(SimdIsa::kAvx512)) return SimdIsa::kAvx512;
  if (simd_isa_supported(SimdIsa::kAvx2)) return SimdIsa::kAvx2;
  if (simd_isa_supported(SimdIsa::kSse2)) return SimdIsa::kSse2;
  if (simd_isa_supported(SimdIsa::kNeon)) return SimdIsa::kNeon;
  return SimdIsa::kScalar;
}

namespace {

SimdIsa resolve_active_simd_isa() {
  const char* env = std::getenv("OBX_SIMD");
  if (env == nullptr || env[0] == '\0' || std::string_view(env) == "auto") {
    return detect_simd_isa();
  }
  const std::optional<SimdIsa> requested = parse_simd_isa(env);
  if (!requested.has_value()) {
    std::fprintf(stderr,
                 "obx: OBX_SIMD=%s is not a known tier "
                 "(scalar|sse2|neon|avx2|avx512|auto); using %s\n",
                 env, to_string(detect_simd_isa()).c_str());
    return detect_simd_isa();
  }
  if (!simd_isa_supported(*requested)) {
    std::fprintf(stderr, "obx: OBX_SIMD=%s not supported by this CPU/build; using %s\n",
                 env, to_string(detect_simd_isa()).c_str());
    return detect_simd_isa();
  }
  return *requested;
}

}  // namespace

SimdIsa active_simd_isa() {
  // Latched once: every dispatch site (kernels, the JIT, plans) sees the
  // same tier for the whole process lifetime, so cached artifacts and their
  // recorded provenance can never disagree with the code that runs.
  static const SimdIsa active = resolve_active_simd_isa();
  return active;
}

}  // namespace obx
