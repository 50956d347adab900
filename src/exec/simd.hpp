// Portable fixed-width vector layer for the lane-vectorized backend.
//
// Vec<W> is W lockstep lanes' worth of one register: a GCC/Clang
// vector-extension value (`Word __attribute__((vector_size(8 * W)))`) with
// unaligned load/store through memcpy and splat by broadcast, so a kernel's
// operands stay in one machine vector register from load to store.  There
// are deliberately no intrinsics here: every translation unit that
// instantiates a width is compiled with the matching target flags (see
// src/exec/CMakeLists.txt), and the compiler lowers the whole-vector
// operators to that ISA's instructions (or to a short emulation where the
// ISA lacks a 64-bit lane form, e.g. the 64-bit multiply below AVX-512DQ).
// At W = 1 (the scalar engine and every ragged tail) a Vec is a plain Word
// and vapply is trace::apply_one itself.
//
// vapply is bit-identical to apply_one lane by lane: integer ops wrap
// unsigned, compares yield 0/1, shifts take y & 63, min/max/select/cmov pick
// whole source words, and every f64 add/sub/mul/div NaN result becomes
// trace::kCanonicalNaN (lane-wise IEEE otherwise, as addpd and addsd agree).
// The ExecEquivalence tier pins, the exhaustive edge-word op test and the
// differential fuzzer hold every tier to it.
//
// Obliviousness is what makes this trivially correct: every lane executes the
// same Step sequence with the same addresses, so there are no divergence
// masks, no gathers from data-dependent addresses — just contiguous register
// columns and tile-image rows (lane j+1's operand sits next to lane j's).
//
// ODR note: everything here is force-inlined.  These templates are
// instantiated under different -m flags per TU; an out-of-line copy picked
// arbitrarily by the linker could carry instructions the running CPU lacks.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/types.hpp"
#include "trace/alu_ops.hpp"

namespace obx::exec {

namespace simd_detail {

/// The machine types of W lanes: unsigned words, and the signed and f64
/// views the compares and float ops reinterpret them as.
template <std::size_t W>
struct Lanes {
  typedef Word U __attribute__((vector_size(sizeof(Word) * W)));
  typedef std::int64_t I __attribute__((vector_size(sizeof(Word) * W)));
  typedef double F __attribute__((vector_size(sizeof(Word) * W)));
};

template <>
struct Lanes<1> {
  using U = Word;
};

/// A compare mask (all-ones / zero per lane) as 1 / 0 words.
template <std::size_t W, class Mask>
OBX_ALWAYS_INLINE typename Lanes<W>::U bits01(Mask m) {
  return std::bit_cast<typename Lanes<W>::U>(m) & Word{1};
}

/// An f64 result as words, with every NaN lane replaced by kCanonicalNaN
/// (the vector form of trace::from_f64_canon).
template <std::size_t W>
OBX_ALWAYS_INLINE typename Lanes<W>::U canon(typename Lanes<W>::F r) {
  using U = typename Lanes<W>::U;
  return r != r ? U{} + trace::kCanonicalNaN : std::bit_cast<U>(r);
}

/// apply_one<OP> over whole W-lane vectors (W > 1).
template <trace::Op OP, std::size_t W>
OBX_ALWAYS_INLINE typename Lanes<W>::U apply(typename Lanes<W>::U x,
                                             typename Lanes<W>::U y,
                                             typename Lanes<W>::U z,
                                             typename Lanes<W>::U d) {
  using trace::Op;
  using I = typename Lanes<W>::I;
  using F = typename Lanes<W>::F;
  (void)y; (void)z; (void)d;
  const F fx = std::bit_cast<F>(x);
  const F fy = std::bit_cast<F>(y);
  const I sx = std::bit_cast<I>(x);
  const I sy = std::bit_cast<I>(y);
  if constexpr (OP == Op::kNop) return d;
  else if constexpr (OP == Op::kAddF) return canon<W>(fx + fy);
  else if constexpr (OP == Op::kSubF) return canon<W>(fx - fy);
  else if constexpr (OP == Op::kMulF) return canon<W>(fx * fy);
  else if constexpr (OP == Op::kDivF) return canon<W>(fx / fy);
  else if constexpr (OP == Op::kMinF) return fx < fy ? x : y;
  else if constexpr (OP == Op::kMaxF) return fx > fy ? x : y;
  else if constexpr (OP == Op::kNegF) return std::bit_cast<typename Lanes<W>::U>(-fx);
  else if constexpr (OP == Op::kAddI) return x + y;  // wrap via unsigned arithmetic
  else if constexpr (OP == Op::kSubI) return x - y;
  else if constexpr (OP == Op::kMulI) return x * y;
  else if constexpr (OP == Op::kMinI) return sx < sy ? x : y;
  else if constexpr (OP == Op::kMaxI) return sx > sy ? x : y;
  else if constexpr (OP == Op::kAnd) return x & y;
  else if constexpr (OP == Op::kOr) return x | y;
  else if constexpr (OP == Op::kXor) return x ^ y;
  else if constexpr (OP == Op::kShl) return x << (y & Word{63});
  else if constexpr (OP == Op::kShr) return x >> (y & Word{63});
  else if constexpr (OP == Op::kNotU) return ~x;
  else if constexpr (OP == Op::kLtF) return bits01<W>(fx < fy);
  else if constexpr (OP == Op::kLeF) return bits01<W>(fx <= fy);
  else if constexpr (OP == Op::kEqF) return bits01<W>(fx == fy);
  else if constexpr (OP == Op::kLtI) return bits01<W>(sx < sy);
  else if constexpr (OP == Op::kLeI) return bits01<W>(sx <= sy);
  else if constexpr (OP == Op::kEqI) return bits01<W>(x == y);
  else if constexpr (OP == Op::kNeI) return bits01<W>(x != y);
  else if constexpr (OP == Op::kLtU) return bits01<W>(x < y);
  else if constexpr (OP == Op::kSelect) return x != Word{0} ? y : z;
  else if constexpr (OP == Op::kCmovLtF) return fx < fy ? z : d;
  else if constexpr (OP == Op::kCmovLtI) return sx < sy ? z : d;
  else if constexpr (OP == Op::kMov) return x;
}

}  // namespace simd_detail

/// W lanes of one register, held in a machine register across a fused group.
template <std::size_t W>
struct Vec {
  using Raw = typename simd_detail::Lanes<W>::U;
  Raw v;

  static OBX_ALWAYS_INLINE Vec load(const Word* p) {
    Vec r;
    std::memcpy(&r.v, p, sizeof(Raw));
    return r;
  }
  static OBX_ALWAYS_INLINE Vec splat(Word x) { return Vec{Raw{} + x}; }
  OBX_ALWAYS_INLINE void store(Word* p) const { std::memcpy(p, &v, sizeof(Raw)); }
};

/// apply_one lane by lane: the full Op set (float ops lane-wise IEEE with
/// canonical NaN, integer ops unsigned-wrap, cmov/select on the d operand).
template <trace::Op OP, std::size_t W>
OBX_ALWAYS_INLINE Vec<W> vapply(Vec<W> x, Vec<W> y, Vec<W> z, Vec<W> d) {
  if constexpr (W == 1) {
    return {trace::apply_one<OP>(x.v, y.v, z.v, d.v)};
  } else {
    return {simd_detail::apply<OP, W>(x.v, y.v, z.v, d.v)};
  }
}

}  // namespace obx::exec
