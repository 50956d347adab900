// ALU op semantics with the opcode resolved at compile time.
//
// The one definition of what every trace::Op computes on a lane:
// apply_one<OP> is the constexpr-op form that fused kernels and vector lane
// loops inline; dispatch_op hoists the runtime opcode switch out of lane
// loops by re-entering a generic lambda with the op as an
// integral_constant.  trace::apply_alu and trace::bulk_alu are thin wrappers
// over these, as are every compiled-backend kernel — so integer wrap
// (unsigned two's-complement), lane-wise IEEE double semantics, and the
// cmov/select family behave bit-identically in every engine at every vector
// width.
//
// apply_one is force-inlined: SIMD translation units compile it under
// different target flags, and an out-of-line copy picked arbitrarily by the
// linker could carry instructions the running CPU lacks.
#pragma once

#include <type_traits>

#include "common/check.hpp"
#include "common/types.hpp"
#include "trace/step.hpp"
#include "trace/value.hpp"

#if defined(__GNUC__)
#define OBX_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define OBX_ALWAYS_INLINE inline
#endif

namespace obx::trace {

/// The single quiet-NaN bit pattern every engine produces for a NaN
/// arithmetic result.
inline constexpr Word kCanonicalNaN = Word{0x7ff8000000000000ULL};

/// Bit-casts an arithmetic result back to a Word, canonicalizing NaN.
/// Hardware NaN-payload propagation picks a payload from the *first* source
/// operand of the instruction — and the compiler may commute a `+` or `*`
/// differently in scalar codegen than in a vector kernel's copy of this
/// same expression, so two engines computing `a + b` on two NaNs can return
/// different bit patterns.  Collapsing every NaN result to one canonical
/// pattern is what makes "bit-identical in every engine at every vector
/// width" true for the float ops (found by check::run_fuzz, sse2 vs scalar).
OBX_ALWAYS_INLINE Word from_f64_canon(double r) {
  return r != r ? kCanonicalNaN : from_f64(r);
}

/// apply_alu with the op as a template parameter: `x op y` (z = second
/// ternary operand, d = old destination for the cmov family).
template <Op OP>
OBX_ALWAYS_INLINE Word apply_one(Word x, Word y, Word z, Word d) {
  (void)x; (void)y; (void)z; (void)d;
  if constexpr (OP == Op::kNop) return d;
  else if constexpr (OP == Op::kAddF) return from_f64_canon(as_f64(x) + as_f64(y));
  else if constexpr (OP == Op::kSubF) return from_f64_canon(as_f64(x) - as_f64(y));
  else if constexpr (OP == Op::kMulF) return from_f64_canon(as_f64(x) * as_f64(y));
  else if constexpr (OP == Op::kDivF) return from_f64_canon(as_f64(x) / as_f64(y));
  else if constexpr (OP == Op::kMinF) return from_f64(as_f64(x) < as_f64(y) ? as_f64(x) : as_f64(y));
  else if constexpr (OP == Op::kMaxF) return from_f64(as_f64(x) > as_f64(y) ? as_f64(x) : as_f64(y));
  else if constexpr (OP == Op::kNegF) return from_f64(-as_f64(x));
  else if constexpr (OP == Op::kAddI) return x + y;  // wrap via unsigned arithmetic
  else if constexpr (OP == Op::kSubI) return x - y;
  else if constexpr (OP == Op::kMulI) return x * y;
  else if constexpr (OP == Op::kMinI) return from_i64(as_i64(x) < as_i64(y) ? as_i64(x) : as_i64(y));
  else if constexpr (OP == Op::kMaxI) return from_i64(as_i64(x) > as_i64(y) ? as_i64(x) : as_i64(y));
  else if constexpr (OP == Op::kAnd) return x & y;
  else if constexpr (OP == Op::kOr) return x | y;
  else if constexpr (OP == Op::kXor) return x ^ y;
  else if constexpr (OP == Op::kShl) return x << (y & 63);
  else if constexpr (OP == Op::kShr) return x >> (y & 63);
  else if constexpr (OP == Op::kNotU) return ~x;
  else if constexpr (OP == Op::kLtF) return from_bool(as_f64(x) < as_f64(y));
  else if constexpr (OP == Op::kLeF) return from_bool(as_f64(x) <= as_f64(y));
  else if constexpr (OP == Op::kEqF) return from_bool(as_f64(x) == as_f64(y));
  else if constexpr (OP == Op::kLtI) return from_bool(as_i64(x) < as_i64(y));
  else if constexpr (OP == Op::kLeI) return from_bool(as_i64(x) <= as_i64(y));
  else if constexpr (OP == Op::kEqI) return from_bool(x == y);
  else if constexpr (OP == Op::kNeI) return from_bool(x != y);
  else if constexpr (OP == Op::kLtU) return from_bool(x < y);
  else if constexpr (OP == Op::kSelect) return x != 0 ? y : z;
  else if constexpr (OP == Op::kCmovLtF) return as_f64(x) < as_f64(y) ? z : d;
  else if constexpr (OP == Op::kCmovLtI) return as_i64(x) < as_i64(y) ? z : d;
  else if constexpr (OP == Op::kMov) return x;
}

/// Invokes f(integral_constant<Op, op>{}) — resolves a runtime opcode into a
/// compile-time one exactly once, outside the lane loop.
template <class F>
OBX_ALWAYS_INLINE void dispatch_op(Op op, F&& f) {
#define OBX_TRACE_OP(O)                             \
  case Op::O:                                       \
    f(std::integral_constant<Op, Op::O>{});         \
    return;
  switch (op) {
    OBX_TRACE_OP(kNop)
    OBX_TRACE_OP(kAddF)
    OBX_TRACE_OP(kSubF)
    OBX_TRACE_OP(kMulF)
    OBX_TRACE_OP(kDivF)
    OBX_TRACE_OP(kMinF)
    OBX_TRACE_OP(kMaxF)
    OBX_TRACE_OP(kNegF)
    OBX_TRACE_OP(kAddI)
    OBX_TRACE_OP(kSubI)
    OBX_TRACE_OP(kMulI)
    OBX_TRACE_OP(kMinI)
    OBX_TRACE_OP(kMaxI)
    OBX_TRACE_OP(kAnd)
    OBX_TRACE_OP(kOr)
    OBX_TRACE_OP(kXor)
    OBX_TRACE_OP(kShl)
    OBX_TRACE_OP(kShr)
    OBX_TRACE_OP(kNotU)
    OBX_TRACE_OP(kLtF)
    OBX_TRACE_OP(kLeF)
    OBX_TRACE_OP(kEqF)
    OBX_TRACE_OP(kLtI)
    OBX_TRACE_OP(kLeI)
    OBX_TRACE_OP(kEqI)
    OBX_TRACE_OP(kNeI)
    OBX_TRACE_OP(kLtU)
    OBX_TRACE_OP(kSelect)
    OBX_TRACE_OP(kCmovLtF)
    OBX_TRACE_OP(kCmovLtI)
    OBX_TRACE_OP(kMov)
  }
#undef OBX_TRACE_OP
  OBX_CHECK(false, "unknown ALU op");
}

}  // namespace obx::trace
