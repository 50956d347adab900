// The oblivious-program instruction set.
//
// A Step is one time unit of the sequential RAM of the paper: either a memory
// access at a *fixed* canonical address (data independence is structural —
// the address is a field of the instruction, never computed from register
// contents), or a register-only ALU operation.  Bulk executors apply each
// step across all p lanes in lockstep.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace obx::trace {

enum class StepKind : std::uint8_t {
  kLoad,   ///< reg[dst] = mem[addr]
  kStore,  ///< mem[addr] = reg[src0]
  kAlu,    ///< reg[dst] = op(reg[src0], reg[src1], reg[src2], reg[dst])
  kImm,    ///< reg[dst] = imm
};

enum class Op : std::uint8_t {
  kNop,
  // IEEE-double arithmetic (operands/result bit-cast).
  kAddF,
  kSubF,
  kMulF,
  kDivF,
  kMinF,
  kMaxF,
  kNegF,
  // Two's-complement signed 64-bit arithmetic.
  kAddI,
  kSubI,
  kMulI,
  kMinI,
  kMaxI,
  // Raw 64-bit / bitwise.
  kAnd,
  kOr,
  kXor,
  kShl,  ///< dst = src0 << (src1 & 63)
  kShr,  ///< dst = src0 >> (src1 & 63)  (logical)
  kNotU,
  // Comparisons producing Word 0/1.
  kLtF,
  kLeF,
  kEqF,
  kLtI,
  kLeI,
  kEqI,
  kNeI,
  kLtU,
  // Ternary / conditional data movement (the oblivious "if" of the paper:
  // both branches take the same time and touch no memory).
  kSelect,   ///< dst = (src0 != 0) ? src1 : src2
  kCmovLtF,  ///< dst = (f64(src0) < f64(src1)) ? src2 : dst
  kCmovLtI,  ///< dst = (i64(src0) < i64(src1)) ? src2 : dst
  kMov,      ///< dst = src0
};

struct Step {
  StepKind kind = StepKind::kAlu;
  Op op = Op::kNop;
  std::uint8_t dst = 0;
  std::uint8_t src0 = 0;
  std::uint8_t src1 = 0;
  std::uint8_t src2 = 0;
  Addr addr = 0;
  Word imm = 0;

  static Step load(std::uint8_t dst, Addr addr) {
    Step s;
    s.kind = StepKind::kLoad;
    s.dst = dst;
    s.addr = addr;
    return s;
  }
  static Step store(Addr addr, std::uint8_t src) {
    Step s;
    s.kind = StepKind::kStore;
    s.src0 = src;
    s.addr = addr;
    return s;
  }
  static Step alu(Op op, std::uint8_t dst, std::uint8_t a, std::uint8_t b = 0,
                  std::uint8_t c = 0) {
    Step s;
    s.kind = StepKind::kAlu;
    s.op = op;
    s.dst = dst;
    s.src0 = a;
    s.src1 = b;
    s.src2 = c;
    return s;
  }
  static Step immediate(std::uint8_t dst, Word value) {
    Step s;
    s.kind = StepKind::kImm;
    s.dst = dst;
    s.imm = value;
    return s;
  }
  static Step imm_f64(std::uint8_t dst, double value);

  bool is_memory() const { return kind == StepKind::kLoad || kind == StepKind::kStore; }

  bool operator==(const Step&) const = default;
};

/// Applies an ALU op: returns the new value of the destination register.
/// `old_dst` feeds the cmov family, which may leave the destination unchanged.
Word apply_alu(Op op, Word a, Word b, Word c, Word old_dst);

/// Applies one ALU op across `count` lanes: dst[i] = op(a[i], b[i], c[i],
/// dst[i]).  The op dispatch is hoisted out of the lane loop, so each lane
/// costs one inlined apply_one.  This is the interpreted engine's ALU sweep:
/// one baseline-flags loop with no SIMD tier (the compiled engines run the
/// per-tier vector kernels of src/exec instead).
void bulk_alu(Op op, Word* dst, const Word* a, const Word* b, const Word* c,
              std::size_t count);

std::string to_string(const Step& step);
std::string to_string(Op op);

}  // namespace obx::trace
