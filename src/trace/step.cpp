#include "trace/step.hpp"

#include <sstream>

#include "common/check.hpp"
#include "trace/alu_ops.hpp"
#include "trace/value.hpp"

namespace obx::trace {

Step Step::imm_f64(std::uint8_t dst, double value) {
  return immediate(dst, from_f64(value));
}

Word apply_alu(Op op, Word a, Word b, Word c, Word old_dst) {
  Word result = old_dst;
  dispatch_op(op, [&](auto opc) {
    constexpr Op OP = decltype(opc)::value;
    result = apply_one<OP>(a, b, c, old_dst);
  });
  return result;
}

void bulk_alu(Op op, Word* dst, const Word* a, const Word* b, const Word* c,
              std::size_t count) {
  dispatch_op(op, [&](auto opc) {
    constexpr Op OP = decltype(opc)::value;
    for (std::size_t i = 0; i < count; ++i) {
      dst[i] = apply_one<OP>(a[i], b[i], c[i], dst[i]);
    }
  });
}

std::string to_string(Op op) {
  switch (op) {
    case Op::kNop: return "nop";
    case Op::kAddF: return "addf";
    case Op::kSubF: return "subf";
    case Op::kMulF: return "mulf";
    case Op::kDivF: return "divf";
    case Op::kMinF: return "minf";
    case Op::kMaxF: return "maxf";
    case Op::kNegF: return "negf";
    case Op::kAddI: return "addi";
    case Op::kSubI: return "subi";
    case Op::kMulI: return "muli";
    case Op::kMinI: return "mini";
    case Op::kMaxI: return "maxi";
    case Op::kAnd: return "and";
    case Op::kOr: return "or";
    case Op::kXor: return "xor";
    case Op::kShl: return "shl";
    case Op::kShr: return "shr";
    case Op::kNotU: return "not";
    case Op::kLtF: return "ltf";
    case Op::kLeF: return "lef";
    case Op::kEqF: return "eqf";
    case Op::kLtI: return "lti";
    case Op::kLeI: return "lei";
    case Op::kEqI: return "eqi";
    case Op::kNeI: return "nei";
    case Op::kLtU: return "ltu";
    case Op::kSelect: return "select";
    case Op::kCmovLtF: return "cmovltf";
    case Op::kCmovLtI: return "cmovlti";
    case Op::kMov: return "mov";
  }
  return "?";
}

std::string to_string(const Step& step) {
  std::ostringstream os;
  switch (step.kind) {
    case StepKind::kLoad:
      os << "load r" << int{step.dst} << ", [" << step.addr << ']';
      break;
    case StepKind::kStore:
      os << "store [" << step.addr << "], r" << int{step.src0};
      break;
    case StepKind::kAlu:
      os << to_string(step.op) << " r" << int{step.dst} << ", r" << int{step.src0} << ", r"
         << int{step.src1} << ", r" << int{step.src2};
      break;
    case StepKind::kImm:
      os << "imm r" << int{step.dst} << ", 0x" << std::hex << step.imm;
      break;
  }
  return os.str();
}

}  // namespace obx::trace
