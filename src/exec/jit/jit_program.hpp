// Copy-and-patch JIT over fused segments: the zero-dispatch execution engine.
//
// The compiled backend (exec/backend.cpp) still pays two switches per fused
// op per tile: the segment loop's FusedKind switch and dispatch_op's opcode
// switch inside the op-dispatching kernels.  The JIT removes both.  For each
// CompiledProgram segment it emits straight-line x86-64 code — one patched
// call per fused op — into a W^X CodeArena:
//
//   push rbx              ; prologue: rbx carries the Tile* across calls
//   mov  rbx, rdi
//   ...per fused op...
//   mov    rdi, rbx       ; arg0 = Tile*
//   movabs rsi, <FusedOp*>; arg1 = this op (patched immediate)
//   movabs rdx, <Step*>   ; arg2 = its run-step body (patched immediate)
//   call   <kernel>       ; opcode-specialized entry (patched rel32 when the
//   ...                   ; arena landed within ±2 GiB of the kernel text —
//   pop  rbx              ; the hinted mmap makes that the common case —
//   ret                   ; else patched imm64: movabs rax + call rax)
//
// The kernel bodies are not generated: they are the pre-compiled,
// width-specialized kernels of backend_kernels.hpp (the per-ISA w1/w2/avx2/
// avx512 TUs), reached through jit::KernelTable with the opcode bound at
// C++-compile time — copy-and-patch at call-thunk granularity.  The patched
// FusedOp/Step pointers stay valid because a JitProgram keeps its
// CompiledProgram (immutable, shared) alive.
//
// Emission is memoised per (program, ISA) through the same
// trace::ExecCacheSlot that memoises the compile, so executors and plans
// share one emitted artifact per process.  Any failure — unsupported
// platform, OBX_JIT=0, mmap/mprotect refusal, an op the table lacks —
// returns null and callers fall back to the compiled-switch backend (then
// the interpreter), which is why every current platform stays green.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/simd_isa.hpp"
#include "common/types.hpp"
#include "exec/backend.hpp"
#include "exec/compiled_program.hpp"
#include "exec/jit/code_arena.hpp"

namespace obx::exec {

namespace detail {
struct Tile;
}

/// True when this build/OS can emit and execute native code (x86-64 Linux).
bool jit_platform_supported();

/// False when the OBX_JIT environment variable is "0"/"off"/"false" — the
/// kill switch.  Latched on first call, like OBX_SIMD, so one process never
/// mixes engines behind a cached plan's back.
bool jit_enabled();

/// jit_platform_supported() && jit_enabled(): whether emission may succeed.
bool jit_available();

class JitProgram {
 public:
  /// One emitted segment body: runs every fused op of that segment over the
  /// tile, straight-line, zero dispatch.
  using SegmentEntry = void (*)(const detail::Tile*);

  /// Emits native code for every segment of `compiled` against the kernel
  /// table of `isa` (degraded to the widest set this binary has, mirroring
  /// the switch backend).  Null on any failure; never throws.
  static std::shared_ptr<const JitProgram> emit(
      std::shared_ptr<const CompiledProgram> compiled, SimdIsa isa);

  /// emit(), memoised per (program, ISA) through program.exec_cache — the
  /// same slot that memoises the compile, so every executor and plan shares
  /// one emitted artifact per process.  A failed emission is remembered and
  /// not retried.  `compiled` should be the slot's own memoised artifact
  /// (CompiledProgram::get_or_compile); callers holding a privately-compiled
  /// program should use emit() directly.
  static std::shared_ptr<const JitProgram> get_or_emit(
      const trace::Program& program,
      std::shared_ptr<const CompiledProgram> compiled, SimdIsa isa);

  const std::vector<SegmentEntry>& entries() const { return entries_; }
  const CompiledProgram& compiled() const { return *compiled_; }
  std::size_t code_bytes() const { return code_bytes_; }
  /// Operands filled in during emission — three per fused op: the FusedOp*
  /// and its run-step body (imm64), and the kernel entry (rel32 or imm64).
  std::size_t patch_count() const { return patch_count_; }
  SimdIsa isa() const { return isa_; }

 private:
  JitProgram() = default;

  std::shared_ptr<const CompiledProgram> compiled_;
  std::vector<SegmentEntry> entries_;
  std::size_t code_bytes_ = 0;
  std::size_t patch_count_ = 0;
  SimdIsa isa_ = SimdIsa::kScalar;
  jit::CodeArena arena_;
};

/// Executes emitted code over lanes [lane_begin, lane_end), tile by tile —
/// the JIT twin of run_compiled_chunk, through the same tile loop (tile
/// image, scratch, epilogue and thread-safety contract).  The SIMD tier is
/// baked into the emitted code, so there is no isa parameter.
void run_jit_chunk(const JitProgram& jit, std::span<const Word> inputs,
                   std::size_t input_words, const TileSink& sink, Lane lane_begin,
                   Lane lane_end, std::size_t tile_lanes);

}  // namespace obx::exec
