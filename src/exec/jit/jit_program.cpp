#include "exec/jit/jit_program.hpp"

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "common/check.hpp"
#include "exec/backend_detail.hpp"
#include "exec/jit/kernel_table.hpp"

namespace obx::exec {

bool jit_platform_supported() {
#if defined(__x86_64__) && defined(__linux__)
  return true;
#else
  return false;
#endif
}

bool jit_enabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("OBX_JIT");
    if (env == nullptr) return true;
    const std::string_view v(env);
    return !(v == "0" || v == "off" || v == "false");
  }();
  return enabled;
}

bool jit_available() { return jit_platform_supported() && jit_enabled(); }

#if defined(__x86_64__) && defined(__linux__)

namespace {

// Byte budget of the emitted template (see the header comment for the
// instruction sequence).  kPerOpBytes is the worst case — the imm64
// kernel-call form; when the arena lands within rel32 reach of the kernels
// (the hinted mmap makes this the common case) each op is 7 bytes shorter.
// SysV stack discipline checks out: entry rsp is 8 mod 16, `push rbx` makes
// it 0 mod 16, so every patched `call` hands the kernel a correctly aligned
// frame.
constexpr std::size_t kPrologueBytes = 4;  // push rbx; mov rbx, rdi
constexpr std::size_t kPerOpBytes = 35;    // 3 movabs + mov + call rax
constexpr std::size_t kEpilogueBytes = 2;  // pop rbx; ret

std::uint8_t* put(std::uint8_t* c, std::initializer_list<std::uint8_t> bytes) {
  for (const std::uint8_t b : bytes) *c++ = b;
  return c;
}

std::uint8_t* put_imm64(std::uint8_t* c, std::uint64_t v) {
  std::memcpy(c, &v, sizeof(v));
  return c + sizeof(v);
}

template <class T>
std::uint64_t addr_of(const T* p) {
  return reinterpret_cast<std::uint64_t>(p);
}

// call <kernel>: a direct rel32 call (statically predicted, 5 bytes) when
// the target is within ±2 GiB of the call site, else the indirect imm64
// form (12 bytes).  The displacement is measured from the end of the rel32
// instruction, i.e. c + 5.
std::uint8_t* put_call(std::uint8_t* c, jit::KernelFn fn) {
  const auto target = reinterpret_cast<std::int64_t>(fn);
  const auto next_ip = static_cast<std::int64_t>(addr_of(c)) + 5;
  const std::int64_t rel = target - next_ip;
  if (rel >= INT32_MIN && rel <= INT32_MAX) {
    c = put(c, {0xE8});  // call rel32
    const auto rel32 = static_cast<std::int32_t>(rel);
    std::memcpy(c, &rel32, sizeof(rel32));
    return c + sizeof(rel32);
  }
  c = put(c, {0x48, 0xB8});  // movabs rax, <kernel>
  c = put_imm64(c, static_cast<std::uint64_t>(target));
  return put(c, {0xFF, 0xD0});  // call rax
}

}  // namespace

std::shared_ptr<const JitProgram> JitProgram::emit(
    std::shared_ptr<const CompiledProgram> compiled, SimdIsa isa) {
  if (compiled == nullptr || !jit_available()) return nullptr;
  const jit::KernelTable* table = jit::kernel_table_for(isa);
  if (table == nullptr) return nullptr;

  std::size_t total = 0;
  for (const CompiledProgram::Segment& seg : compiled->segments()) {
    total += kPrologueBytes + seg.ops.size() * kPerOpBytes + kEpilogueBytes;
  }

  auto jp = std::shared_ptr<JitProgram>(new JitProgram());
  jp->compiled_ = std::move(compiled);
  jp->isa_ = isa;
  if (total == 0) return jp;  // empty program: nothing to emit, nothing to run
  // Hint the arena next to the kernel text so rel32 calls usually reach.
  const auto near_hint =
      reinterpret_cast<const void*>(reinterpret_cast<std::uintptr_t>(table->load));
  if (!jp->arena_.allocate(total, near_hint)) return nullptr;

  std::uint8_t* c = jp->arena_.data();
  for (const CompiledProgram::Segment& seg : jp->compiled_->segments()) {
    jp->entries_.push_back(reinterpret_cast<SegmentEntry>(c));
    c = put(c, {0x53});              // push rbx
    c = put(c, {0x48, 0x89, 0xFB});  // mov rbx, rdi   (rbx = Tile*)
    const trace::Step* runs = seg.run_steps.data();
    for (const opt::FusedOp& f : seg.ops) {
      const jit::KernelFn fn = table->select(f);
      if (fn == nullptr) return nullptr;
      c = put(c, {0x48, 0x89, 0xDF});  // mov rdi, rbx
      c = put(c, {0x48, 0xBE});        // movabs rsi, <FusedOp*>
      c = put_imm64(c, addr_of(&f));
      c = put(c, {0x48, 0xBA});        // movabs rdx, <run Step*>
      c = put_imm64(c, addr_of(runs + f.run_begin));
      c = put_call(c, fn);             // call <kernel> (rel32 or imm64 form)
      jp->patch_count_ += 3;
    }
    c = put(c, {0x5B});  // pop rbx
    c = put(c, {0xC3});  // ret
  }
  jp->code_bytes_ = static_cast<std::size_t>(c - jp->arena_.data());
  OBX_CHECK(jp->code_bytes_ <= total, "JIT emitter overran its size estimate");
  if (!jp->arena_.seal()) return nullptr;
  return jp;
}

#else  // non-x86-64 / non-Linux: emission always reports failure.

std::shared_ptr<const JitProgram> JitProgram::emit(
    std::shared_ptr<const CompiledProgram>, SimdIsa) {
  return nullptr;
}

#endif

std::shared_ptr<const JitProgram> JitProgram::get_or_emit(
    const trace::Program& program, std::shared_ptr<const CompiledProgram> compiled,
    SimdIsa isa) {
  if (compiled == nullptr || !jit_available()) return nullptr;
  const std::shared_ptr<trace::ExecCacheSlot> slot = program.exec_cache;
  const auto idx = static_cast<std::size_t>(isa);
  if (slot == nullptr || idx >= trace::ExecCacheSlot::kJitTiers) {
    return emit(std::move(compiled), isa);
  }
  std::lock_guard lock(slot->mutex);
  if (slot->jit_attempted[idx]) {
    return std::static_pointer_cast<const JitProgram>(slot->jit_artifact[idx]);
  }
  slot->jit_attempted[idx] = true;
  std::shared_ptr<const JitProgram> jp = emit(std::move(compiled), isa);
  slot->jit_artifact[idx] = jp;
  return jp;
}

void run_jit_chunk(const JitProgram& jit, std::span<const Word> inputs,
                   std::size_t input_words, const TileSink& sink, Lane lane_begin,
                   Lane lane_end, std::size_t tile_lanes) {
  detail::run_tiles(jit.compiled(), inputs, input_words, sink, lane_begin, lane_end,
                    tile_lanes, [&](const detail::Tile& t) {
                      for (const JitProgram::SegmentEntry entry : jit.entries()) entry(&t);
                    });
}

}  // namespace obx::exec
