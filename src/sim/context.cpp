#include "dfdbg/sim/context.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "dfdbg/common/assert.hpp"
#include "dfdbg/common/strings.hpp"

namespace dfdbg::sim {

namespace {

std::size_t page_size() {
  static const std::size_t sz = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return sz;
}

std::size_t round_up_pages(std::size_t bytes) {
  std::size_t page = page_size();
  return (bytes + page - 1) / page * page;
}

/// The explicit override, if any. 0 = unset, else 1 + backend enum value.
std::atomic<int> g_backend_override{0};

ProcessBackend compiled_default_backend() {
#if defined(DFDBG_DEFAULT_BACKEND_THREADS)
  return ProcessBackend::kThreads;
#elif defined(DFDBG_DEFAULT_BACKEND_PARALLEL)
  return ProcessBackend::kParallel;
#else
  return ProcessBackend::kFibers;
#endif
}

}  // namespace

const char* to_string(ProcessBackend b) {
  switch (b) {
    case ProcessBackend::kThreads: return "threads";
    case ProcessBackend::kFibers: return "fibers";
    case ProcessBackend::kParallel: return "parallel";
  }
  return "?";
}

ProcessBackend default_process_backend() {
  int ov = g_backend_override.load(std::memory_order_relaxed);
  if (ov != 0) return static_cast<ProcessBackend>(ov - 1);
  // Read the environment on every call (not cached) so tests and the CI
  // harness can steer whole binaries through DFDBG_PROCESS_BACKEND.
  if (const char* env = std::getenv("DFDBG_PROCESS_BACKEND")) {
    if (std::strcmp(env, "threads") == 0) return ProcessBackend::kThreads;
    if (std::strcmp(env, "fibers") == 0) return ProcessBackend::kFibers;
    if (std::strcmp(env, "parallel") == 0) return ProcessBackend::kParallel;
    if (env[0] != '\0')
      panic(__FILE__, __LINE__,
            strformat("DFDBG_PROCESS_BACKEND='%s' (expected 'threads', 'fibers' or 'parallel')",
                      env));
  }
  return compiled_default_backend();
}

void set_default_process_backend(ProcessBackend b) {
  g_backend_override.store(1 + static_cast<int>(b), std::memory_order_relaxed);
}

int default_parallel_workers() {
  // Read on every call (not cached) so tests can sweep worker counts through
  // the environment within one binary.
  if (const char* env = std::getenv("DFDBG_PARALLEL_WORKERS")) {
    long n = std::atol(env);
    if (n >= 1 && n <= 256) return static_cast<int>(n);
    if (env[0] != '\0')
      panic(__FILE__, __LINE__,
            strformat("DFDBG_PARALLEL_WORKERS='%s' (expected 1..256)", env));
  }
  return 2;
}

bool parallel_uses_thread_processes() {
  if (const char* env = std::getenv("DFDBG_PARALLEL_SUBSTRATE")) {
    if (std::strcmp(env, "threads") == 0) return true;
    if (std::strcmp(env, "fibers") == 0) return false;
    if (env[0] != '\0')
      panic(__FILE__, __LINE__,
            strformat("DFDBG_PARALLEL_SUBSTRATE='%s' (expected 'fibers' or 'threads')", env));
  }
  return false;
}

std::size_t FiberContext::default_stack_bytes() {
  static const std::size_t bytes = [] {
    if (const char* env = std::getenv("DFDBG_FIBER_STACK_KB")) {
      long kb = std::atol(env);
      if (kb > 0) return static_cast<std::size_t>(kb) * 1024;
    }
    return std::size_t{1} << 20;  // 1 MiB of (lazily committed) stack
  }();
  return bytes;
}

#if defined(__x86_64__)

// System V AMD64 register-only switch. dfdbg_fiber_switch(from_sp, to_sp)
// pushes the callee-saved registers plus MXCSR and the x87 control word
// (whose control bits the ABI also makes callee-saved), stores rsp into
// *from_sp, loads to_sp and pops the same frame from the target stack; the
// `ret` then resumes the target where it last called this routine. Caller-
// saved registers need no saving: the compiler already treats this as an
// ordinary call. The signal mask is not part of a context (nothing in the
// tree sets one per fiber), so unlike swapcontext a switch never enters the
// kernel. Both stacks hold the same frame layout, so one set of CFI rules
// describes the routine on either side of the swap. The routine does not
// switch a CET shadow stack (swapcontext does), so a process that enforces
// user shadow stacks cannot use it.
//
// A new fiber's stack is seeded with that frame, its return address pointing
// at dfdbg_fiber_start, which calls r12(r13) — FiberContext::start(this) —
// with rsp 16-byte aligned, as the ABI requires at a call. Its return
// address is marked undefined so unwinders and debuggers stop there: it is
// the outermost frame of every fiber stack.
extern "C" {
void dfdbg_fiber_switch(void** from_sp, void* to_sp);
void dfdbg_fiber_start();
}

asm(R"(
  .text
  .p2align 4
  .globl dfdbg_fiber_switch
  .hidden dfdbg_fiber_switch
  .type dfdbg_fiber_switch, @function
dfdbg_fiber_switch:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %rbp, 0
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %rbx, 0
  pushq %r12
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r12, 0
  pushq %r13
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r13, 0
  pushq %r14
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r14, 0
  pushq %r15
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r15, 0
  subq $8, %rsp
  .cfi_adjust_cfa_offset 8
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  .cfi_adjust_cfa_offset -8
  popq %r15
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r15
  popq %r14
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r14
  popq %r13
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r13
  popq %r12
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r12
  popq %rbx
  .cfi_adjust_cfa_offset -8
  .cfi_restore %rbx
  popq %rbp
  .cfi_adjust_cfa_offset -8
  .cfi_restore %rbp
  ret
  .cfi_endproc
  .size dfdbg_fiber_switch, .-dfdbg_fiber_switch

  .p2align 4
  .globl dfdbg_fiber_start
  .hidden dfdbg_fiber_start
  .type dfdbg_fiber_start, @function
dfdbg_fiber_start:
  .cfi_startproc
  .cfi_undefined %rip
  movq %r13, %rdi
  callq *%r12
  ud2
  .cfi_endproc
  .size dfdbg_fiber_start, .-dfdbg_fiber_start
)");

namespace {

/// The frame dfdbg_fiber_switch pops, lowest address first.
struct SwitchFrame {
  std::uint32_t mxcsr;
  std::uint16_t fpu_cw;
  std::uint16_t pad;
  void* r15;
  void* r14;
  void* r13;
  void* r12;
  void* rbx;
  void* rbp;
  void* ret;
};
static_assert(sizeof(SwitchFrame) == 64);

}  // namespace

FiberContext::FiberContext() = default;

#else

FiberContext::FiberContext() { std::memset(&uc_, 0, sizeof uc_); }

#endif

FiberContext::FiberContext(std::size_t stack_bytes, Entry entry, void* arg)
    : entry_(entry), arg_(arg) {
  std::size_t page = page_size();
  stack_bytes_ = round_up_pages(stack_bytes == 0 ? default_stack_bytes() : stack_bytes);
  map_bytes_ = stack_bytes_ + page;  // +1 guard page at the low end
  void* base = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  DFDBG_CHECK_MSG(base != MAP_FAILED, "fiber stack mmap failed");
  // Stacks grow down: protect the lowest page so overflow faults immediately
  // instead of scribbling over whatever the allocator placed below.
  DFDBG_CHECK_MSG(::mprotect(base, page, PROT_NONE) == 0, "fiber guard mprotect failed");
  map_base_ = base;

#if defined(__x86_64__)
  // Seed the first switch's frame 16 bytes below the (page-aligned) top, so
  // rsp is 16-byte aligned when dfdbg_fiber_start makes its call. The fiber
  // starts with the creating thread's floating-point control state, as a
  // getcontext-seeded ucontext would.
  char* top = static_cast<char*>(base) + map_bytes_;
  auto* f = reinterpret_cast<SwitchFrame*>(top - 16 - sizeof(SwitchFrame));
  std::memset(f, 0, sizeof *f);
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(f->mxcsr), "=m"(f->fpu_cw));
  f->r12 = reinterpret_cast<void*>(&FiberContext::start);
  f->r13 = this;
  f->ret = reinterpret_cast<void*>(&dfdbg_fiber_start);
  sp_ = f;
#else
  std::memset(&uc_, 0, sizeof uc_);
  DFDBG_CHECK_MSG(::getcontext(&uc_) == 0, "getcontext failed");
  uc_.uc_stack.ss_sp = static_cast<char*>(base) + page;
  uc_.uc_stack.ss_size = stack_bytes_;
  uc_.uc_link = nullptr;  // entry never returns; see header contract
  // makecontext passes only ints — split `this` across two 32-bit halves.
  auto self = reinterpret_cast<std::uintptr_t>(this);
  ::makecontext(&uc_, reinterpret_cast<void (*)()>(&FiberContext::trampoline), 2,
                static_cast<unsigned>(self >> 32),
                static_cast<unsigned>(self & 0xffffffffu));
#endif
}

FiberContext::~FiberContext() {
  if (map_base_ != nullptr) ::munmap(map_base_, map_bytes_);
}

void FiberContext::start(FiberContext* self) {
  self->entry_(self->arg_);
  panic(__FILE__, __LINE__, "fiber entry returned instead of switching away");
}

#if defined(__x86_64__)

void FiberContext::switch_to(FiberContext& from, FiberContext& to) {
  dfdbg_fiber_switch(&from.sp_, to.sp_);
}

#else

void FiberContext::trampoline(unsigned hi, unsigned lo) {
  start(reinterpret_cast<FiberContext*>((static_cast<std::uintptr_t>(hi) << 32) |
                                        static_cast<std::uintptr_t>(lo)));
}

void FiberContext::switch_to(FiberContext& from, FiberContext& to) {
  DFDBG_CHECK_MSG(::swapcontext(&from.uc_, &to.uc_) == 0, "swapcontext failed");
}

#endif

}  // namespace dfdbg::sim
