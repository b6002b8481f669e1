#include "dfdbg/sim/context.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "dfdbg/common/assert.hpp"
#include "dfdbg/common/strings.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

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

}  // namespace

const char* to_string(ProcessBackend b) {
  switch (b) {
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
    if (std::strcmp(env, "fibers") == 0) return ProcessBackend::kFibers;
    if (std::strcmp(env, "parallel") == 0) return ProcessBackend::kParallel;
    if (env[0] != '\0')
      panic(__FILE__, __LINE__,
            strformat("DFDBG_PROCESS_BACKEND='%s' (expected 'fibers' or 'parallel')", env));
  }
  return ProcessBackend::kFibers;
}

void set_default_process_backend(ProcessBackend b) {
  g_backend_override.store(1 + static_cast<int>(b), std::memory_order_relaxed);
}

int default_parallel_workers() {
  // Read on every call (not cached) so tests can sweep worker counts through
  // the environment within one binary.
  if (const char* env = std::getenv("DFDBG_PARALLEL_WORKERS")) {
    long n = std::atol(env);
    if (n >= 1 && n <= kMaxParallelWorkers) return static_cast<int>(n);
    if (env[0] != '\0')
      panic(__FILE__, __LINE__,
            strformat("DFDBG_PARALLEL_WORKERS='%s' (expected 1..%d)", env, kMaxParallelWorkers));
  }
  return 2;
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
#if defined(__SANITIZE_ADDRESS__)
  asan_stack_lo_ = static_cast<char*>(base) + page;
  asan_stack_size_ = stack_bytes_;
#endif
#if defined(__SANITIZE_THREAD__)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif

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
  if (map_base_ == nullptr) return;
#if defined(__SANITIZE_ADDRESS__)
  // Frames left on a parked fiber keep their redzones poisoned; a later
  // mapping at the same address would inherit them.
  ASAN_UNPOISON_MEMORY_REGION(asan_stack_lo_, asan_stack_size_);
#endif
#if defined(__SANITIZE_THREAD__)
  __tsan_destroy_fiber(tsan_fiber_);
#endif
  ::munmap(map_base_, map_bytes_);
}

// Sanitizer annotations. ASan and TSan each track the stack a thread runs
// on, and a switch moves the thread to another stack behind their backs:
// ASan would check frames against the wrong stack (false overflows, wrong
// bounds when an exception unwinds) and TSan's shadow call stack would mix
// contexts. So each switch is announced: begin in the context being left,
// end in the one that resumes — after the swap in switch_to, or in start()
// on a fiber's first entry. Both compile to nothing in uninstrumented builds.

void FiberContext::sanitizer_switch_begin([[maybe_unused]] FiberContext& from,
                                          [[maybe_unused]] FiberContext& to) {
#if defined(__SANITIZE_ADDRESS__)
  to.asan_entered_from_ = &from;
  __sanitizer_start_switch_fiber(&from.asan_fake_stack_, to.asan_stack_lo_, to.asan_stack_size_);
#endif
#if defined(__SANITIZE_THREAD__)
  // An anchor belongs to whichever thread switches out of it: on the
  // parallel backend a parked fiber may be resumed on another thread.
  if (!from.has_stack()) from.tsan_fiber_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(to.tsan_fiber_, 0);
#endif
}

void FiberContext::sanitizer_switch_end([[maybe_unused]] FiberContext& self) {
#if defined(__SANITIZE_ADDRESS__)
  const void* lo = nullptr;
  std::size_t size = 0;
  __sanitizer_finish_switch_fiber(self.asan_fake_stack_, &lo, &size);
  // An anchor has no stack of its own: the stack just left is its thread's.
  FiberContext& left = *self.asan_entered_from_;
  if (!left.has_stack()) {
    left.asan_stack_lo_ = lo;
    left.asan_stack_size_ = size;
  }
#endif
}

void FiberContext::start(FiberContext* self) {
  sanitizer_switch_end(*self);
  self->entry_(self->arg_);
  panic(__FILE__, __LINE__, "fiber entry returned instead of switching away");
}

#if defined(__x86_64__)

void FiberContext::switch_to(FiberContext& from, FiberContext& to) {
  sanitizer_switch_begin(from, to);
  dfdbg_fiber_switch(&from.sp_, to.sp_);
  sanitizer_switch_end(from);
}

#else

void FiberContext::trampoline(unsigned hi, unsigned lo) {
  start(reinterpret_cast<FiberContext*>((static_cast<std::uintptr_t>(hi) << 32) |
                                        static_cast<std::uintptr_t>(lo)));
}

void FiberContext::switch_to(FiberContext& from, FiberContext& to) {
  sanitizer_switch_begin(from, to);
  DFDBG_CHECK_MSG(::swapcontext(&from.uc_, &to.uc_) == 0, "swapcontext failed");
  sanitizer_switch_end(from);
}

#endif

}  // namespace dfdbg::sim
