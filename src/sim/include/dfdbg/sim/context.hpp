// Stackful user-level execution contexts (fibers) for the simulation kernel.
//
// The paper debugs the P2012 *functional simulator*, whose actors run as
// SystemC user-level cooperative threads (its QT coroutines): switching between
// them is a register save/restore, invisible to the OS and to a thread-level
// debugger. This file reproduces that substrate. On x86-64 a switch is a
// small assembly routine that saves the callee-saved registers, MXCSR and
// the x87 control word on the current stack, swaps the stack pointer and
// restores the same set from the target stack: no system call, ~20 ns
// (`BM_FiberSwitch`). Other targets fall back to POSIX ucontext
// (`makecontext`/`swapcontext`, which also saves the signal mask with one
// syscall per switch). Each fiber owns an `mmap`'d stack with a PROT_NONE
// guard page below it, so a runaway recursion faults deterministically
// instead of silently corrupting a neighbouring stack. Under AddressSanitizer
// or ThreadSanitizer every switch is announced to the sanitizer (context.cpp),
// so both check the fibers that ship.
//
// The kernel has two process backends:
//   kFibers  (default) — dispatch is one user-space context switch each way;
//                        no OS scheduling on the hot path.
//   kParallel          — the graph is partitioned into per-cluster sub-kernels,
//                        each drained by its own worker thread (fibers inside a
//                        partition, a conservative barrier between partitions).
//                        See docs/KERNEL.md "Parallel backend".
// Both honour the same dispatch ordering (parallel: per partition, and
// globally under a fixed single-partition map), teardown-by-unwind and public
// API.
#pragma once

#include <cstddef>

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

namespace dfdbg::sim {

/// How the kernel executes simulated processes. See file comment.
enum class ProcessBackend {
  kFibers,    ///< user-level stackful contexts, two fiber switches per dispatch
  kParallel,  ///< partitioned sub-kernels on worker threads, barrier-synced
};

/// Returns a short human-readable name for `b` ("fibers"/"parallel").
const char* to_string(ProcessBackend b);

/// The backend new kernels use when none is passed to the constructor.
/// Resolution order: set_default_process_backend() override, then the
/// DFDBG_PROCESS_BACKEND environment variable ("fibers"/"parallel"), then
/// kFibers.
[[nodiscard]] ProcessBackend default_process_backend();

/// Largest worker-thread count a kParallel kernel accepts, from any source:
/// the constructor, DFDBG_PARALLEL_WORKERS, or a wire `workers` param.
inline constexpr int kMaxParallelWorkers = 256;

/// Worker-thread count new kParallel kernels use when none is passed to the
/// constructor: the DFDBG_PARALLEL_WORKERS environment variable (1..
/// kMaxParallelWorkers), or 2.
[[nodiscard]] int default_parallel_workers();

/// Overrides the process-wide default (benchmarks flip this to measure both
/// backends in one run). Sticky until called again.
void set_default_process_backend(ProcessBackend b);

/// One stackful execution context. Two flavours:
///  - default-constructed: an empty anchor the *scheduler* runs on; it has no
///    stack of its own and is filled by the first switch away from it.
///  - stack-constructed: a fiber with its own guarded stack, prepared so the
///    first switch into it calls `entry(arg)`. `entry` must never return —
///    it hands control back by switching to another context (the kernel
///    switches out of a finished fiber and never re-enters it).
/// A parked context may be resumed from any thread; nothing in a context is
/// tied to the thread that saved it (but code running on a fiber that moves
/// must not reuse a thread-local read from before the switch).
class FiberContext {
 public:
  using Entry = void (*)(void*);

  /// Empty scheduler-side anchor.
  FiberContext();

  /// Fiber with `stack_bytes` of usable stack (rounded up to whole pages)
  /// plus one PROT_NONE guard page below it. Panics if the mapping fails.
  FiberContext(std::size_t stack_bytes, Entry entry, void* arg);

  ~FiberContext();

  FiberContext(const FiberContext&) = delete;
  FiberContext& operator=(const FiberContext&) = delete;

  /// Saves the current context into `from` and resumes `to`. Returns when
  /// some other context switches back into `from`.
  static void switch_to(FiberContext& from, FiberContext& to);

  /// True for stack-constructed fibers.
  [[nodiscard]] bool has_stack() const { return map_base_ != nullptr; }

  /// Usable stack bytes (0 for the scheduler anchor).
  [[nodiscard]] std::size_t stack_bytes() const { return stack_bytes_; }

  /// Stack size used for new simulated processes: the DFDBG_FIBER_STACK_KB
  /// environment variable, or 1 MiB. Virtual memory only — pages are
  /// committed on first touch, so idle processes stay cheap.
  [[nodiscard]] static std::size_t default_stack_bytes();

 private:
  [[noreturn]] static void start(FiberContext* self);
  /// Sanitizer annotations around a swap (no-ops in uninstrumented builds):
  /// begin runs in `from` just before it, end in the context that resumes.
  static void sanitizer_switch_begin(FiberContext& from, FiberContext& to);
  static void sanitizer_switch_end(FiberContext& self);

#if defined(__x86_64__)
  /// Stack pointer saved by the last switch away from this context; the
  /// saved registers sit just above it on the context's own stack.
  void* sp_ = nullptr;
#else
  static void trampoline(unsigned hi, unsigned lo);
  ucontext_t uc_;
#endif
  void* map_base_ = nullptr;   ///< mmap base (guard page included)
  std::size_t map_bytes_ = 0;  ///< total mapping size
  std::size_t stack_bytes_ = 0;
  Entry entry_ = nullptr;
  void* arg_ = nullptr;
#if defined(__SANITIZE_ADDRESS__)
  // The stack ASan sees while this context runs (an anchor learns its
  // thread's stack from each switch out of it), its fake stack while it is
  // switched out, and the context that last switched into it.
  const void* asan_stack_lo_ = nullptr;
  std::size_t asan_stack_size_ = 0;
  void* asan_fake_stack_ = nullptr;
  FiberContext* asan_entered_from_ = nullptr;
#endif
#if defined(__SANITIZE_THREAD__)
  /// TSan's fiber for this context; an anchor's is its thread's current
  /// fiber, captured at each switch out of it.
  void* tsan_fiber_ = nullptr;
#endif
};

}  // namespace dfdbg::sim
