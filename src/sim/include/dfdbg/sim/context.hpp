// Stackful user-level execution contexts (fibers) for the simulation kernel.
//
// The paper debugs the P2012 *functional simulator*, whose actors run as
// SystemC user-level cooperative threads (QuickThreads): switching between
// them is a register save/restore, invisible to the OS and to a thread-level
// debugger. This file reproduces that substrate. On x86-64 a switch is a
// small assembly routine that saves the callee-saved registers, MXCSR and
// the x87 control word on the current stack, swaps the stack pointer and
// restores the same set from the target stack: no system call, ~20 ns
// (`BM_FiberSwitch`). Other targets fall back to POSIX ucontext
// (`makecontext`/`swapcontext`, which also saves the signal mask with one
// syscall per switch). Each fiber owns an `mmap`'d stack with a PROT_NONE
// guard page below it, so a runaway recursion faults deterministically
// instead of silently corrupting a neighbouring stack.
//
// The kernel keeps three interchangeable process backends:
//   kFibers  (default) — dispatch is one user-space context switch each way;
//                        no OS scheduling on the hot path.
//   kThreads           — the original std::thread + two-semaphore handoff.
//                        Slower by orders of magnitude, but sanitizer- and
//                        valgrind-friendly (those tools do not follow
//                        hand-switched fiber stacks).
//   kParallel          — the graph is partitioned into per-cluster sub-kernels,
//                        each drained by its own worker thread (fibers inside a
//                        partition, a conservative barrier between partitions).
//                        See docs/KERNEL.md "Parallel backend".
// All backends honour the same dispatch ordering (parallel: per partition, and
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
  kThreads,   ///< one OS thread per process, semaphore handoff per dispatch
  kFibers,    ///< user-level stackful contexts, two fiber switches per dispatch
  kParallel,  ///< partitioned sub-kernels on worker threads, barrier-synced
};

/// Returns a short human-readable name for `b` ("threads"/"fibers"/"parallel").
const char* to_string(ProcessBackend b);

/// The backend new kernels use when none is passed to the constructor.
/// Resolution order: set_default_process_backend() override, then the
/// DFDBG_PROCESS_BACKEND environment variable ("threads"/"fibers"/"parallel"),
/// then the compile-time default chosen by the DFDBG_PROCESS_BACKEND CMake
/// option.
[[nodiscard]] ProcessBackend default_process_backend();

/// Worker-thread count new kParallel kernels use when none is passed to the
/// constructor: the DFDBG_PARALLEL_WORKERS environment variable, or 2.
[[nodiscard]] int default_parallel_workers();

/// Substrate simulated processes run on inside a kParallel partition: fibers
/// (default) or parked OS threads when DFDBG_PARALLEL_SUBSTRATE=threads —
/// the sanitizer-friendly variant ThreadSanitizer CI uses, since TSan does
/// not follow fiber stack switches. Scheduling is identical either way.
[[nodiscard]] bool parallel_uses_thread_processes();

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
};

}  // namespace dfdbg::sim
