// A simulated process: the kernel's unit of execution. Mirrors SystemC
// SC_THREADs — user-level cooperative threads that a conventional
// thread-level debugger cannot see individually (the paper's §VI-F point).
//
// Each process runs on a stackful fiber (see context.hpp and docs/KERNEL.md)
// that its scheduler — the kernel's, or a partition worker's on the parallel
// backend — swaps into directly.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "dfdbg/common/ids.hpp"
#include "dfdbg/sim/context.hpp"
#include "dfdbg/sim/time.hpp"

namespace dfdbg::sim {

class Kernel;

struct ProcessIdTag {};
/// Stable identifier of a simulated process.
using ProcessId = dfdbg::Id<ProcessIdTag>;

/// Lifecycle states of a simulated process.
enum class ProcessState {
  kReady,         ///< In the ready queue, will run when scheduled.
  kRunning,       ///< Currently executing (at most one at any instant).
  kWaitingEvent,  ///< Blocked on an Event.
  kWaitingTime,   ///< Blocked until a simulated time.
  kTerminated,    ///< Body returned (or process killed at shutdown).
};

/// Returns a short human-readable name for `s`.
const char* to_string(ProcessState s);

/// A cooperative process. Created via Kernel::spawn; lifetime managed by the
/// kernel. Exactly one process runs at a time, which gives the deterministic
/// token ordering the dataflow debugger relies on.
class Process {
 public:
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] ProcessId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] ProcessState state() const { return state_; }

  /// Partition this process belongs to (always 0 outside the parallel
  /// backend). Fixed at spawn.
  [[nodiscard]] int partition() const { return shard_; }

  /// Total simulated cycles this process spent advancing time.
  [[nodiscard]] SimTime consumed_time() const { return consumed_time_; }

  /// Number of times this process has been scheduled in.
  [[nodiscard]] std::uint64_t activation_count() const { return activations_; }

  /// Observed wall nanoseconds spent inside this process's dispatches
  /// (scheduled in -> yielded back), accumulated only on the parallel
  /// backend while obs::enabled() — 0 on unobserved or sequential runs
  /// (sequential dispatch skips the clock reads: nothing consumes the
  /// data there). A measurement, never schedule input; it feeds
  /// Application::dispatch_time_profile() for time-weighted partitioning.
  [[nodiscard]] std::uint64_t consumed_wall_ns() const { return consumed_wall_ns_; }

 private:
  friend class Kernel;
  Process(Kernel* kernel, ProcessId id, std::string name, std::function<void()> body);

  /// Runs `body_` on the fiber's own stack, then hands control back to the
  /// scheduler permanently. Never returns.
  void fiber_main();
  static void fiber_entry(void* self);

  /// Yields the CPU back to the kernel scheduler and blocks until the kernel
  /// hands control back. Throws Killed at kernel teardown.
  void park();

  Kernel* kernel_;
  ProcessId id_;
  std::string name_;
  std::function<void()> body_;
  ProcessState state_ = ProcessState::kReady;
  SimTime wake_time_ = 0;
  SimTime consumed_time_ = 0;
  std::uint64_t activations_ = 0;
  std::uint64_t consumed_wall_ns_ = 0;  ///< obs-gated; see consumed_wall_ns()
  std::uint64_t wait_seq_ = 0;  ///< tie-break for deterministic timed wakeups
  int shard_ = 0;               ///< parallel backend: owning partition

  std::uint32_t jname_ = UINT32_MAX;  ///< name_'s id in Kernel::journal(), set at spawn

  std::unique_ptr<FiberContext> fiber_;
  FiberContext* resume_anchor_ = nullptr;  ///< context park() yields back to
  bool fiber_started_ = false;  ///< the fiber has been entered at least once
};

}  // namespace dfdbg::sim
