// The instrumentation port: this repository's stand-in for attaching GDB to
// the simulator process.
//
// In the paper, the debugger sets *function breakpoints* at the entry and
// exit of the dataflow framework's API functions and parses the relevant
// arguments "based on the API definition, calling conventions and debug
// information" (DWARF). The framework itself is NOT modified.
//
// Running everything in one host process, we cannot plant real INT3
// breakpoints, so the simulator exposes this port instead: framework
// functions report (symbol, raw argument values) at entry/exit, exactly the
// data a breakpoint + DWARF parse would yield. The framework declares each
// symbol's argument layout when it interns the symbol (its "debug
// information"). The debugger resolves the symbol by name and each argument
// it needs to a position in that layout once, when it plants a hook, as GDB
// resolves DWARF locations when it sets a breakpoint; a hook then reads its
// arguments by index and never by name. Enter hooks are function
// breakpoints, exit hooks the paper's *finish breakpoints*. When nothing is
// attached the fast path is a single branch, so the framework stays
// debugger-agnostic.
//
// "Framework cooperation" (§V, option 2 — left unimplemented in the paper,
// built here as an extension): the framework can additionally report a
// per-instance symbol (e.g. the link or actor the call concerns), letting
// the debugger arm breakpoints for the actors of interest only.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dfdbg/common/assert.hpp"
#include "dfdbg/common/ids.hpp"
#include "dfdbg/common/strings.hpp"
#include "dfdbg/obs/metrics.hpp"

namespace dfdbg::sim {

class Kernel;

struct SymbolIdTag {};
/// Dense id of an interned function (or instance) symbol.
using SymbolId = dfdbg::Id<SymbolIdTag>;

struct HookIdTag {};
/// Identifier of one registered hook (function or finish breakpoint).
using HookId = dfdbg::Id<HookIdTag>;

/// One function argument (or return value) as the debugger would recover it
/// from registers/stack plus DWARF type info.
struct ArgValue {
  enum class Kind : std::uint8_t { kNone, kI64, kU64, kF64, kPtr, kStr };

  const char* name = "";
  Kind kind = Kind::kNone;
  std::int64_t i64 = 0;
  std::uint64_t u64 = 0;
  double f64 = 0.0;
  void* ptr = nullptr;
  const char* str = nullptr;

  static ArgValue of_i64(const char* n, std::int64_t v) {
    ArgValue a;
    a.name = n;
    a.kind = Kind::kI64;
    a.i64 = v;
    return a;
  }
  static ArgValue of_u64(const char* n, std::uint64_t v) {
    ArgValue a;
    a.name = n;
    a.kind = Kind::kU64;
    a.u64 = v;
    return a;
  }
  static ArgValue of_f64(const char* n, double v) {
    ArgValue a;
    a.name = n;
    a.kind = Kind::kF64;
    a.f64 = v;
    return a;
  }
  static ArgValue of_ptr(const char* n, void* v) {
    ArgValue a;
    a.name = n;
    a.kind = Kind::kPtr;
    a.ptr = v;
    return a;
  }
  static ArgValue of_str(const char* n, const char* v) {
    ArgValue a;
    a.name = n;
    a.kind = Kind::kStr;
    a.str = v;
    return a;
  }
};

/// Position of one argument in its symbol's declared layout: where a hook
/// finds that argument, resolved once by InstrumentPort::param() when the
/// hook is planted.
struct ArgPos {
  std::uint32_t index = 0;
};

/// The view a hook receives when its breakpoint triggers.
class Frame {
 public:
  Frame(Kernel& kernel, SymbolId symbol, std::string_view symbol_name,
        std::span<const ArgValue> args, const ArgValue* ret)
      : kernel_(kernel), symbol_(symbol), symbol_name_(symbol_name), args_(args), ret_(ret) {}

  [[nodiscard]] Kernel& kernel() const { return kernel_; }
  [[nodiscard]] SymbolId symbol() const { return symbol_; }
  [[nodiscard]] std::string_view symbol_name() const { return symbol_name_; }
  [[nodiscard]] std::span<const ArgValue> args() const { return args_; }

  /// Argument at a position resolved when the hook was planted.
  [[nodiscard]] const ArgValue& arg(ArgPos pos) const {
    DFDBG_DCHECK(pos.index < args_.size());
    return args_[pos.index];
  }
  /// Argument by name, nullptr if absent: a scan of the argument pack, for
  /// consumers without resolved positions (TraceCollector, tests).
  [[nodiscard]] const ArgValue* arg(std::string_view name) const;

  /// Return value — non-null only in exit (finish-breakpoint) hooks.
  [[nodiscard]] const ArgValue* ret() const { return ret_; }

 private:
  Kernel& kernel_;
  SymbolId symbol_;
  std::string_view symbol_name_;
  std::span<const ArgValue> args_;
  const ArgValue* ret_;
};

/// Hook callback. Runs synchronously on the simulated process that executed
/// the framework function; may call Kernel::debug_break() to stop, which
/// parks that process inside the hook until the next run. While it is
/// parked the debugger may add or remove hooks, this one included: the port
/// keeps each callable on the heap, where registering more hooks never moves
/// it, and frees a removed one only when its last running invocation returns.
using Hook = std::function<void(Frame&)>;

/// Registry of symbols and hooks. One per kernel.
class InstrumentPort {
 public:
  // --- symbol table (framework fills it during elaboration) ---------------

  /// Interns `name`, returning a dense id (idempotent). A non-empty `params`
  /// declares the symbol's argument layout: the names, in order, of the
  /// arguments the framework reports when it fires the symbol.
  SymbolId intern(std::string name, std::vector<std::string> params = {});
  /// Interns `name` as an instance symbol of `base` (framework cooperation):
  /// it reports base's arguments, so it shares base's declared layout.
  SymbolId intern_instance(std::string name, SymbolId base);
  /// Id of `name` if interned, invalid id otherwise.
  [[nodiscard]] SymbolId lookup(std::string_view name) const;
  /// Name of an interned symbol.
  [[nodiscard]] const std::string& symbol_name(SymbolId id) const;
  /// All interned symbol names (the debugger's "symbol file").
  [[nodiscard]] std::vector<std::string> all_symbols() const;
  /// Declared argument layout of `symbol` (empty if none was declared).
  [[nodiscard]] const std::vector<std::string>& params(SymbolId symbol) const;
  /// Position of argument `name` in `symbol`'s declared layout; panics if the
  /// layout has no such argument. Debuggers call it when planting a hook.
  [[nodiscard]] ArgPos param(SymbolId symbol, std::string_view name) const;

  // --- debugger side -------------------------------------------------------

  /// Registers a function breakpoint at `symbol` entry.
  HookId add_enter_hook(SymbolId symbol, Hook hook);
  /// Registers a finish breakpoint at `symbol` exit.
  HookId add_exit_hook(SymbolId symbol, Hook hook);
  /// Unregisters a hook (idempotent).
  void remove_hook(HookId id);
  /// Temporarily enables/disables a hook without unregistering it — the
  /// paper's option 1 ("disabling the data exchange breakpoints").
  void set_hook_enabled(HookId id, bool enabled);
  [[nodiscard]] bool hook_enabled(HookId id) const;

  /// Master switch: with false, no hooks fire at all (detached debugger).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  // --- framework side ------------------------------------------------------

  /// Fast check used by the framework before building an argument pack.
  /// `instance` is the optional per-actor/per-link symbol (cooperation).
  [[nodiscard]] bool armed(SymbolId symbol, SymbolId instance = SymbolId{}) const {
    if (!enabled_) return false;
    return has_any_hook(symbol) || (instance.valid() && has_any_hook(instance));
  }

  /// Fires enter hooks of `symbol` (and `instance`, if armed). Called by the
  /// framework; `kernel` is the owning kernel.
  void fire_enter(Kernel& kernel, SymbolId symbol, std::span<const ArgValue> args,
                  SymbolId instance = SymbolId{});
  /// Fires exit hooks with the return value (may be null for void).
  void fire_exit(Kernel& kernel, SymbolId symbol, std::span<const ArgValue> args,
                 const ArgValue* ret, SymbolId instance = SymbolId{});

  /// Set during kernel teardown so that unwinding frames stop reporting.
  void set_teardown(bool teardown) { teardown_ = teardown; }
  [[nodiscard]] bool teardown() const { return teardown_; }

  /// Serializes hook dispatch under the parallel backend: workers of
  /// different partitions may hit armed framework functions concurrently,
  /// but debugger hooks (and the port's own bookkeeping) assume the
  /// stopped-world view the sequential backends give them. Construction
  /// takes the port's dispatch mutex (re-entrant via a thread-local depth,
  /// so a hook that triggers another armed call does not self-deadlock) and
  /// brackets the kernel (hook_dispatch_enter/exit) so a debug_break()
  /// issued inside a hook parks only after the mutex is released.
  /// Sequential backends: a no-op. fire_enter/fire_exit take this scope
  /// themselves; it is public for debugger code that needs the same
  /// exclusion around out-of-band port mutation while workers run.
  class DispatchScope {
   public:
    DispatchScope(InstrumentPort& port, Kernel& kernel);
    // noexcept(false): a deferred debug_break parks the process *inside*
    // this destructor (after the unlock, in hook_dispatch_exit). Kernel
    // teardown unwinds such frozen processes by throwing through park(),
    // and that exception must be able to leave this frame.
    ~DispatchScope() noexcept(false);
    DispatchScope(const DispatchScope&) = delete;
    DispatchScope& operator=(const DispatchScope&) = delete;

   private:
    InstrumentPort& port_;
    Kernel& kernel_;
    bool active_;  ///< kernel is parallel: the bracket applies
  };

  // --- dispatch-time sampling (hook.dispatch_ns) ---------------------------

  /// hook.dispatch_ns times the first fire of each symbol (enter and exit
  /// apart), recorded as itself, and each later fire with probability
  /// 1/kDispatchSample, recorded with weight kDispatchSample, so its count
  /// and sum estimate the totals over every fire at 2 clock reads per
  /// kDispatchSample fires. The draw is pseudo-random, not every
  /// kDispatchSample-th fire: a dataflow graph fires its symbols in fixed
  /// cycles (so many per macroblock), and a fixed stride would time the same
  /// point of the cycle every time — after a stop, say, when caches are cold.
  static constexpr std::uint64_t kDispatchSample = 64;
  /// True while a sampled fire is being timed: Kernel::debug_break() then
  /// measures how long the stop sat parked and reports it through
  /// add_parked_ns(), and the sample leaves that time out.
  [[nodiscard]] bool timing() const { return timing_ != 0; }
  void add_parked_ns(std::uint64_t ns) { parked_ns_ += ns; }

  // --- statistics (benchmarks & tests) -------------------------------------

  [[nodiscard]] std::uint64_t enter_fired() const { return enter_fired_; }
  [[nodiscard]] std::uint64_t exit_fired() const { return exit_fired_; }
  [[nodiscard]] std::uint64_t hook_invocations() const { return hook_invocations_; }
  /// Times any hook of `symbol` has been invoked.
  [[nodiscard]] std::uint64_t symbol_hits(SymbolId symbol) const;
  void reset_stats();

 private:
  struct HookRecord {
    SymbolId symbol;
    bool is_enter = true;
    bool enabled = true;
    bool removed = false;
    /// Invocations that have not returned yet (a stopped process parks in
    /// one). A removed hook's callable is freed when this drops to 0.
    std::uint32_t running = 0;
    /// On the heap, so growing hooks_ moves the record but not the callable.
    std::unique_ptr<Hook> fn;
  };
  struct SymbolHooks {
    /// Indexes into hooks_, in registration order and therefore ascending.
    std::vector<std::uint32_t> enter;
    std::vector<std::uint32_t> exit;
    std::uint32_t layout = kNoLayout;  ///< index into layouts_
    std::uint64_t hits = 0;
  };
  /// Counts one invocation of hooks_[idx] as running for its lifetime, also
  /// when the invocation unwinds.
  class RunningInvocation {
   public:
    RunningInvocation(InstrumentPort& port, std::uint32_t idx);
    ~RunningInvocation();
    RunningInvocation(const RunningInvocation&) = delete;
    RunningInvocation& operator=(const RunningInvocation&) = delete;

   private:
    InstrumentPort& port_;
    std::uint32_t idx_;
  };

  static constexpr std::uint32_t kNoLayout = UINT32_MAX;

  /// Index of `name` in the symbol table, interning it if new.
  std::uint32_t intern_index(std::string name);
  [[nodiscard]] bool has_any_hook(SymbolId s) const;
  HookId add_hook(SymbolId symbol, Hook hook, bool is_enter);
  [[nodiscard]] const std::vector<std::uint32_t>& hook_list(SymbolId symbol,
                                                            bool is_enter) const {
    const SymbolHooks& h = per_symbol_[symbol.value()];
    return is_enter ? h.enter : h.exit;
  }
  void fire_list(Kernel& kernel, SymbolId symbol, bool is_enter, std::span<const ArgValue> args,
                 const ArgValue* ret);

  /// hook.* registry instruments (instrument.cpp).
  struct HookMetrics;
  /// Times one sampled fire into hook.dispatch_ns (instrument.cpp).
  class SampledFire;
  /// Resolves the hook.* instruments and attaches the port's tallies: at the
  /// port's first fire, whether or not obs is on (when the names were
  /// always interned).
  void resolve_obs();
  /// This symbol's fire tally, feeding "hook.sym.<name>.enter|exit": made and
  /// attached (interning the name) at the symbol's first counted fire.
  obs::Tally& symbol_tally(SymbolId symbol, bool is_enter);
  /// True with probability 1/kDispatchSample (xorshift64: deterministic).
  bool sample_draw() {
    sample_rng_ ^= sample_rng_ << 13;
    sample_rng_ ^= sample_rng_ >> 7;
    sample_rng_ ^= sample_rng_ << 17;
    return (sample_rng_ & (kDispatchSample - 1)) == 0;
  }

  bool enabled_ = false;
  bool teardown_ = false;
  /// Parallel backend: held for the duration of every hook dispatch (see
  /// DispatchScope). All mutable port state below is only touched while the
  /// owning kernel is stopped or under this mutex.
  std::mutex dispatch_mu_;
  std::vector<std::string> symbol_names_;
  // Transparent hash/equal: lookup(string_view) probes without allocating.
  std::unordered_map<std::string, std::uint32_t, TransparentStringHash, std::equal_to<>>
      symbol_index_;
  std::vector<SymbolHooks> per_symbol_;
  /// Declared argument layouts; instance symbols share their base's.
  std::vector<std::vector<std::string>> layouts_;
  std::vector<HookRecord> hooks_;
  std::uint64_t enter_fired_ = 0;
  std::uint64_t exit_fired_ = 0;
  std::uint64_t hook_invocations_ = 0;
  // Obs: the port tallies hook.enter, hook.exit, hook.invocation and
  // hook.sym.* itself (counted only while obs is on, never reset, folded by
  // the registry on read), so a hooked fire adds to its own fields instead
  // of registry cells.
  const HookMetrics* obs_m_ = nullptr;
  obs::Tally obs_enter_;
  obs::Tally obs_exit_;
  obs::Tally obs_invocations_;
  std::deque<obs::Tally> sym_tallies_;  ///< stable addresses as it grows
  std::vector<obs::Tally*> enter_tallies_;  ///< by SymbolId, null until first counted
  std::vector<obs::Tally*> exit_tallies_;
  std::uint64_t sample_rng_ = 0x9e3779b97f4a7c15;  ///< sample_draw() state
  int timing_ = 0;               ///< sampled fires being timed (nested fires nest)
  std::uint64_t parked_ns_ = 0;  ///< time parked at stops inside timed fires
};

/// RAII frame used by framework functions: fires the enter hook on
/// construction and the exit (finish) hook on destruction.
class InstrScope {
 public:
  /// `args` must outlive the scope (they normally live on the caller stack).
  InstrScope(Kernel& kernel, SymbolId symbol, std::span<const ArgValue> args,
             SymbolId instance = SymbolId{});
  /// noexcept(false): exit hooks may suspend the process (debug_break), and
  /// a kernel teardown while suspended unwinds through this destructor.
  ~InstrScope() noexcept(false);

  InstrScope(const InstrScope&) = delete;
  InstrScope& operator=(const InstrScope&) = delete;

  /// Sets the value the exit hook will observe as the function result.
  void set_return(ArgValue ret) {
    ret_ = ret;
    has_ret_ = true;
  }

 private:
  Kernel& kernel_;
  SymbolId symbol_;
  SymbolId instance_;
  std::span<const ArgValue> args_;
  ArgValue ret_;
  bool has_ret_ = false;
  bool armed_;
  int uncaught_;  ///< exception depth at entry; skip exit hooks when unwinding
};

}  // namespace dfdbg::sim
