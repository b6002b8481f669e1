#include "dfdbg/sim/instrument.hpp"

#include <exception>

#include "dfdbg/common/assert.hpp"
#include "dfdbg/obs/metrics.hpp"
#include "dfdbg/sim/kernel.hpp"

namespace dfdbg::sim {

namespace {
/// Hook-dispatch instruments (aggregate across all ports).
struct HookMetrics {
  obs::Counter& enter_fired;
  obs::Counter& exit_fired;
  obs::Counter& invocations;
  obs::Histogram& dispatch_ns;
  static HookMetrics& get() {
    auto& r = obs::Registry::global();
    static HookMetrics m{r.counter("hook.enter"), r.counter("hook.exit"),
                         r.counter("hook.invocation"), r.histogram("hook.dispatch_ns")};
    return m;
  }
};
/// Re-entrancy depth of DispatchScope on this thread (a hook that triggers
/// another armed framework call must not re-lock the dispatch mutex).
thread_local int t_dispatch_depth = 0;
}  // namespace

InstrumentPort::DispatchScope::DispatchScope(InstrumentPort& port, Kernel& kernel)
    : port_(port), kernel_(kernel), active_(kernel.parallel()) {
  if (!active_) return;
  if (t_dispatch_depth++ == 0) port_.dispatch_mu_.lock();
  kernel_.hook_dispatch_enter();
}

InstrumentPort::DispatchScope::~DispatchScope() noexcept(false) {
  if (!active_) return;
  if (--t_dispatch_depth == 0) port_.dispatch_mu_.unlock();
  // After the unlock: a debug_break() deferred by a hook parks here, with
  // the mutex free for the other workers finishing their round.
  kernel_.hook_dispatch_exit();
}

const ArgValue* Frame::arg(std::string_view name) const {
  for (const ArgValue& a : args_)
    if (name == a.name) return &a;
  return nullptr;
}

SymbolId InstrumentPort::intern(std::string name) {
  auto it = symbol_index_.find(name);
  if (it != symbol_index_.end()) return SymbolId(it->second);
  auto idx = static_cast<std::uint32_t>(symbol_names_.size());
  symbol_index_.emplace(name, idx);
  symbol_names_.push_back(std::move(name));
  per_symbol_.emplace_back();
  return SymbolId(idx);
}

SymbolId InstrumentPort::lookup(std::string_view name) const {
  auto it = symbol_index_.find(name);  // heterogeneous: no std::string temporary
  return it == symbol_index_.end() ? SymbolId{} : SymbolId(it->second);
}

const std::string& InstrumentPort::symbol_name(SymbolId id) const {
  DFDBG_CHECK(id.valid() && id.value() < symbol_names_.size());
  return symbol_names_[id.value()];
}

std::vector<std::string> InstrumentPort::all_symbols() const { return symbol_names_; }

HookId InstrumentPort::add_enter_hook(SymbolId symbol, Hook hook) {
  DFDBG_CHECK(symbol.valid() && symbol.value() < per_symbol_.size());
  auto id = HookId(static_cast<std::uint32_t>(hooks_.size()));
  hooks_.push_back(HookRecord{symbol, /*is_enter=*/true, /*enabled=*/true, /*removed=*/false,
                              std::make_shared<const Hook>(std::move(hook))});
  per_symbol_[symbol.value()].enter.push_back(id.value());
  return id;
}

HookId InstrumentPort::add_exit_hook(SymbolId symbol, Hook hook) {
  DFDBG_CHECK(symbol.valid() && symbol.value() < per_symbol_.size());
  auto id = HookId(static_cast<std::uint32_t>(hooks_.size()));
  hooks_.push_back(HookRecord{symbol, /*is_enter=*/false, /*enabled=*/true, /*removed=*/false,
                              std::make_shared<const Hook>(std::move(hook))});
  per_symbol_[symbol.value()].exit.push_back(id.value());
  return id;
}

void InstrumentPort::remove_hook(HookId id) {
  if (!id.valid() || id.value() >= hooks_.size()) return;
  HookRecord& rec = hooks_[id.value()];
  if (rec.removed) return;
  rec.removed = true;
  rec.fn.reset();  // a running invocation holds its own reference
  auto& lists = per_symbol_[rec.symbol.value()];
  auto& list = rec.is_enter ? lists.enter : lists.exit;
  for (auto it = list.begin(); it != list.end(); ++it) {
    if (*it == id.value()) {
      list.erase(it);
      break;
    }
  }
}

void InstrumentPort::set_hook_enabled(HookId id, bool enabled) {
  DFDBG_CHECK(id.valid() && id.value() < hooks_.size());
  hooks_[id.value()].enabled = enabled;
}

bool InstrumentPort::hook_enabled(HookId id) const {
  DFDBG_CHECK(id.valid() && id.value() < hooks_.size());
  return hooks_[id.value()].enabled && !hooks_[id.value()].removed;
}

bool InstrumentPort::has_any_hook(SymbolId s) const {
  if (!s.valid() || s.value() >= per_symbol_.size()) return false;
  const SymbolHooks& h = per_symbol_[s.value()];
  return !h.enter.empty() || !h.exit.empty();
}

obs::Counter& InstrumentPort::symbol_counter(SymbolId symbol, bool is_enter) {
  auto& cache = is_enter ? enter_counters_ : exit_counters_;
  std::size_t idx = symbol.value();
  if (idx >= cache.size()) cache.resize(idx + 1, nullptr);
  if (cache[idx] == nullptr) {
    cache[idx] = &obs::Registry::global().counter("hook.sym." + symbol_names_[idx] +
                                                  (is_enter ? ".enter" : ".exit"));
  }
  return *cache[idx];
}

void InstrumentPort::fire_list(Kernel& kernel, const std::vector<std::uint32_t>& list,
                               SymbolId symbol, std::span<const ArgValue> args,
                               const ArgValue* ret, bool is_enter) {
  if (list.empty()) return;
  // Per-symbol dispatch count plus the wall-clock cost of running the hooks
  // — the debugger's own overhead, measured from inside (see OBSERVABILITY.md).
  obs::ScopedTimer timer(HookMetrics::get().dispatch_ns);
  if (obs::enabled()) symbol_counter(symbol, is_enter).add();
  // Hooks may add/remove hooks while running (temporary breakpoints), so
  // iterate over a snapshot of the registration list.
  std::vector<std::uint32_t> snapshot = list;
  per_symbol_[symbol.value()].hits += snapshot.size();
  for (std::uint32_t idx : snapshot) {
    const HookRecord& rec = hooks_[idx];
    if (rec.removed || !rec.enabled) continue;
    hook_invocations_++;
    HookMetrics::get().invocations.add();
    // The hook may stop the simulation and park here while the debugger
    // adds hooks (reallocating hooks_) or removes this one: call through
    // our own reference to the callable, never through `rec`.
    std::shared_ptr<const Hook> fn = rec.fn;
    Frame frame(kernel, symbol, symbol_names_[symbol.value()], args, ret);
    (*fn)(frame);
  }
}

void InstrumentPort::fire_enter(Kernel& kernel, SymbolId symbol, std::span<const ArgValue> args,
                                SymbolId instance) {
  if (!enabled_ || teardown_) return;
  DispatchScope scope(*this, kernel);
  enter_fired_++;
  HookMetrics::get().enter_fired.add();
  if (symbol.valid() && symbol.value() < per_symbol_.size())
    fire_list(kernel, per_symbol_[symbol.value()].enter, symbol, args, nullptr, true);
  if (instance.valid() && instance.value() < per_symbol_.size())
    fire_list(kernel, per_symbol_[instance.value()].enter, instance, args, nullptr, true);
}

void InstrumentPort::fire_exit(Kernel& kernel, SymbolId symbol, std::span<const ArgValue> args,
                               const ArgValue* ret, SymbolId instance) {
  if (!enabled_ || teardown_) return;
  DispatchScope scope(*this, kernel);
  exit_fired_++;
  HookMetrics::get().exit_fired.add();
  if (symbol.valid() && symbol.value() < per_symbol_.size())
    fire_list(kernel, per_symbol_[symbol.value()].exit, symbol, args, ret, false);
  if (instance.valid() && instance.value() < per_symbol_.size())
    fire_list(kernel, per_symbol_[instance.value()].exit, instance, args, ret, false);
}

std::uint64_t InstrumentPort::symbol_hits(SymbolId symbol) const {
  if (!symbol.valid() || symbol.value() >= per_symbol_.size()) return 0;
  return per_symbol_[symbol.value()].hits;
}

void InstrumentPort::reset_stats() {
  enter_fired_ = 0;
  exit_fired_ = 0;
  hook_invocations_ = 0;
  for (auto& s : per_symbol_) s.hits = 0;
}

InstrScope::InstrScope(Kernel& kernel, SymbolId symbol, std::span<const ArgValue> args,
                       SymbolId instance)
    : kernel_(kernel), symbol_(symbol), instance_(instance), args_(args),
      uncaught_(std::uncaught_exceptions()) {
  // Keep the armed decision so enter and exit fire consistently even if the
  // debugger attaches mid-call.
  armed_ = kernel_.instrument().armed(symbol_, instance_);
  if (armed_) kernel_.instrument().fire_enter(kernel_, symbol_, args_, instance_);
}

InstrScope::~InstrScope() noexcept(false) {
  if (!armed_ || kernel_.instrument().teardown()) return;
  // Do not report a "function return" while the frame is being unwound by
  // an exception (e.g. a process being killed at kernel teardown).
  if (std::uncaught_exceptions() > uncaught_) return;
  kernel_.instrument().fire_exit(kernel_, symbol_, args_, has_ret_ ? &ret_ : nullptr, instance_);
}

}  // namespace dfdbg::sim
