#include "dfdbg/sim/instrument.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>

#include "dfdbg/common/assert.hpp"
#include "dfdbg/obs/metrics.hpp"
#include "dfdbg/sim/kernel.hpp"

namespace dfdbg::sim {

/// Hook-dispatch instruments (aggregate across all ports).
struct InstrumentPort::HookMetrics {
  obs::Counter& enter_fired;
  obs::Counter& exit_fired;
  obs::Counter& invocations;
  obs::Histogram& dispatch_ns;
};

/// RAII: times one sampled fire, less the time a stop inside it sat parked,
/// and records it in hook.dispatch_ns as `weight` fires.
class InstrumentPort::SampledFire {
 public:
  SampledFire(InstrumentPort& port, std::uint64_t weight)
      : port_(port), weight_(weight), parked0_(port.parked_ns_),
        t0_(std::chrono::steady_clock::now()) {
    port_.timing_++;
  }
  ~SampledFire() {
    port_.timing_--;
    if (!obs::enabled()) return;
    const auto elapsed = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                             t0_)
            .count());
    const std::uint64_t parked = port_.parked_ns_ - parked0_;
    port_.obs_m_->dispatch_ns.observe(elapsed > parked ? elapsed - parked : 0, weight_);
  }
  SampledFire(const SampledFire&) = delete;
  SampledFire& operator=(const SampledFire&) = delete;

 private:
  InstrumentPort& port_;
  std::uint64_t weight_;
  std::uint64_t parked0_;
  std::chrono::steady_clock::time_point t0_;
};

namespace {
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

std::uint32_t InstrumentPort::intern_index(std::string name) {
  if (auto it = symbol_index_.find(name); it != symbol_index_.end()) return it->second;
  auto idx = static_cast<std::uint32_t>(symbol_names_.size());
  symbol_index_.emplace(name, idx);
  symbol_names_.push_back(std::move(name));
  per_symbol_.emplace_back();
  return idx;
}

SymbolId InstrumentPort::intern(std::string name, std::vector<std::string> params) {
  const std::uint32_t idx = intern_index(std::move(name));
  if (params.empty()) return SymbolId(idx);
  std::uint32_t& layout = per_symbol_[idx].layout;
  if (layout != kNoLayout) {
    DFDBG_CHECK_MSG(layouts_[layout] == params,
                    "conflicting argument layouts for " + symbol_names_[idx]);
  } else {
    layout = static_cast<std::uint32_t>(layouts_.size());
    layouts_.push_back(std::move(params));
  }
  return SymbolId(idx);
}

SymbolId InstrumentPort::intern_instance(std::string name, SymbolId base) {
  DFDBG_CHECK(base.valid() && base.value() < per_symbol_.size());
  const std::uint32_t idx = intern_index(std::move(name));
  std::uint32_t& layout = per_symbol_[idx].layout;
  DFDBG_CHECK_MSG(layout == kNoLayout || layout == per_symbol_[base.value()].layout,
                  "conflicting argument layouts for " + symbol_names_[idx]);
  layout = per_symbol_[base.value()].layout;
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

const std::vector<std::string>& InstrumentPort::params(SymbolId symbol) const {
  static const std::vector<std::string> kUndeclared;
  DFDBG_CHECK(symbol.valid() && symbol.value() < per_symbol_.size());
  const std::uint32_t layout = per_symbol_[symbol.value()].layout;
  return layout == kNoLayout ? kUndeclared : layouts_[layout];
}

ArgPos InstrumentPort::param(SymbolId symbol, std::string_view name) const {
  const std::vector<std::string>& layout = params(symbol);
  for (std::size_t i = 0; i < layout.size(); ++i)
    if (layout[i] == name) return ArgPos{static_cast<std::uint32_t>(i)};
  panic(__FILE__, __LINE__,
        symbol_names_[symbol.value()] + " declares no argument '" + std::string(name) + "'");
}

HookId InstrumentPort::add_hook(SymbolId symbol, Hook hook, bool is_enter) {
  DFDBG_CHECK(symbol.valid() && symbol.value() < per_symbol_.size());
  auto id = HookId(static_cast<std::uint32_t>(hooks_.size()));
  hooks_.push_back(HookRecord{symbol, is_enter, /*enabled=*/true, /*removed=*/false,
                              /*running=*/0, std::make_unique<Hook>(std::move(hook))});
  SymbolHooks& lists = per_symbol_[symbol.value()];
  (is_enter ? lists.enter : lists.exit).push_back(id.value());
  return id;
}

HookId InstrumentPort::add_enter_hook(SymbolId symbol, Hook hook) {
  return add_hook(symbol, std::move(hook), /*is_enter=*/true);
}

HookId InstrumentPort::add_exit_hook(SymbolId symbol, Hook hook) {
  return add_hook(symbol, std::move(hook), /*is_enter=*/false);
}

void InstrumentPort::remove_hook(HookId id) {
  if (!id.valid() || id.value() >= hooks_.size()) return;
  HookRecord& rec = hooks_[id.value()];
  if (rec.removed) return;
  rec.removed = true;
  if (rec.running == 0) rec.fn.reset();  // else the last invocation frees it
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

void InstrumentPort::resolve_obs() {
  auto& r = obs::Registry::global();
  static const HookMetrics m{r.counter("hook.enter"), r.counter("hook.exit"),
                             r.counter("hook.invocation"), r.histogram("hook.dispatch_ns")};
  obs_m_ = &m;
  obs_enter_.attach(m.enter_fired);
  obs_exit_.attach(m.exit_fired);
  obs_invocations_.attach(m.invocations);
}

obs::Tally& InstrumentPort::symbol_tally(SymbolId symbol, bool is_enter) {
  auto& index = is_enter ? enter_tallies_ : exit_tallies_;
  const std::size_t idx = symbol.value();
  if (idx >= index.size()) index.resize(idx + 1, nullptr);
  if (index[idx] == nullptr) {
    obs::Tally& t = sym_tallies_.emplace_back();
    t.attach(obs::Registry::global().counter("hook.sym." + symbol_names_[idx] +
                                             (is_enter ? ".enter" : ".exit")));
    index[idx] = &t;
  }
  return *index[idx];
}

InstrumentPort::RunningInvocation::RunningInvocation(InstrumentPort& port, std::uint32_t idx)
    : port_(port), idx_(idx) {
  port_.hooks_[idx_].running++;
}

InstrumentPort::RunningInvocation::~RunningInvocation() {
  HookRecord& rec = port_.hooks_[idx_];  // re-indexed: hooks_ may have grown
  if (--rec.running == 0 && rec.removed) rec.fn.reset();
}

void InstrumentPort::fire_list(Kernel& kernel, SymbolId symbol, bool is_enter,
                               std::span<const ArgValue> args, const ArgValue* ret) {
  if (hook_list(symbol, is_enter).empty()) return;
  per_symbol_[symbol.value()].hits += hook_list(symbol, is_enter).size();
  // The debugger's own overhead, measured from inside (see OBSERVABILITY.md):
  // an exact per-symbol fire count, and the wall time of a sample of fires.
  std::optional<SampledFire> sample;
  if (obs::enabled()) {
    obs::Tally& fires = symbol_tally(symbol, is_enter);
    if (fires.value() == 0)
      sample.emplace(*this, 1);
    else if (sample_draw())
      sample.emplace(*this, kDispatchSample);
    fires.add();
  }
  // Walk the live list, not a copy. Hooks may add or remove hooks while they
  // run (temporary breakpoints), and may intern symbols, which moves the
  // lists: so fetch the list again after every call and resume after the id
  // that just ran. Ids grow with registration and a list keeps that order,
  // so a hook removed mid-fire has left the list before the walk reaches it,
  // and a hook registered mid-fire (id >= end) first runs on the next fire.
  const auto end = static_cast<std::uint32_t>(hooks_.size());
  std::size_t pos = 0;
  for (;;) {
    const std::vector<std::uint32_t>& list = hook_list(symbol, is_enter);
    if (pos >= list.size() || list[pos] >= end) break;
    const std::uint32_t idx = list[pos];
    HookRecord& rec = hooks_[idx];
    if (rec.enabled) {
      hook_invocations_++;
      if (obs::enabled()) obs_invocations_.add();
      // The hook may stop the simulation and park here while the debugger
      // adds hooks (moving `rec`) or removes this one: call through the
      // heap-stable callable, kept alive by the running count.
      Hook& fn = *rec.fn;
      RunningInvocation running(*this, idx);
      Frame frame(kernel, symbol, symbol_names_[symbol.value()], args, ret);
      fn(frame);
    }
    const std::vector<std::uint32_t>& now = hook_list(symbol, is_enter);
    pos = pos < now.size() && now[pos] == idx
              ? pos + 1
              : static_cast<std::size_t>(std::upper_bound(now.begin(), now.end(), idx) -
                                         now.begin());
  }
}

void InstrumentPort::fire_enter(Kernel& kernel, SymbolId symbol, std::span<const ArgValue> args,
                                SymbolId instance) {
  if (!enabled_ || teardown_) return;
  DispatchScope scope(*this, kernel);
  enter_fired_++;
  if (obs_m_ == nullptr) [[unlikely]] resolve_obs();
  if (obs::enabled()) obs_enter_.add();
  if (symbol.valid() && symbol.value() < per_symbol_.size())
    fire_list(kernel, symbol, /*is_enter=*/true, args, nullptr);
  if (instance.valid() && instance.value() < per_symbol_.size())
    fire_list(kernel, instance, /*is_enter=*/true, args, nullptr);
}

void InstrumentPort::fire_exit(Kernel& kernel, SymbolId symbol, std::span<const ArgValue> args,
                               const ArgValue* ret, SymbolId instance) {
  if (!enabled_ || teardown_) return;
  DispatchScope scope(*this, kernel);
  exit_fired_++;
  if (obs_m_ == nullptr) [[unlikely]] resolve_obs();
  if (obs::enabled()) obs_exit_.add();
  if (symbol.valid() && symbol.value() < per_symbol_.size())
    fire_list(kernel, symbol, /*is_enter=*/false, args, ret);
  if (instance.valid() && instance.value() < per_symbol_.size())
    fire_list(kernel, instance, /*is_enter=*/false, args, ret);
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
