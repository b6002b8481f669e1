// The dataflow debugging session: the paper's contribution, assembled.
//
// A Session attaches to a running (or about-to-run) PEDF application through
// the simulator's instrumentation port — function breakpoints at framework
// API entry and finish breakpoints at exit — and maintains the internal
// model of model.hpp. On top of that it implements the approach of §III:
//
//   * Stopping the execution: catchpoints on actor firing (`filter X catch
//     work`), on token-count conditions (`catch Pipe_in=1,Hwcfg_in=1`,
//     `catch *in=1`), on interface send/receive events and on token content;
//     breakpoints on controller scheduling decisions and step boundaries.
//   * Step-by-step execution: step_both plants temporary breakpoints at
//     both ends of a data dependency.
//   * Inspecting the application state: reconstructed graph with live token
//     counts (to_dot), per-actor scheduling states, blocked/running status,
//     token recording and provenance (info last_token).
//   * Altering the normal execution: inject / remove / replace tokens,
//     enough to untie deadlocks or test corner cases.
//   * Two-level debugging: source-line breakpoints, data watchpoints and
//     direct variable/struct inspection remain available.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dfdbg/common/status.hpp"
#include "dfdbg/common/strings.hpp"
#include "dfdbg/debug/events.hpp"
#include "dfdbg/debug/model.hpp"
#include "dfdbg/debug/recording.hpp"
#include "dfdbg/debug/views.hpp"
#include "dfdbg/pedf/application.hpp"

namespace dfdbg::dbg {

/// Result of one run/continue command.
struct RunOutcome {
  sim::RunResult result = sim::RunResult::kFinished;
  std::vector<StopEvent> stops;

  /// Convenience: first stop, or a synthesized one for non-kStopped results.
  [[nodiscard]] const StopEvent* first() const { return stops.empty() ? nullptr : &stops[0]; }
};

/// Descriptive view of one registered breakpoint-like object.
struct BreakpointInfo {
  BpId id;
  std::string description;
  bool enabled = true;
  bool temporary = false;
  std::uint64_t hits = 0;
};

/// The dataflow-aware debugger.
class Session {
 public:
  /// Creates a session over `app`. The application may be elaborated already
  /// (late attach) or not (the session then observes the init phase live).
  explicit Session(pedf::Application& app);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Installs the hooks (enables the instrumentation port). If the app is
  /// already elaborated, replays registration to rebuild the graph.
  void attach();
  /// Removes every hook and disables the port.
  void detach();
  [[nodiscard]] bool attached() const { return attached_; }

  [[nodiscard]] GraphModel& graph() { return model_; }
  [[nodiscard]] const GraphModel& graph() const { return model_; }
  [[nodiscard]] TokenRecorder& recorder() { return recorder_; }
  [[nodiscard]] pedf::Application& app() { return app_; }

  // --- run control -----------------------------------------------------------

  /// Runs/continues the simulation until a stop condition, completion,
  /// deadlock or `until` (simulated time).
  RunOutcome run(sim::SimTime until = sim::kMaxSimTime);

  /// All stop events seen so far, oldest first.
  [[nodiscard]] const std::vector<StopEvent>& history() const { return history_; }

  /// Observer called once per stop event as it is produced — catchpoints
  /// and breakpoints fire from inside the simulation (before run() returns);
  /// deadlock/finished/time-limit stops fire as run() synthesizes them. The
  /// debug server uses this to push `run.event` notifications while the
  /// `run` response is still pending. One observer; set empty to clear.
  void set_stop_observer(std::function<void(const StopEvent&)> fn) {
    stop_observer_ = std::move(fn);
  }
  /// Insertion notes and other async messages since the last take_notes().
  std::vector<std::string> take_notes();

  // --- stopping the execution (catchpoints & breakpoints) --------------------

  /// `filter <f> catch work`: stop when the WORK method of `filter` fires.
  Result<BpId> catch_work(const std::string& filter);

  /// `filter <f> catch A=1,B=2`: stop once the filter has received the given
  /// number of tokens on each listed interface (counted from arming;
  /// re-arms after triggering).
  Result<BpId> catch_tokens(const std::string& filter,
                            std::vector<std::pair<std::string, std::uint64_t>> port_counts);

  /// `filter <f> catch *in=N`: the same condition applied to every inbound
  /// interface of the filter.
  Result<BpId> catch_all_inputs(const std::string& filter, std::uint64_t count);

  /// `filter <f> catch <port>`: stop after each token received on one
  /// interface ("actor::port" also accepted via iface forms below).
  Result<BpId> break_on_receive(const std::string& iface);
  /// Stop after each token sent on an interface.
  Result<BpId> break_on_send(const std::string& iface);
  /// Content-conditional catchpoint: stop when a token pushed on `iface`
  /// satisfies `pred`.
  Result<BpId> catch_token_content(const std::string& iface,
                                   std::function<bool(const pedf::Value&)> pred,
                                   std::string description);

  /// Conditional catchpoint on token *provenance* (paper §III: conditions
  /// on a token's source/destination): stop when a token received on
  /// `iface` derives — through the configured actor behaviours — from a
  /// token sent by `src_actor`, within `depth` hops.
  Result<BpId> catch_token_from(const std::string& iface, const std::string& src_actor,
                                std::size_t depth = 8);

  /// Stop when the link of `iface` reaches an occupancy of `threshold`
  /// tokens (rate-mismatch/stall detection; makes the Fig. 4 "20 tokens"
  /// state a single command).
  Result<BpId> break_on_occupancy(const std::string& iface, std::size_t threshold);

  /// Stop when a controller schedules `filter` (ACTOR_START).
  Result<BpId> break_on_schedule(const std::string& filter);
  /// Stop at the beginning (or end) of each step of `module`.
  Result<BpId> break_on_step(const std::string& module, bool at_end);
  /// Stop after the controller of `module` evaluates predicate `name`
  /// (predicated-execution visibility; the stop reports the result).
  Result<BpId> break_on_predicate(const std::string& module, const std::string& predicate);

  /// Source-level line breakpoint inside a filter's WORK code.
  Result<BpId> break_source_line(const std::string& filter, int line);
  /// Watchpoint on a filter datum: `kind` is "data" or "attribute". Sampled
  /// at WORK entry/exit and at source-line markers (software watchpoint
  /// granularity).
  Result<BpId> watch_variable(const std::string& filter, const std::string& kind,
                              const std::string& name);

  Status delete_breakpoint(BpId id);
  Status set_breakpoint_enabled(BpId id, bool enabled);
  /// GDB-style ignore count: the next `count` triggers of `id` do not stop.
  Status set_breakpoint_ignore(BpId id, std::uint64_t count);
  /// Every registered rule, oldest first. A temporary (step_both ends,
  /// `step`) is deleted once it fires, as with GDB's tbreak: it is listed
  /// until then, also while disabled.
  [[nodiscard]] std::vector<BreakpointInfo> breakpoints() const;

  // --- step-by-step over data dependencies ------------------------------------

  /// `step_both` with an explicit output interface: plants temporary
  /// breakpoints after the send on `out_iface` and after the receive at the
  /// other end of its link; both are announced via take_notes().
  Status step_both_iface(const std::string& out_iface);

  /// `step_both` at the current stop: arms the next push of the currently
  /// stopped filter, then behaves like step_both_iface on the link it hits.
  Status step_both();

  /// Source-level single step: one-shot stop at the next source-line marker
  /// executed by the currently stopped filter (the classic `step` of the
  /// lower debugging level).
  Status step_line();

  // --- inspecting the application state ---------------------------------------

  /// Most recent token consumed by `filter` (nullptr if none/pruned).
  [[nodiscard]] const DToken* last_token(const std::string& filter) const;

  // Structured views (dfdbg/debug/views.hpp): the typed query API. The CLI
  // renders these to transcript text (dfdbg/dbgcli/render.hpp) and the debug
  // server serializes them with the to_json() overloads — two thin
  // presentation layers over the same data.

  /// Occupancy of every link.
  [[nodiscard]] LinkView links_view() const;
  /// Per-filter state: scheduling state, current source line, blocked-on.
  [[nodiscard]] Result<FilterView> filter_view(const std::string& filter) const;
  /// Scheduling monitor view of one module (Contribution #2).
  [[nodiscard]] Result<SchedView> sched_view(const std::string& module) const;
  /// `filter <f> info last_token`: provenance chain of the most recent token
  /// consumed by `filter`, newest first.
  [[nodiscard]] Result<TokenView> last_token_view(const std::string& filter,
                                                  std::size_t depth = 8) const;
  /// `whence <iface> <slot>`: causal chain of a token still queued on the
  /// link of `iface` (slot 0 = oldest), newest first, back to its source
  /// filter — each hop stamped with its provenance id and push time.
  [[nodiscard]] Result<WhenceChain> whence_chain(const std::string& iface, std::size_t slot,
                                                 std::size_t depth = 8) const;
  /// Payloads of the tokens currently in flight on the link of `iface`
  /// (§III: "an overview of the tokens currently available in the data
  /// links"), from the debugger's own token mirror.
  [[nodiscard]] Result<LinkTokensView> link_tokens_view(const std::string& iface) const;
  /// Profiling view (paper §I: debuggers "monitor and profile applications
  /// ... real-time feedback about the actual application execution"):
  /// per actor firings, mapped PE, simulated cycles consumed and scheduler
  /// activations, straight from the live kernel/platform state.
  [[nodiscard]] ProfileSnapshot profile_snapshot() const;
  /// `info shards`: the parallel backend's per-worker time attribution
  /// (work / barrier-wait / drain / idle buckets, stall counts, boundary
  /// occupancy high-water). Valid on any backend; rows are empty unless the
  /// kernel is parallel.
  [[nodiscard]] ShardProfileView shard_profile() const;

  // --- information flow --------------------------------------------------------

  /// `filter <f> configure splitter|pipeline|merger`.
  Status configure_behavior(const std::string& filter, ActorBehavior behavior);

  /// `iface <a::p> record`: start recording token contents.
  Status record_iface(const std::string& iface, RecordPolicy policy = RecordPolicy::kUnbounded,
                      std::size_t bound = 256);
  /// `iface <a::p> print`.
  [[nodiscard]] std::string print_recorded(const std::string& iface) const;

  // --- altering the normal execution -------------------------------------------

  /// Inserts a token into the link feeding `iface` (input) or fed by it
  /// (output). Only valid while the simulation is stopped.
  Status inject_token(const std::string& iface, pedf::Value v);
  /// Deletes queued token `idx` (0 = oldest) from the link of `iface`.
  Status remove_token(const std::string& iface, std::size_t idx);
  /// Overwrites queued token `idx` of the link of `iface`.
  Status replace_token(const std::string& iface, std::size_t idx, pedf::Value v);
  /// Type of the tokens on the link of `iface` (NotFound if none): what the
  /// values and content conditions for that link are parsed against.
  [[nodiscard]] Result<const pedf::TypeDesc*> link_type(const std::string& iface) const;
  /// Parses a token value of `type`: "5", "0x1f", or "Field=1,Other=0x2"
  /// for structs. The one value grammar of the CLI and the debug server.
  static Result<pedf::Value> parse_value(const pedf::TypeDesc& type, const std::string& text);

  // --- intrusiveness controls (paper §V) ----------------------------------------

  /// Option 1: disable/enable the data-exchange breakpoints wholesale. On
  /// re-enable, the token mirror is resynchronized from framework state.
  void set_data_exchange_hooks(bool enabled);
  [[nodiscard]] bool data_exchange_hooks() const { return data_hooks_enabled_; }

  /// Option 2 (framework cooperation): keep data-exchange breakpoints only
  /// on the listed interfaces; everything else runs at native speed.
  Status use_selective_data_hooks(const std::vector<std::string>& ifaces);
  /// Back to global data-exchange hooks.
  void clear_selective_data_hooks();

  // --- two-level debugging -------------------------------------------------------

  /// `list`: source listing of a filter around `line` (0 = all).
  [[nodiscard]] std::string list_source(const std::string& filter, int line = 0,
                                        int context = 5) const;
  /// Reads a filter variable ("data"/"attribute") directly from framework
  /// memory — the lower debugging level.
  [[nodiscard]] Result<pedf::Value> read_variable(const std::string& filter,
                                                  const std::string& kind,
                                                  const std::string& name) const;

  /// GDB-style value history: stores `v`, returns its $N number.
  int store_value(pedf::Value v);
  [[nodiscard]] Result<pedf::Value> value_history(int n) const;

  /// Actor the last stop concerned (empty if none).
  [[nodiscard]] const std::string& current_actor() const { return current_actor_; }

  /// Total stop events delivered.
  [[nodiscard]] std::uint64_t stop_count() const { return history_.size(); }

 private:
  struct Rule;

  void install_core_hooks();
  void install_data_hooks();
  /// Installs the per-statement source-line hook on first use (line
  /// breakpoints / watchpoints); unused sessions never pay for it.
  void ensure_line_hook();
  /// Visits enabled, unfired rules in id order without copying the list:
  /// safe against rules being added, removed or disabled while a visit stops
  /// the simulation (rules added meanwhile wait for the next scan).
  template <typename F>
  void scan_rules(F&& fn);
  /// Where the data-exchange hooks read their arguments.
  struct LinkArgs {
    sim::ArgPos link, index, actor_id;
    sim::ArgPos value;  ///< pushes only
  };

  /// Position of argument `name` in `symbol`'s layout (see InstrumentPort).
  [[nodiscard]] sim::ArgPos arg_pos(sim::SymbolId symbol, std::string_view name) const;
  [[nodiscard]] LinkArgs link_args(sim::SymbolId symbol, bool push) const;
  /// Plants the push (or pop) exit hook on `symbol`: link_push/link_pop or
  /// one link's instance symbol.
  sim::HookId add_data_hook(sim::SymbolId symbol, bool push);
  void resync_all_links();
  void trigger_stop(StopEvent ev, Rule* rule);
  void handle_push(const sim::Frame& frame, const LinkArgs& at);
  void handle_pop_exit(const sim::Frame& frame, const LinkArgs& at);
  /// Samples the watchpoints of the actor with framework id `actor`.
  void sample_watchpoints(std::uint32_t actor);
  Rule* find_rule(BpId id);
  /// The framework link on `iface` (NotFound if none).
  Result<pedf::Link*> link_on(const std::string& iface) const;

  pedf::Application& app_;
  GraphModel model_;
  TokenRecorder recorder_;
  bool attached_ = false;
  bool data_hooks_enabled_ = true;
  bool selective_ = false;

  std::vector<sim::HookId> core_hooks_;
  sim::HookId line_hook_;
  sim::HookId push_hook_;
  sim::HookId pop_hook_;
  std::vector<sim::HookId> selective_hooks_;

  std::vector<std::unique_ptr<Rule>> rules_;
  std::uint32_t next_bp_ = 0;

  std::vector<StopEvent> pending_;
  std::vector<StopEvent> history_;
  std::function<void(const StopEvent&)> stop_observer_;
  std::vector<std::string> notes_;
  std::string current_actor_;
  /// Catchpoint records' actor name ids, interned into the kernel's journal
  /// once per distinct stop actor rather than once per stop.
  std::unordered_map<std::string, std::uint32_t, TransparentStringHash, std::equal_to<>>
      stop_jnames_;
  std::vector<pedf::Value> value_history_;
};

}  // namespace dfdbg::dbg
