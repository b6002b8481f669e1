// Filters: the computing actors of PEDF (paper §IV-C).
//
// A filter implements one *step* of processing in its WORK method, written
// against a restricted interface (`pedf.io.*`, `pedf.data.*`,
// `pedf.attribute.*`) so it can be synthesized into a hardware accelerator.
// Here WORK is a virtual method receiving a FilterContext that exposes the
// same three namespaces plus explicit compute-latency and source-line
// markers (our stand-in for the DWARF line table of the synthesized code).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "dfdbg/pedf/actor.hpp"
#include "dfdbg/sim/event.hpp"
#include "dfdbg/sim/time.hpp"

namespace dfdbg::pedf {

class Application;
class Filter;

/// Per-step execution state of a filter, as the module controller and the
/// debugger's scheduling monitor see it (paper Contribution #2).
enum class StepState : std::uint8_t {
  kIdle,       ///< not scheduled for the current step
  kScheduled,  ///< ACTOR_START issued, WORK not yet running
  kRunning,    ///< WORK executing
  kDone,       ///< WORK returned for this step
};

/// Short name for a StepState ("idle", ...).
const char* to_string(StepState s);

/// The view WORK methods get of the framework ("pedf." in filter sources).
class FilterContext {
 public:
  FilterContext(Application& app, Filter& self) : app_(app), self_(self) {}

  /// Read side of an inbound interface: a port handle. in() resolves it by
  /// name; a filter's bind() keeps it, so WORK reads without the lookup. A
  /// default-constructed handle is unbound. A handle is valid as long as
  /// the FilterContext it was resolved through.
  class In {
   public:
    In() = default;
    /// Blocking read of the next token (paper: pedf.io.an_input[n]).
    Value get();
    /// Blocking read that returns nullopt if the application is shutting
    /// down I/O instead of ever producing data again.
    std::optional<Value> get_opt();
    /// Batched blocking read of up to `n` tokens into `out` (the batched
    /// firing fast path: one framework-API call for the whole burst).
    /// Returns the number read — short only when I/O is shutting down.
    std::size_t get_n(Value* out, std::size_t n);
    /// Tokens currently waiting on this interface.
    [[nodiscard]] std::size_t available() const;
    /// The port this handle reads (nullptr when unbound).
    [[nodiscard]] Port* port() const { return port_; }

   private:
    friend class FilterContext;
    In(FilterContext* ctx, Port* port) : ctx_(ctx), port_(port) {}
    FilterContext* ctx_ = nullptr;
    Port* port_ = nullptr;
  };

  /// Write side of an outbound interface: a port handle, like In.
  class Out {
   public:
    Out() = default;
    /// Blocking write of one token (paper: pedf.io.an_output[n] = d).
    void put(const Value& v);
    /// Batched blocking write of `n` tokens (the batched firing fast path).
    void put_n(const Value* vs, std::size_t n);
    /// The port this handle writes (nullptr when unbound).
    [[nodiscard]] Port* port() const { return port_; }

   private:
    friend class FilterContext;
    Out(FilterContext* ctx, Port* port) : ctx_(ctx), port_(port) {}
    FilterContext* ctx_ = nullptr;
    Port* port_ = nullptr;
  };

  /// Inbound interface accessor; checks the port exists and is inbound.
  In in(std::string_view port);
  /// Outbound interface accessor; checks the port exists and is outbound.
  Out out(std::string_view port);

  /// Private datum declared in the architecture description.
  Value& data(std::string_view name);
  /// Attribute declared in the architecture description.
  Value& attr(std::string_view name);

  /// Marks execution of source line `line` (drives source-level breakpoints
  /// and watchpoint sampling — the "two-level debugging" lower level).
  void line(int line);

  /// Models `cycles` of computation on the filter's mapped PE.
  void compute(sim::SimTime cycles);

  /// True once the module controller issued ACTOR_SYNC for this step; WORK
  /// should finish its current step promptly.
  [[nodiscard]] bool sync_requested() const;

  /// For free-running (host I/O) filters: requests loop termination.
  void stop();

  /// The filter's configured firing batch size (Filter::set_fire_batch);
  /// batch-aware WORK methods use it to size their get_n/put_n bursts.
  [[nodiscard]] std::size_t fire_batch() const;

  [[nodiscard]] Filter& self() { return self_; }
  [[nodiscard]] Application& app() { return app_; }

 private:
  Application& app_;
  Filter& self_;
};

/// A computing actor. Subclass and implement work(); or use FnFilter.
class Filter : public Actor {
 public:
  explicit Filter(std::string name, ActorKind kind = ActorKind::kFilter)
      : Actor(kind, std::move(name)), start_event_("start:" + this->name()) {}

  /// One step of processing.
  virtual void work(FilterContext& pedf) = 0;

  /// Resolves, once and before the first work(), what work() would look up
  /// by name per token: port handles (FilterContext::in/out), data and
  /// attribute slots, struct field indices (StructType::field_index). The
  /// runtime calls it when it spawns the filter's process, with the context
  /// every work() call then gets; the filter owns that context, so the
  /// handles cannot outlive it. Default: nothing to resolve.
  virtual void bind(FilterContext& pedf) { (void)pedf; }

  // --- architecture-declared state -----------------------------------------

  /// Declares private data `name` initialized to `init`.
  Value& declare_data(std::string name, Value init);
  /// Declares attribute `name` initialized to `init`.
  Value& declare_attribute(std::string name, Value init);

  [[nodiscard]] Value* data(std::string_view name);
  [[nodiscard]] Value* attribute(std::string_view name);
  [[nodiscard]] const std::vector<std::pair<std::string, Value>>& all_data() const {
    return data_;
  }
  [[nodiscard]] const std::vector<std::pair<std::string, Value>>& all_attributes() const {
    return attrs_;
  }

  // --- source-level debug info ---------------------------------------------

  /// Registers the filter's source listing (file name, number of the first
  /// line, text lines). This is what `list` shows and what line breakpoints
  /// resolve against.
  void set_source(std::string file, int first_line, std::vector<std::string> lines);
  [[nodiscard]] const std::string& source_file() const { return src_file_; }
  [[nodiscard]] int source_first_line() const { return src_first_line_; }
  [[nodiscard]] const std::vector<std::string>& source_lines() const { return src_lines_; }

  // --- scheduling state (managed by the runtime/controller) -----------------

  [[nodiscard]] StepState step_state() const { return step_state_; }
  [[nodiscard]] bool sync_requested() const { return sync_requested_; }
  [[nodiscard]] bool terminate_requested() const { return terminate_; }
  [[nodiscard]] std::uint64_t firings() const { return firings_; }
  /// Line most recently marked via FilterContext::line.
  [[nodiscard]] int current_line() const { return current_line_; }

  /// Free-running filters have no controller; WORK is called in a loop until
  /// FilterContext::stop() (host I/O endpoints use this).
  [[nodiscard]] bool free_running() const { return free_running_; }
  void set_free_running(bool fr) { free_running_ = fr; }

  /// Firing batch size: how many tokens a batch-aware WORK moves per
  /// framework-API call (FilterContext get_n/put_n). Default 1 — the
  /// paper-faithful token-at-a-time hook stream; opting in trades hook
  /// granularity (one pedf__link_push/pop scope per burst instead of per
  /// token) for throughput. Journal provenance stays per-token either way.
  [[nodiscard]] std::size_t fire_batch() const { return fire_batch_; }
  void set_fire_batch(std::size_t n) { fire_batch_ = n == 0 ? 1 : n; }

 private:
  friend class Application;
  friend class ControllerContext;
  friend class FilterContext;

  std::vector<std::pair<std::string, Value>> data_;
  std::vector<std::pair<std::string, Value>> attrs_;
  std::string src_file_;
  int src_first_line_ = 1;
  std::vector<std::string> src_lines_;

  StepState step_state_ = StepState::kIdle;
  bool sync_requested_ = false;
  bool terminate_ = false;
  bool free_running_ = false;
  std::size_t fire_batch_ = 1;
  std::uint64_t firings_ = 0;
  int current_line_ = 0;
  sim::Event start_event_;
  /// The WORK view, made when the runtime spawns the filter's process.
  std::optional<FilterContext> pedf_;
};

/// Filter whose WORK is a std::function (for tests and small examples).
class FnFilter : public Filter {
 public:
  FnFilter(std::string name, std::function<void(FilterContext&)> fn)
      : Filter(std::move(name)), fn_(std::move(fn)) {}

  void work(FilterContext& pedf) override { fn_(pedf); }

 private:
  std::function<void(FilterContext&)> fn_;
};

}  // namespace dfdbg::pedf
