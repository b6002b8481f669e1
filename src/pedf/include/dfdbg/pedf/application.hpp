// The PEDF runtime: owns a dataflow application (root module hierarchy plus
// host I/O endpoints), elaborates it onto the platform, spawns its simulated
// processes, and exposes the framework API functions (`pedf__*`) that the
// debugger sets function/finish breakpoints on.
//
// The runtime contains NO debugger knowledge: every observation travels
// through the simulator's instrumentation port (paper §V: "we decided not to
// alter the dataflow framework"). Conversely, the debugger may alter the
// execution while it is stopped through the debug_* entry points, which fire
// their own observable events (pedf__debug_inject/...).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dfdbg/common/status.hpp"
#include "dfdbg/pedf/controller.hpp"
#include "dfdbg/pedf/filter.hpp"
#include "dfdbg/pedf/link.hpp"
#include "dfdbg/pedf/module.hpp"
#include "dfdbg/pedf/value.hpp"
#include "dfdbg/sim/instrument.hpp"
#include "dfdbg/sim/platform.hpp"

namespace dfdbg::pedf {

class BoundaryChannel;
class HostSource;
class HostSink;

/// Interned SymbolIds of the framework API functions (see symbols.hpp).
struct ApiSymbols {
  sim::SymbolId register_actor, register_port, register_link, graph_ready;
  sim::SymbolId link_push, link_pop;
  sim::SymbolId work_enter, work_exit, filter_line;
  sim::SymbolId actor_start, actor_sync, wait_actor_init, wait_actor_sync;
  sim::SymbolId step_begin, step_end, predicate_eval;
  sim::SymbolId debug_inject, debug_remove, debug_replace;
};

/// Per-link instance symbols (framework-cooperation extension): push is
/// keyed by the producing interface, pop by the consuming interface.
struct LinkSymbols {
  sim::SymbolId push_iface;  ///< "pedf__link_push@<src>::<port>"
  sim::SymbolId pop_iface;   ///< "pedf__link_pop@<dst>::<port>"
};

/// A complete dataflow application instance.
class Application {
 public:
  /// `platform` must outlive the application.
  Application(sim::Platform& platform, std::string name);
  ~Application();

  Application(const Application&) = delete;
  Application& operator=(const Application&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] sim::Platform& platform() { return platform_; }
  [[nodiscard]] sim::Kernel& kernel() { return platform_.kernel(); }
  [[nodiscard]] TypeRegistry& types() { return types_; }

  // --- construction ---------------------------------------------------------

  /// Installs the root module; returns a reference to it.
  Module& set_root(std::unique_ptr<Module> root);
  [[nodiscard]] Module& root() { return *root_; }
  [[nodiscard]] bool has_root() const { return root_ != nullptr; }

  /// Adds a host-side source feeding tokens into the unbound input port
  /// `target` ("front.module_in"). `period` models inter-token host work.
  HostSource& add_host_source(std::string name, const std::string& target,
                              std::vector<Value> stream, sim::SimTime period = 0);

  /// Adds a host-side sink draining the unbound output port `target`. Stops
  /// after `expected` tokens (or at finish_io()).
  HostSink& add_host_sink(std::string name, const std::string& target,
                          std::size_t expected = SIZE_MAX);

  /// Pins an actor (by hierarchical path) to a named PE; otherwise actors
  /// are mapped round-robin on fabric PEs (host I/O on host cores).
  void map_actor(std::string path, std::string pe_name);

  // --- partitioning (parallel kernel backend) --------------------------------
  // With a kParallel kernel, start() splits the graph's processes across the
  // kernel's partitions. The default map follows the platform: an actor's
  // partition is its PE's cluster index modulo the worker count, mirroring
  // how a P2012 functional simulator would parallelize per cluster. Host I/O
  // that never takes its PE (every HostSink, and a HostSource with period 0)
  // lands in the partition of the actor at the other end of its link; other
  // host-mapped actors land in partition 0. Constraints (validated at start,
  // fatal on violation): a controller and the filters of its module form one
  // indivisible unit (controllers mutate their filters' scheduling state
  // directly), and actors sharing a PE must share a partition (the PE's
  // exclusivity event can only serve one partition) unless they never take
  // that PE. Links whose endpoints end up in different partitions get a
  // BoundaryChannel (see boundary.hpp).

  /// Overrides the partition of the actor at `path` (hierarchical path or
  /// unique short name; a module applies to its controller and filters).
  /// Ignored by sequential kernels. Call before start().
  void set_partition(const std::string& path, int partition);

  /// How start() computes the default partition map (explicit set_partition
  /// overrides always win on top of either policy).
  enum class PartitionPolicy {
    kClusterModulo,  ///< default: PE cluster index modulo worker count
    /// Rebalances from a recorded dispatch profile: atomic units — module
    /// controller+filters merged with PE co-residents, and host I/O that
    /// never takes its PE merged with its link peer — are weighted by
    /// observed load and placed greedily, heaviest first, onto the
    /// least-loaded partition (LPT). A time profile
    /// (set_partition_time_profile, typically dispatch_time_profile() of an
    /// observed previous run) takes precedence; otherwise the activation
    /// profile (set_partition_profile) is used. Deterministic for a given
    /// profile; with no profile installed it degrades to kClusterModulo.
    kAdaptive,
  };
  void set_partition_policy(PartitionPolicy p) {
    DFDBG_CHECK_MSG(!started_, "set_partition_policy after start");
    partition_policy_ = p;
  }
  [[nodiscard]] PartitionPolicy partition_policy() const { return partition_policy_; }

  /// Observed per-actor load of this run: path -> process activation count.
  /// Deterministic (activations are part of the schedule, not wall time);
  /// feed it to set_partition_profile() on a fresh instance to rebalance.
  [[nodiscard]] std::map<std::string, std::uint64_t> dispatch_profile() const;

  /// Installs the load profile the kAdaptive policy partitions against.
  /// Call before start(); actors absent from the map weigh 1.
  void set_partition_profile(std::map<std::string, std::uint64_t> profile) {
    DFDBG_CHECK_MSG(!started_, "set_partition_profile after start");
    partition_profile_ = std::move(profile);
  }

  /// Observed per-actor fire time of this run: path -> wall nanoseconds the
  /// actor's process spent inside its dispatches. Accumulated only on the
  /// parallel backend while obs::enabled() (empty otherwise); a measurement,
  /// not part of the schedule — feed it to set_partition_time_profile() on a
  /// fresh instance to rebalance by time instead of activation count.
  [[nodiscard]] std::map<std::string, std::uint64_t> dispatch_time_profile() const;

  /// Installs the time profile the kAdaptive policy prefers over the
  /// activation profile (time-weighted LPT: sim.worker.N.work_ns closes the
  /// loop instead of activation counts). Call before start(); actors absent
  /// from the map weigh 1. The placement is a pure function of (graph,
  /// profile, worker count) — but a *measured* profile varies run to run, so
  /// pin the profile itself when byte-stable schedules matter.
  void set_partition_time_profile(std::map<std::string, std::uint64_t> profile) {
    DFDBG_CHECK_MSG(!started_, "set_partition_time_profile after start");
    partition_time_profile_ = std::move(profile);
  }

  /// Partition the actor's process runs in (0 on sequential backends).
  [[nodiscard]] int actor_partition(const Actor& a) const {
    return a.id().value() < partition_of_.size() ? partition_of_[a.id().value()] : 0;
  }

  /// Channels of the links that cross partitions (empty on sequential
  /// backends), in link-id order — also the barrier drain order.
  [[nodiscard]] const std::vector<std::unique_ptr<BoundaryChannel>>& boundaries() const {
    return boundaries_;
  }

  // --- elaboration & execution ----------------------------------------------

  /// Resolves bindings into links, assigns paths/ids, maps actors to PEs,
  /// interns the API symbols and replays the whole graph through the
  /// registration instrumentation (the init phase the debugger's graph
  /// reconstruction listens to). Idempotent on failure; call once.
  Status elaborate();
  [[nodiscard]] bool elaborated() const { return elaborated_; }

  /// Re-fires the graph registration events (a debugger attaching after
  /// elaboration uses this to rebuild its model, the way GDB reads static
  /// debug info when attaching to a running process).
  void replay_registration();

  /// Spawns the simulated processes (filters, controllers, host I/O).
  /// Requires elaborate(); the caller then drives kernel().run().
  void start();
  [[nodiscard]] bool started() const { return started_; }

  /// Requests termination of host I/O actors blocked on empty links (used
  /// when the graph has naturally drained). Safe while stopped.
  void finish_io();

  // --- queries ----------------------------------------------------------------

  /// All actors in elaboration order (modules, controllers, filters, host I/O).
  [[nodiscard]] const std::vector<Actor*>& actors() const { return actors_; }
  [[nodiscard]] const std::vector<std::unique_ptr<Link>>& links() const { return links_; }

  /// Actor by full path ("pred.ipred"); nullptr if unknown.
  [[nodiscard]] Actor* actor_by_path(std::string_view path) const;
  /// Actor by unique short name ("ipred" — the paper's CLI addressing);
  /// nullptr if unknown. Short names are verified unique at elaboration.
  [[nodiscard]] Actor* actor_by_name(std::string_view name) const;
  /// Filter by unique short name; nullptr if unknown or not a filter.
  [[nodiscard]] Filter* filter_by_name(std::string_view name) const;
  [[nodiscard]] Link* link_by_id(LinkId id) const;
  /// Names link ids in journal and trace output: the link's name, or
  /// "link#<id>" for an id this application does not have.
  [[nodiscard]] std::function<std::string(std::uint32_t)> link_namer() const;
  /// The link attached to interface "<actor short name>::<port>" (paper's
  /// iface syntax); nullptr if unknown.
  [[nodiscard]] Link* link_by_iface(std::string_view iface) const;
  /// Port by (actor short name, port name); nullptr if unknown.
  [[nodiscard]] Port* find_port(std::string_view actor, std::string_view port) const;

  [[nodiscard]] const ApiSymbols& syms() const { return syms_; }
  [[nodiscard]] const LinkSymbols& link_syms(LinkId id) const;

  /// Framework cooperation (paper §V option 2): also fire per-interface
  /// instance symbols on data exchanges. Off by default.
  void set_cooperation(bool on) { cooperation_ = on; }
  [[nodiscard]] bool cooperation() const { return cooperation_; }

  /// Toggles latency modelling of data exchanges (memory/DMA costs). On by
  /// default; benchmarks can disable it to isolate debugger overhead.
  void set_model_latencies(bool on) { model_latencies_ = on; }
  [[nodiscard]] bool model_latencies() const { return model_latencies_; }

  // --- debugger-initiated alteration (call only while stopped) ---------------

  /// Inserts a token at the tail of `link`; returns its push index.
  std::uint64_t debug_inject(Link& link, Value v);
  /// Removes queued token `idx` (0 = oldest) from `link`; returns it.
  Value debug_remove(Link& link, std::size_t idx);
  /// Overwrites queued token `idx` of `link`.
  void debug_replace(Link& link, std::size_t idx, Value v);

 private:
  friend class FilterContext;
  friend class ControllerContext;

  // Runtime shims: the framework API functions. Each wraps its body in an
  // InstrScope so entry/exit hooks ("function"/"finish" breakpoints) fire.
  void rt_link_push(Actor& actor, Port& port, const Value& v);
  /// Producer side of a partition-crossing link: same API surface (scope,
  /// blocking, journal provenance), but the token goes to the link's
  /// BoundaryChannel and is delivered by the coordinator at the barrier.
  void rt_link_push_boundary(Actor& actor, Port& port, Link& link, const Value& v);
  std::optional<Value> rt_link_pop(Actor& actor, Port& port);
  // Batch fast paths (the batched-fire option): one blocking check and one
  // coalesced notify per chunk instead of per token. Journal provenance is
  // still recorded per token. While a debugger watches the link (its push or
  // pop symbol, or the link's instance symbol, is armed) they fall back to
  // the token-at-a-time shims, so hooks see the same per-token stream and
  // argument layout whether or not a filter opted into batching.
  void rt_link_push_n(Actor& actor, Port& port, const Value* vs, std::size_t n);
  std::size_t rt_link_pop_n(Actor& actor, Port& port, Value* out, std::size_t n);
  /// The link's push/pop instance symbol while cooperation is on, else none.
  [[nodiscard]] sim::SymbolId link_instance(const Link& link, bool push) const;
  /// Whether a hook watches pushes (pops) on `link`.
  [[nodiscard]] bool data_hook_armed(const Link& link, bool push);
  void rt_work_enter(Filter& f);
  void rt_work_exit(Filter& f);
  void rt_filter_line(Filter& f, int line);
  void rt_actor_start(Controller& c, Filter& f);
  void rt_actor_sync(Controller& c, Filter& f);
  void rt_wait_actor_init(Controller& c, Module& m);
  void rt_wait_actor_sync(Controller& c, Module& m);
  void rt_step_begin(Controller& c, Module& m);
  void rt_step_end(Controller& c, Module& m);
  bool rt_predicate_eval(Controller& c, Module& m, std::string_view name);

  /// Models the platform cost of moving `n` tokens across `link` (memory +
  /// DMA); a batch is one access of n*byte_size bytes, like a burst DMA.
  void model_transfer_cost(Link& link, std::size_t n = 1);

  void collect_actors(Module& m);
  Status resolve_bindings();
  void assign_mapping();
  void intern_symbols();
  void intern_link_symbols();
  /// Parallel backend, called from start(): computes the partition map
  /// (defaults + overrides), validates the atomicity constraints, pre-binds
  /// every runtime event to its waiting partition, builds the boundary
  /// channels and registers the barrier drain.
  void prepare_partitions();
  /// kAdaptive: overwrites the cluster-modulo defaults in partition_of_ with
  /// the LPT placement computed from partition_time_profile_ (preferred)
  /// or partition_profile_.
  void rebalance_partitions_adaptive(int workers);
  /// The kernel *full-barrier* task (quiescence fallback and debug stops):
  /// fully drains every boundary channel in link order. Ordinary rounds move
  /// boundary tokens through the relaxed-synchrony hooks instead
  /// (eager_drain_boundaries / publish_boundaries; see boundary.hpp).
  bool drain_boundaries();
  /// Consumer-shard eager drain: delivers published tokens on `partition`'s
  /// inbound channels, in link order. Returns tokens delivered.
  std::size_t eager_drain_boundaries(int partition);
  /// Coordinator publish: snapshots every channel, reclaims slots, wakes
  /// blocked producers. Returns true when a producer was woken.
  bool publish_boundaries();
  void spawn_filter_process(Filter* f);
  void spawn_controller_process(Controller* c, Module* m);

  sim::Platform& platform_;
  std::string name_;
  TypeRegistry types_;
  std::unique_ptr<Module> root_;
  std::vector<std::unique_ptr<Filter>> host_io_;  // sources & sinks
  struct HostBinding {
    Filter* host_actor;
    std::string target;  // "front.module_in"
    bool is_source;
  };
  std::vector<HostBinding> host_bindings_;
  std::vector<Actor*> actors_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<LinkSymbols> link_syms_;
  std::unordered_map<std::string, Actor*> by_path_;
  std::unordered_map<std::string, Actor*> by_name_;
  std::unordered_map<std::string, std::string> pinned_;  // path -> pe name
  // Partitioning state (parallel backend; empty otherwise). The override
  // map is ordered so conflicting-override diagnostics are deterministic.
  std::map<std::string, int> partition_override_;  // path/name -> partition
  std::vector<int> partition_of_;                  // by ActorId value
  PartitionPolicy partition_policy_ = PartitionPolicy::kClusterModulo;
  std::map<std::string, std::uint64_t> partition_profile_;       // path -> activations
  std::map<std::string, std::uint64_t> partition_time_profile_;  // path -> fire ns
  std::vector<std::unique_ptr<BoundaryChannel>> boundaries_;
  /// boundaries_ grouped by consumer partition, each group in link-id order
  /// (the eager-drain order; built in prepare_partitions).
  std::vector<std::vector<BoundaryChannel*>> inbound_by_shard_;
  ApiSymbols syms_;
  /// "<debugger>"'s journal name id (alteration records), set at elaboration.
  std::uint32_t debugger_jname_ = UINT32_MAX;
  bool elaborated_ = false;
  bool started_ = false;
  bool cooperation_ = false;
  bool model_latencies_ = true;
  bool io_finishing_ = false;
};

/// Free-running host-side producer: feeds a prepared token stream into the
/// graph (models the host application pushing data through L3/DMA).
class HostSource : public Filter {
 public:
  HostSource(std::string name, TypeDesc type, std::vector<Value> stream, sim::SimTime period);

  void bind(FilterContext& pedf) override;
  void work(FilterContext& pedf) override;

  /// Tokens pushed so far.
  [[nodiscard]] std::size_t produced() const { return produced_; }
  /// Modelled host work per token; 0 means the source never takes its PE.
  [[nodiscard]] sim::SimTime period() const { return period_; }

 private:
  std::vector<Value> stream_;
  sim::SimTime period_;
  std::size_t produced_ = 0;
  FilterContext::Out out_;
};

/// Free-running host-side consumer: drains a graph output and keeps the
/// received tokens for verification.
class HostSink : public Filter {
 public:
  HostSink(std::string name, TypeDesc type, std::size_t expected);

  void bind(FilterContext& pedf) override;
  void work(FilterContext& pedf) override;

  [[nodiscard]] const std::vector<Value>& received() const { return received_; }

 private:
  std::size_t expected_;
  std::vector<Value> received_;
  FilterContext::In in_;
};

}  // namespace dfdbg::pedf
