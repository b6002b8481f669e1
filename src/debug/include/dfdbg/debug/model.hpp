// The debugger's internal representation of a dataflow application
// (paper §V, top of Fig. 3):
//
//   - ACTOR objects represent filters, controllers and modules, with their
//     execution context and in/outbound connections;
//   - TOKEN objects are debugger-side entities whose state corresponds only
//     to the logical implications of runtime events;
//   - CONNECTION objects are the data-dependency endpoints of an actor;
//   - LINK objects bind an outgoing and an incoming connection and hold the
//     TOKENs in flight.
//
// The model is built exclusively from instrumentation events (graph
// registration during framework init, then push/pop/firing events), never by
// modifying the framework.
//
// Registration names actors by path and resolves everything the runtime
// events need once: the framework's dense actor id to the model actor, each
// link's interface names and connection indexes, each module's filters.
// Runtime updates then look actors, links and tokens up by dense id and
// never build or hash a string.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "dfdbg/debug/events.hpp"
#include "dfdbg/pedf/value.hpp"
#include "dfdbg/sim/time.hpp"

namespace dfdbg::dbg {

/// Kind of a model actor (mirrors the framework's registration strings).
enum class DActorKind : std::uint8_t { kFilter, kController, kModule, kHostIo, kUnknown };

const char* to_string(DActorKind k);
DActorKind parse_actor_kind(std::string_view s);

/// Communication behaviour of a filter, used to chain token provenance
/// across actors. The paper: "as this behaviour depends on the filter
/// implementation, the debugger cannot automatically figure it out; the
/// developer has to provide it" (filter X configure splitter).
enum class ActorBehavior : std::uint8_t {
  kUnknown,   ///< no provenance chaining through this actor
  kSplitter,  ///< consumes one token, sends derived data on all outputs
  kPipeline,  ///< i-th output token derives from i-th token of first input
  kMerger,    ///< output derives from the most recent token of any input
};

const char* to_string(ActorBehavior b);

/// Scheduling state tracked by the debugger (Contribution #2): which filters
/// are ready to be executed, not scheduled, or have already finished the step.
enum class SchedState : std::uint8_t { kNotScheduled, kScheduled, kRunning, kFinished };

const char* to_string(SchedState s);

/// A debugger-side token.
struct DToken {
  TokenId id;
  pedf::Value value;            ///< payload snapshot at send time
  std::uint64_t uid = 0;        ///< framework provenance id (journal token id)
  std::uint32_t link = UINT32_MAX;
  std::uint64_t push_index = 0;
  sim::SimTime pushed_at = 0;
  sim::SimTime popped_at = 0;
  bool consumed = false;
  TokenId produced_from;        ///< provenance (invalid if unknown)
  bool injected = false;        ///< created by the debugger, not the app
};

/// FIFO of token ids over a power-of-two ring that doubles when full and
/// never shrinks, so steady push/pop traffic does not allocate.
class TokenQueue {
 public:
  class const_iterator {
   public:
    const_iterator(const TokenQueue* q, std::size_t i) : q_(q), i_(i) {}
    TokenId operator*() const { return (*q_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    const TokenQueue* q_;
    std::size_t i_;
  };

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Element `i` counted from the front. Precondition: i < size().
  TokenId operator[](std::size_t i) const { return slots_[(head_ + i) & (slots_.size() - 1)]; }
  [[nodiscard]] TokenId front() const { return (*this)[0]; }
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size_}; }

  void push_back(TokenId id);
  /// Precondition: !empty().
  void pop_front() {
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }
  /// Removes element `i`, keeping the order of the others.
  void erase(std::size_t i);
  void clear() { head_ = size_ = 0; }

 private:
  std::vector<TokenId> slots_;  ///< empty or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// One data-dependency endpoint of an actor.
struct DConnection {
  std::string actor;  ///< short name
  std::string port;
  bool is_input = false;
  std::string type;
  std::uint32_t link = UINT32_MAX;
  std::uint64_t tokens_seen = 0;  ///< sent (output) or received (input)

  [[nodiscard]] std::string iface() const { return actor + "::" + port; }
};

/// One graph arc, holding the tokens currently in flight.
struct DLink {
  std::uint32_t id = UINT32_MAX;
  std::string name;
  std::string type;
  std::string transport;
  std::string src_actor, src_port, dst_actor, dst_port;
  std::string src_iface, dst_iface;     ///< "actor::port" of each end
  std::uint32_t src_conn = UINT32_MAX;  ///< index into connections(), if known
  std::uint32_t dst_conn = UINT32_MAX;
  bool is_control = false;  ///< one end is a controller (Fig. 4 dotted arcs)
  TokenQueue queue;
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
};

/// The most recent tokens an actor consumed, oldest first, in a fixed ring
/// that drops the oldest when full: the window pipeline provenance pairs an
/// actor's outputs with.
class ConsumedWindow {
 public:
  static constexpr std::size_t kSize = 64;

  [[nodiscard]] bool empty() const { return count_ == 0; }
  void push(TokenId id) {
    if (count_ == kSize) pop_front();
    slots_[(head_ + count_++) % kSize] = id;
  }
  /// Removes and returns the oldest. Precondition: !empty().
  TokenId pop_front() {
    TokenId id = slots_[head_];
    head_ = (head_ + 1) % kSize;
    --count_;
    return id;
  }

 private:
  std::array<TokenId, kSize> slots_{};
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

/// One model actor.
struct DActor {
  std::uint32_t id = UINT32_MAX;
  DActorKind kind = DActorKind::kUnknown;
  std::string name;
  std::string path;
  std::string pe;
  std::string parent_path;
  std::vector<std::uint32_t> in_conns;   ///< indexes into connections()
  std::vector<std::uint32_t> out_conns;
  /// Modules: their filters, as indexes into actors() in registration order
  /// (a module registers before the actors it contains).
  std::vector<std::uint32_t> filters;
  // scheduling (Contribution #2)
  SchedState sched = SchedState::kNotScheduled;
  std::uint64_t firings = 0;
  std::uint64_t step = 0;          ///< modules: current step number
  int current_line = 0;
  // information flow (Contribution #3)
  ActorBehavior behavior = ActorBehavior::kUnknown;
  TokenId last_token_in;           ///< most recent token consumed
  TokenId last_token_out;          ///< most recent token produced
  ConsumedWindow recent_consumed;  ///< pipeline provenance window
};

/// The reconstructed application graph plus live token state.
class GraphModel {
 public:
  GraphModel() = default;

  // --- construction from registration events (Contribution #1) -------------

  void on_register_actor(DActorKind kind, std::string name, std::string path, std::string pe,
                         std::string parent, std::uint32_t id);
  void on_register_port(const std::string& actor_path, std::string port, bool is_input,
                        std::string type);
  void on_register_link(std::uint32_t id, std::string name, const std::string& src_actor_path,
                        std::string src_port, const std::string& dst_actor_path,
                        std::string dst_port, std::string type, std::string transport);
  void on_graph_ready();
  [[nodiscard]] bool ready() const { return ready_; }

  // --- updates from runtime events ------------------------------------------
  //
  // `actor`, `filter` and `module` are framework actor ids, the `id` each
  // actor registered with; kNoActor names no actor (a debugger injection).

  static constexpr std::uint32_t kNoActor = UINT32_MAX;

  /// A push completed: creates the token, applies provenance chaining.
  /// Returns the new token's id.
  TokenId on_push(std::uint32_t link, std::uint64_t index, const pedf::Value& value,
                  std::uint32_t actor, sim::SimTime now, bool injected = false,
                  std::uint64_t uid = 0);
  /// A pop completed: marks the head token consumed. Returns its id (invalid
  /// if the model had no token to match, e.g. data hooks were disabled).
  TokenId on_pop(std::uint32_t link, std::uint32_t actor, sim::SimTime now);
  /// The debugger removed queued slot `idx` from `link`.
  void on_remove(std::uint32_t link, std::size_t idx);
  /// The debugger replaced queued slot `idx` of `link`.
  void on_replace(std::uint32_t link, std::size_t idx, const pedf::Value& value);

  void on_work_enter(std::uint32_t actor, std::uint64_t firing);
  void on_work_exit(std::uint32_t actor);
  void on_actor_start(std::uint32_t filter);
  void on_step_begin(std::uint32_t module, std::uint64_t step);
  void on_step_end(std::uint32_t module);
  void on_wait_sync_done(std::uint32_t module);
  void on_filter_line(std::uint32_t actor, int line);

  /// Drops in-flight token mirrors of every link and recreates anonymous
  /// tokens of size `occupancy(link)` — used after data-exchange hooks were
  /// re-enabled (the model may have gone stale while they were off).
  void resync_link(std::uint32_t link, std::size_t occupancy);

  // --- queries ---------------------------------------------------------------

  [[nodiscard]] const std::vector<DActor>& actors() const { return actors_; }
  [[nodiscard]] const std::vector<DConnection>& connections() const { return connections_; }
  [[nodiscard]] const std::vector<DLink>& links() const { return links_; }

  [[nodiscard]] const DActor* actor_by_name(std::string_view name) const;
  [[nodiscard]] const DActor* actor_by_path(std::string_view path) const;
  /// Actor by framework id (nullptr if none registered with it).
  [[nodiscard]] const DActor* actor_by_id(std::uint32_t id) const;
  [[nodiscard]] DActor* actor_by_name_mut(std::string_view name);
  [[nodiscard]] const DLink* link(std::uint32_t id) const;
  /// Connection by "actor::port" (nullptr if unknown).
  [[nodiscard]] const DConnection* connection_by_iface(std::string_view iface) const;
  /// Link whose destination (or source) interface is `iface`.
  [[nodiscard]] const DLink* link_by_iface(std::string_view iface) const;

  [[nodiscard]] const DToken* token(TokenId id) const;
  /// Number of token objects currently retained.
  [[nodiscard]] std::size_t token_count() const { return live_tokens_; }
  /// Total tokens ever observed (including pruned ones).
  [[nodiscard]] std::uint64_t tokens_observed() const { return tokens_observed_; }
  /// Approximate bytes used by retained token objects.
  [[nodiscard]] std::size_t token_memory_bytes() const;

  /// Provenance chain of `start`, newest first, up to `depth` hops (the
  /// paper's `filter X info last_token` output).
  [[nodiscard]] std::vector<const DToken*> token_path(TokenId start, std::size_t depth) const;

  /// Sets a filter's communication behaviour (CLI `configure splitter`).
  void set_behavior(std::string_view actor_name, ActorBehavior b);

  /// Cap on retained consumed tokens; oldest are pruned beyond it.
  void set_token_history_limit(std::size_t limit) { token_history_limit_ = limit; }
  [[nodiscard]] std::size_t token_history_limit() const { return token_history_limit_; }

  /// Candidate names for CLI auto-completion (actors, interfaces).
  [[nodiscard]] std::vector<std::string> completion_names() const;

  /// Graphviz DOT of the reconstructed graph; if `with_tokens`, arcs are
  /// annotated with their current token counts (the paper's Fig. 4 view).
  [[nodiscard]] std::string to_dot(bool with_tokens) const;

  /// Renders "src -> dst (Type) payload" for a token (transcript format).
  [[nodiscard]] std::string describe_token(TokenId id) const;

 private:
  /// Token objects by id, in chunks of kTokenChunk that never move, so a
  /// DToken* handed to a view stays valid until that token is pruned. A
  /// chunk is freed once every token in it was issued and has been dropped.
  static constexpr std::size_t kTokenChunk = 1024;
  struct TokenChunk {
    std::array<DToken, kTokenChunk> slots;  ///< a free slot has an invalid id
    std::size_t live = 0;
  };

  DActor* actor_by_path_mut(std::string_view path);
  DActor* actor_by_id_mut(std::uint32_t id);
  DToken* token_mut(TokenId id);
  /// Issues the next token id and returns its slot, holding only that id.
  DToken& new_token();
  void erase_token(TokenId id);
  void prune_history();

  std::vector<DActor> actors_;
  std::vector<DConnection> connections_;
  std::vector<DLink> links_;
  std::vector<std::unique_ptr<TokenChunk>> token_chunks_;
  std::size_t live_tokens_ = 0;
  std::uint64_t next_token_ = 0;
  std::uint64_t tokens_observed_ = 0;
  TokenQueue consumed_order_;  ///< pruning order
  std::size_t token_history_limit_ = 1u << 20;
  std::unordered_map<std::string, std::uint32_t> by_name_;
  std::unordered_map<std::string, std::uint32_t> by_path_;
  std::unordered_map<std::string, std::uint32_t> conn_by_iface_;
  std::vector<std::uint32_t> index_by_id_;  ///< framework actor id -> actors_ index
  bool ready_ = false;
};

}  // namespace dfdbg::dbg
