// Structured results of the Session inspection queries.
//
// Historically every `info *` query returned a pre-rendered std::string, so
// the interactive CLI was the only possible consumer. These view types are
// the typed API underneath: Session fills them from the live model, and two
// thin presentation layers sit on top —
//
//   * dfdbg/dbgcli/render.hpp renders the classic transcript text
//     (byte-identical to the old string-returning queries), and
//   * the to_json() overloads below emit the wire representation used by the
//     debug server (dfdbg/server) and the CLI `--json` flags.
//
// Keep views plain data: no methods beyond construction, no back-pointers
// into the model (strings and integers are snapshotted), so a view stays
// valid after the simulation moves on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dfdbg/common/json.hpp"
#include "dfdbg/sim/time.hpp"

namespace dfdbg::sim {
struct BarrierRoundRecord;
}

namespace dfdbg::dbg {

struct BreakpointInfo;
struct StopEvent;
struct RunOutcome;

/// One row of `info links`: live framework-link state.
struct LinkRow {
  std::string name;
  std::size_t occupancy = 0;
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  std::size_t high_watermark = 0;
  std::string transport;  ///< "L1" / "L2" / "DMA"
};

/// `info links` — every link of the application, registration order.
struct LinkView {
  std::vector<LinkRow> links;
};

/// `filter <f> info` — scheduling/blocking state of one filter.
struct FilterView {
  /// What the filter is blocked on (mirrors pedf::BlockInfo::Kind).
  enum class Blocked : std::uint8_t { kNone, kLinkEmpty, kLinkFull, kStart, kStep };

  std::string name;
  std::string path;
  std::string state;     ///< SchedState spelling
  std::uint64_t firings = 0;
  int line = 0;          ///< current source line; 0 = unknown (omitted)
  std::string pe;
  std::string behavior;  ///< ActorBehavior spelling
  bool has_blocked = false;  ///< framework actor found, blocked info valid
  Blocked blocked = Blocked::kNone;
  std::string blocked_link;  ///< set for kLinkEmpty / kLinkFull
};

/// One filter row of the scheduling monitor.
struct SchedRow {
  std::string name;
  std::string state;  ///< SchedState spelling
  std::uint64_t firings = 0;
};

/// `info sched <module>` — Contribution #2's scheduling monitor.
struct SchedView {
  std::string module;
  std::uint64_t step = 0;
  std::string backend;  ///< active process backend ("fibers"/"parallel")
  int workers = 1;      ///< partition count (1 on the fibers backend)
  std::vector<SchedRow> rows;
};

/// One hop of a provenance chain (newest first).
struct TokenHop {
  std::uint64_t uid = 0;   ///< framework provenance id (journal token id)
  std::string desc;        ///< transcript form: "src -> dst (Type) payload"
  sim::SimTime pushed_at = 0;
  bool injected = false;   ///< created by the debugger, not the app
};

/// `filter <f> info last_token` — provenance of the last consumed token.
struct TokenView {
  std::string filter;
  std::vector<TokenHop> hops;
};

/// `whence <iface> <slot>` — causal chain of a token still queued on a link.
struct WhenceChain {
  std::string link;           ///< link display name
  std::size_t slot = 0;
  std::size_t depth = 0;      ///< hop limit the query ran with
  std::vector<TokenHop> hops;
  bool truncated = false;     ///< chain hit `depth` with provenance left
  bool has_source = false;    ///< root token has no producer: a true source
  std::string source_actor;   ///< producing actor of the root ("?" if unknown)
  bool source_injected = false;
};

/// One queued token of `iface tokens`.
struct LinkTokenRow {
  std::size_t slot = 0;   ///< 0 = oldest
  bool pruned = false;    ///< mirror was pruned; payload unknown
  std::string value;      ///< payload to_string() (valid unless pruned)
  sim::SimTime pushed_at = 0;
  bool injected = false;
};

/// `iface <a::p> tokens` — payloads currently in flight on one link.
struct LinkTokensView {
  std::string link;  ///< link display name
  std::vector<LinkTokenRow> tokens;
};

/// One actor row of `info profile`.
struct ProfileRow {
  std::string path;
  std::string pe;  ///< "-" if unmapped
  std::uint64_t firings = 0;
  std::uint64_t cycles = 0;       ///< simulated cycles consumed
  std::uint64_t activations = 0;  ///< scheduler activations
};

/// `info profile` — live kernel/platform profiling snapshot.
struct ProfileSnapshot {
  std::uint64_t now = 0;         ///< simulated time
  std::uint64_t dispatches = 0;  ///< scheduler dispatch count
  std::vector<ProfileRow> rows;
};

/// One worker row of `info shards`: the cumulative attribution buckets of
/// sim::Kernel::shard_totals.
struct ShardRow {
  int partition = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t stalled_rounds = 0;
  std::uint64_t work_ns = 0;
  std::uint64_t barrier_wait_ns = 0;
  std::uint64_t drain_ns = 0;
  std::uint64_t idle_ns = 0;
  std::uint64_t skipped_wakes = 0;  ///< rounds this worker slept through
  /// work / (work + barrier-wait + drain + idle); 0 when nothing recorded.
  double utilization = 0.0;
};

/// `info shards` — parallel-backend shard time attribution. On sequential
/// backends `workers` is 1 and `rows` is empty.
struct ShardProfileView {
  std::string backend;  ///< active process backend spelling
  int workers = 1;
  std::uint64_t rounds = 0;        ///< barrier rounds completed
  std::uint64_t records = 0;       ///< retained BarrierRoundRecords
  std::uint64_t boundary_hwm = 0;  ///< max boundary occupancy over records
  std::vector<ShardRow> rows;
};

// --- wire encoding ----------------------------------------------------------
// One serializer for every consumer (server verbs, CLI --json): each view
// becomes one JSON value written into `w`. Schemas in docs/PROTOCOL.md.

void to_json(JsonWriter& w, const LinkView& v);
void to_json(JsonWriter& w, const FilterView& v);
void to_json(JsonWriter& w, const SchedView& v);
void to_json(JsonWriter& w, const TokenView& v);
void to_json(JsonWriter& w, const WhenceChain& v);
void to_json(JsonWriter& w, const LinkTokensView& v);
void to_json(JsonWriter& w, const ProfileSnapshot& v);
void to_json(JsonWriter& w, const ShardProfileView& v);
/// Wire form of one attribution round (the `shard_rounds` stream payload and
/// dfdbg-top's worker panel input).
void to_json(JsonWriter& w, const sim::BarrierRoundRecord& r);
void to_json(JsonWriter& w, const BreakpointInfo& v);
void to_json(JsonWriter& w, const StopEvent& v);
void to_json(JsonWriter& w, const RunOutcome& v);

/// Spelling of a FilterView::Blocked ("none", "link-empty", ...).
const char* to_string(FilterView::Blocked b);

}  // namespace dfdbg::dbg
