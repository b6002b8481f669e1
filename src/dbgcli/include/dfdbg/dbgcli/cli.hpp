// GDB-style command-line front end over the dataflow debugging Session.
//
// Implements the command surface of the paper's transcripts (`filter pipe
// catch work`, `step_both`, `iface hwcfg::pipe_MbType_out record`, ...), each
// command declared once in Interpreter::verbs(). Entity names (filters,
// interfaces) auto-complete from the reconstructed graph (paper
// Contribution #1).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dfdbg/common/status.hpp"
#include "dfdbg/debug/session.hpp"
#include "dfdbg/obs/metrics.hpp"

namespace dfdbg::trace {
class TraceCollector;
}

namespace dfdbg::cli {

/// Output sink. The default implementation buffers everything (tests read it
/// back); set `echo` to also write to stdout for interactive use.
class Console {
 public:
  explicit Console(bool echo = false) : echo_(echo) {}

  /// Prints one line (newline appended).
  void println(const std::string& line);
  /// Prints a possibly multi-line blob verbatim.
  void print(const std::string& text);

  /// Returns and clears everything printed since the last take().
  std::string take();

 private:
  bool echo_;
  std::string buf_;
};

class Interpreter;

/// Entity names complete() offers for a verb's operands.
enum class Operand : std::uint8_t {
  kNone,    ///< no entity names (numbers, files, fixed words)
  kName,    ///< any actor or interface name
  kFilter,  ///< filter short names
  kIface,   ///< interface names ("actor::port")
};

/// A sub-verb: its word, the argument position it takes, and whether a
/// successful line using it is setup that `save` writes.
struct SubVerb {
  std::string_view word;
  std::uint8_t at = 0;
  bool replayable = false;
};

/// One command word: what execute() dispatches and counts
/// (`cli.cmd.<word>`), complete() offers, `save` keeps and `help` prints.
struct Verb {
  std::string_view word;
  std::string_view alias{};  ///< short form ("r" for run), or empty
  Status (Interpreter::*run)(const std::vector<std::string>&) = nullptr;
  /// Successful lines are setup `save` writes (with sub-verbs: if the
  /// line's sub-verb is replayable too).
  bool replayable = false;
  std::span<const SubVerb> subs{};
  Operand operand = Operand::kNone;
  /// Where the operand completes: that argument position only, or (-1)
  /// every position that takes no sub-verb.
  std::int8_t operand_at = -1;
  std::string_view help{};  ///< "<syntax>\t<effect>" lines
};

/// The command interpreter.
class Interpreter {
 public:
  /// Constructing an interpreter also enables the process-wide metrics
  /// registry (dfdbg/obs): an interactive session is exactly the situation
  /// where `stats` / `profile export` self-profiling pays for itself.
  explicit Interpreter(dbg::Session& session, bool echo = false);
  ~Interpreter();

  /// Executes one command line. Errors are printed to the console and also
  /// returned. Empty lines and `#` comments are no-ops.
  Status execute(const std::string& line);

  /// Executes lines in order; continues past errors (like a .gdbinit).
  /// Returns the number of failed commands.
  int run_script(const std::vector<std::string>& lines);

  /// Completion candidates for the final word of `partial` (commands,
  /// filters, interfaces — the paper's auto-completion contribution).
  [[nodiscard]] std::vector<std::string> complete(const std::string& partial) const;

  /// The command table, in `help` order: the one place the CLI's words are
  /// declared.
  static std::span<const Verb> verbs();

  [[nodiscard]] Console& console() { return console_; }
  [[nodiscard]] dbg::Session& session() { return session_; }

  /// Successful state-creating commands so far (what `save` writes); used
  /// by the time-travel harness to replay a session deterministically.
  [[nodiscard]] const std::vector<std::string>& replayable() const { return replayable_; }

  /// dbg::Session::parse_value, the value grammar of `tok insert|set`.
  static Result<pedf::Value> parse_value(const pedf::TypeDesc& type, const std::string& text) {
    return dbg::Session::parse_value(type, text);
  }
  /// Parses a content condition over tokens of `type`: three words
  /// `<lhs> <op> <rhs>` where lhs is `value` (scalars) or a field name,
  /// op is ==, !=, <, <=, >, >= and rhs a number. Returns the predicate
  /// plus its normalized description.
  static Result<std::pair<std::function<bool(const pedf::Value&)>, std::string>> parse_condition(
      const pedf::TypeDesc& type, const std::vector<std::string>& words);

 private:
  using Args = std::vector<std::string>;
  Status cmd_run(const Args& args);
  Status cmd_filter(const Args& args);
  Status cmd_iface(const Args& args);
  Status cmd_step_both(const Args& args);
  Status cmd_step(const Args& args);
  Status cmd_ignore(const Args& args);
  Status cmd_unfocus(const Args& args);
  Status cmd_help(const Args& args);
  Status cmd_break(const Args& args);
  Status cmd_watch(const Args& args);
  Status cmd_list(const Args& args);
  Status cmd_print(const Args& args);
  Status cmd_graph(const Args& args);
  Status cmd_info(const Args& args);
  Status cmd_module(const Args& args);
  Status cmd_tok(const Args& args);
  Status cmd_delete(const Args& args);
  Status cmd_enable(const Args& args) { return set_enabled(args, true); }
  Status cmd_disable(const Args& args) { return set_enabled(args, false); }
  Status set_enabled(const Args& args, bool enable);
  Status cmd_focus(const Args& args);
  Status cmd_source(const Args& args);
  Status cmd_save(const Args& args);
  Status cmd_export(const Args& args);
  Status cmd_stats(const Args& args);
  Status cmd_trace(const Args& args);
  Status cmd_profile(const Args& args);
  Status cmd_journal(const Args& args);
  Status cmd_whence(const Args& args);

  /// Prints `text` verbatim (print_ok) or as one line (println_ok); OK.
  Status print_ok(const std::string& text);
  Status println_ok(const std::string& line);
  /// Prints "<what> <id><tail>" for a breakpoint just set, or returns the
  /// error that kept it from being set.
  Status report(const Result<dbg::BpId>& id, const char* what, const std::string& tail);
  void report_outcome(const dbg::RunOutcome& outcome);
  void flush_notes();
  /// Evaluates a print expression; stores the value in history ($N).
  Result<pedf::Value> eval(const std::string& expr) const;

  dbg::Session& session_;
  Console console_;
  /// Successful state-creating commands, replayable via `save`/`source`.
  std::vector<std::string> replayable_;
  /// Event collector behind `trace on/off/stats` and `profile export`.
  std::unique_ptr<trace::TraceCollector> trace_;
  /// `stats delta` baseline: registry values as of the previous delta.
  obs::StatsSnapshot stats_prev_;
  /// `journal tail` resume point (valid once journal_tailing_).
  std::uint64_t journal_cursor_ = 0;
  bool journal_tailing_ = false;
  /// `cli.cmd.<word>` per dispatch word, interned on the word's first use
  /// (the last slot is `cli.cmd.unknown`).
  std::vector<obs::Counter*> cmd_counters_;
};

}  // namespace dfdbg::cli
