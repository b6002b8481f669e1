// GDB-style command-line front end over the dataflow debugging Session.
//
// Implements the command surface used in the paper's transcripts:
//
//   (gdb) filter pipe catch work
//   (gdb) filter ipred catch Pipe_in=1, Hwcfg_in=1
//   (gdb) filter ipred catch *in=1
//   (gdb) step_both
//   (gdb) iface hwcfg::pipe_MbType_out record
//   (gdb) iface hwcfg::pipe_MbType_out print
//   (gdb) filter red configure splitter
//   (gdb) filter pipe info last_token
//   (gdb) filter print last_token
//   (gdb) print $1
//   (gdb) list / break / watch / continue / graph / info ...
//
// Entity names (filters, interfaces) auto-complete from the reconstructed
// graph (paper Contribution #1).
#pragma once

#include <functional>
#include <memory>
#include <string>
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
  [[nodiscard]] const std::string& buffered() const { return buf_; }

 private:
  bool echo_;
  std::string buf_;
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

  [[nodiscard]] Console& console() { return console_; }
  [[nodiscard]] dbg::Session& session() { return session_; }

  /// Successful state-creating commands so far (what `save` writes); used
  /// by the time-travel harness to replay a session deterministically.
  [[nodiscard]] const std::vector<std::string>& replayable() const { return replayable_; }

  /// Parses a token value for link type `type`: "5", "0x1f", or
  /// "Field=1,Other=0x2" for structs. Public and static: the debug server's
  /// structured inject/replace verbs parse values the same way the CLI does.
  static Result<pedf::Value> parse_value(const pedf::TypeDesc& type, const std::string& text);
  /// Parses a content condition over tokens of `type`: three words
  /// `<lhs> <op> <rhs>` where lhs is `value` (scalars) or a field name,
  /// op is ==, !=, <, <=, >, >= and rhs a number. Returns the predicate
  /// plus its normalized description.
  static Result<std::pair<std::function<bool(const pedf::Value&)>, std::string>> parse_condition(
      const pedf::TypeDesc& type, const std::vector<std::string>& words);

 private:
  Status cmd_run(const std::vector<std::string>& args, bool is_continue);
  Status cmd_filter(const std::vector<std::string>& args);
  Status cmd_iface(const std::vector<std::string>& args);
  Status cmd_step_both(const std::vector<std::string>& args);
  Status cmd_step();
  Status cmd_ignore(const std::vector<std::string>& args);
  Status cmd_unfocus();
  Status cmd_help();
  Status cmd_break(const std::vector<std::string>& args);
  Status cmd_watch(const std::vector<std::string>& args);
  Status cmd_list(const std::vector<std::string>& args);
  Status cmd_print(const std::vector<std::string>& args);
  Status cmd_graph(const std::vector<std::string>& args);
  Status cmd_info(const std::vector<std::string>& args);
  Status cmd_module(const std::vector<std::string>& args);
  Status cmd_tok(const std::vector<std::string>& args);
  Status cmd_delete(const std::vector<std::string>& args);
  Status cmd_enable(const std::vector<std::string>& args, bool enable);
  Status cmd_focus(const std::vector<std::string>& args);
  Status cmd_source(const std::vector<std::string>& args);
  Status cmd_save(const std::vector<std::string>& args);
  Status cmd_export(const std::vector<std::string>& args);
  Status cmd_stats(const std::vector<std::string>& args);
  Status cmd_trace(const std::vector<std::string>& args);
  Status cmd_profile(const std::vector<std::string>& args);
  Status cmd_journal(const std::vector<std::string>& args);
  Status cmd_whence(const std::vector<std::string>& args);
  static std::string help_text();

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
};

}  // namespace dfdbg::cli
