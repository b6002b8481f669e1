// Base class of the three PEDF entity kinds (paper §IV): Filter (computing
// actor), Controller (per-module scheduler) and Module (hierarchical
// composite), plus host I/O endpoints feeding/draining the root graph.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dfdbg/common/ids.hpp"
#include "dfdbg/pedf/value.hpp"

namespace dfdbg::sim {
class Pe;
}

namespace dfdbg::pedf {

class Link;
class Actor;
class Module;

struct ActorIdTag {};
/// Dense id of an actor within one application.
using ActorId = dfdbg::Id<ActorIdTag>;

/// Entity kind.
enum class ActorKind : std::uint8_t { kFilter, kController, kModule, kHostIo };

/// Short name for an ActorKind ("filter", ...).
const char* to_string(ActorKind k);

/// Direction of a port (data dependency end).
enum class PortDir : std::uint8_t { kIn, kOut };

/// A realized data-dependency endpoint on an actor instance. After binding
/// resolution every connected port references its Link.
class Port {
 public:
  Port(Actor* owner, std::string name, PortDir dir, TypeDesc type)
      : owner_(owner), name_(std::move(name)), dir_(dir), type_(type) {}

  [[nodiscard]] Actor& owner() const { return *owner_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] PortDir dir() const { return dir_; }
  [[nodiscard]] const TypeDesc& type() const { return type_; }

  /// The link this port is bound to (nullptr before resolution / if unbound).
  [[nodiscard]] Link* link() const { return link_; }
  void set_link(Link* link) { link_ = link; }

 private:
  Actor* owner_;
  std::string name_;
  PortDir dir_;
  TypeDesc type_;
  Link* link_ = nullptr;
};

/// What an actor is currently blocked on, if anything (exposed so the
/// debugger can answer "is this filter waiting for more data?").
struct BlockInfo {
  enum class Kind : std::uint8_t { kNone, kLinkEmpty, kLinkFull, kStart, kStep } kind = Kind::kNone;
  const Link* link = nullptr;
};

/// Common state of every PEDF entity.
class Actor {
 public:
  Actor(ActorKind kind, std::string name) : kind_(kind), name_(std::move(name)) {}
  virtual ~Actor() = default;

  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;

  [[nodiscard]] ActorKind kind() const { return kind_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Hierarchical path, e.g. "pred.ipred" (assigned at elaboration).
  [[nodiscard]] const std::string& path() const { return path_; }
  void set_path(std::string path) { path_ = std::move(path); }

  [[nodiscard]] ActorId id() const { return id_; }
  void set_id(ActorId id) { id_ = id; }

  /// path()'s name id in the kernel's journal, interned at elaboration:
  /// every journal record about this actor carries it.
  [[nodiscard]] std::uint32_t journal_name() const { return journal_name_; }
  void set_journal_name(std::uint32_t id) { journal_name_ = id; }

  /// Declares a port. Name must be unique on this actor.
  Port& add_port(std::string name, PortDir dir, TypeDesc type);

  /// Port by name (nullptr if absent).
  [[nodiscard]] Port* port(std::string_view name) const;
  [[nodiscard]] const std::vector<std::unique_ptr<Port>>& ports() const { return ports_; }
  /// All ports of one direction.
  [[nodiscard]] std::vector<Port*> ports_of(PortDir dir) const;

  /// Processing element this actor is mapped to (nullptr until mapping).
  [[nodiscard]] sim::Pe* pe() const { return pe_; }
  void set_pe(sim::Pe* pe) { pe_ = pe; }

  /// Current blocking state (maintained by the runtime shims).
  [[nodiscard]] const BlockInfo& blocked() const { return blocked_; }
  void set_blocked(BlockInfo b) { blocked_ = b; }

  /// Enclosing module (nullptr for the root module and host I/O actors).
  [[nodiscard]] Module* parent() const { return parent_; }
  void set_parent(Module* m) { parent_ = m; }

 private:
  ActorKind kind_;
  std::string name_;
  std::string path_;
  ActorId id_;
  std::uint32_t journal_name_ = UINT32_MAX;
  std::vector<std::unique_ptr<Port>> ports_;
  sim::Pe* pe_ = nullptr;
  BlockInfo blocked_;
  Module* parent_ = nullptr;
};

}  // namespace dfdbg::pedf
