#include "dfdbg/debug/model.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <sstream>

#include "dfdbg/common/assert.hpp"
#include "dfdbg/common/strings.hpp"

namespace dfdbg::dbg {

const char* to_string(DActorKind k) {
  switch (k) {
    case DActorKind::kFilter: return "filter";
    case DActorKind::kController: return "controller";
    case DActorKind::kModule: return "module";
    case DActorKind::kHostIo: return "host-io";
    case DActorKind::kUnknown: return "?";
  }
  return "?";
}

DActorKind parse_actor_kind(std::string_view s) {
  if (s == "filter") return DActorKind::kFilter;
  if (s == "controller") return DActorKind::kController;
  if (s == "module") return DActorKind::kModule;
  if (s == "host-io") return DActorKind::kHostIo;
  return DActorKind::kUnknown;
}

const char* to_string(ActorBehavior b) {
  switch (b) {
    case ActorBehavior::kUnknown: return "unknown";
    case ActorBehavior::kSplitter: return "splitter";
    case ActorBehavior::kPipeline: return "pipeline";
    case ActorBehavior::kMerger: return "merger";
  }
  return "?";
}

const char* to_string(SchedState s) {
  switch (s) {
    case SchedState::kNotScheduled: return "not-scheduled";
    case SchedState::kScheduled: return "scheduled";
    case SchedState::kRunning: return "running";
    case SchedState::kFinished: return "finished";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// TokenQueue
// ---------------------------------------------------------------------------

void TokenQueue::push_back(TokenId id) {
  if (size_ == slots_.size()) {
    // Full (or never used): unroll into a ring twice the size.
    std::vector<TokenId> grown(slots_.empty() ? 16 : slots_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) grown[i] = (*this)[i];
    slots_ = std::move(grown);
    head_ = 0;
  }
  slots_[(head_ + size_) & (slots_.size() - 1)] = id;
  ++size_;
}

void TokenQueue::erase(std::size_t i) {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t j = i; j + 1 < size_; ++j)
    slots_[(head_ + j) & mask] = slots_[(head_ + j + 1) & mask];
  --size_;
}

// ---------------------------------------------------------------------------
// Registration (Contribution #1)
// ---------------------------------------------------------------------------

void GraphModel::on_register_actor(DActorKind kind, std::string name, std::string path,
                                   std::string pe, std::string parent, std::uint32_t id) {
  DActor a;
  a.id = id;
  a.kind = kind;
  a.name = std::move(name);
  a.path = std::move(path);
  a.pe = std::move(pe);
  a.parent_path = std::move(parent);
  auto idx = static_cast<std::uint32_t>(actors_.size());
  if (a.kind == DActorKind::kFilter) {
    if (DActor* module = actor_by_path_mut(a.parent_path); module != nullptr)
      module->filters.push_back(idx);
  }
  by_path_[a.path] = idx;
  // Short-name aliases only when unambiguous (mirrors the framework rule).
  auto it = by_name_.find(a.name);
  if (it == by_name_.end())
    by_name_[a.name] = idx;
  else
    it->second = UINT32_MAX;  // ambiguous
  if (id != kNoActor) {
    if (index_by_id_.size() <= id) index_by_id_.resize(id + 1, UINT32_MAX);
    index_by_id_[id] = idx;
  }
  actors_.push_back(std::move(a));
}

void GraphModel::on_register_port(const std::string& actor_path, std::string port, bool is_input,
                                  std::string type) {
  DActor* a = actor_by_path_mut(actor_path);
  if (a == nullptr) return;
  DConnection c;
  c.actor = a->name;
  c.port = std::move(port);
  c.is_input = is_input;
  c.type = std::move(type);
  auto idx = static_cast<std::uint32_t>(connections_.size());
  conn_by_iface_[c.iface()] = idx;
  (is_input ? a->in_conns : a->out_conns).push_back(idx);
  connections_.push_back(std::move(c));
}

void GraphModel::on_register_link(std::uint32_t id, std::string name,
                                  const std::string& src_actor_path, std::string src_port,
                                  const std::string& dst_actor_path, std::string dst_port,
                                  std::string type, std::string transport) {
  DLink l;
  l.id = id;
  l.name = std::move(name);
  l.type = std::move(type);
  l.transport = std::move(transport);
  const DActor* src = actor_by_path(src_actor_path);
  const DActor* dst = actor_by_path(dst_actor_path);
  l.src_actor = src != nullptr ? src->name : src_actor_path;
  l.dst_actor = dst != nullptr ? dst->name : dst_actor_path;
  l.src_port = std::move(src_port);
  l.dst_port = std::move(dst_port);
  l.src_iface = l.src_actor + "::" + l.src_port;
  l.dst_iface = l.dst_actor + "::" + l.dst_port;
  l.is_control = (src != nullptr && src->kind == DActorKind::kController) ||
                 (dst != nullptr && dst->kind == DActorKind::kController);
  if (links_.size() <= id) links_.resize(id + 1);
  // Attach the link to its two connections.
  if (auto it = conn_by_iface_.find(l.src_iface); it != conn_by_iface_.end()) {
    l.src_conn = it->second;
    connections_[it->second].link = id;
  }
  if (auto it = conn_by_iface_.find(l.dst_iface); it != conn_by_iface_.end()) {
    l.dst_conn = it->second;
    connections_[it->second].link = id;
  }
  links_[id] = std::move(l);
}

void GraphModel::on_graph_ready() { ready_ = true; }

// ---------------------------------------------------------------------------
// Runtime updates (Contributions #2 and #3)
// ---------------------------------------------------------------------------

TokenId GraphModel::on_push(std::uint32_t link, std::uint64_t index, const pedf::Value& value,
                            std::uint32_t actor, sim::SimTime now, bool injected,
                            std::uint64_t uid) {
  if (link >= links_.size()) return TokenId{};
  DLink& l = links_[link];
  DToken& t = new_token();
  const TokenId id = t.id;
  t.value = value;
  t.uid = uid;
  t.link = link;
  t.push_index = index;
  t.pushed_at = now;
  t.injected = injected;
  tokens_observed_++;

  // Provenance chaining through the producing actor's declared behaviour.
  DActor* producer = actor_by_id_mut(actor);
  if (producer != nullptr) {
    switch (producer->behavior) {
      case ActorBehavior::kSplitter:
      case ActorBehavior::kMerger:
        t.produced_from = producer->last_token_in;
        break;
      case ActorBehavior::kPipeline:
        if (!producer->recent_consumed.empty())
          t.produced_from = producer->recent_consumed.pop_front();
        break;
      case ActorBehavior::kUnknown:
        break;
    }
    producer->last_token_out = id;
  }

  l.queue.push_back(id);
  l.pushes++;
  if (l.src_conn != UINT32_MAX) connections_[l.src_conn].tokens_seen++;
  return id;
}

TokenId GraphModel::on_pop(std::uint32_t link, std::uint32_t actor, sim::SimTime now) {
  if (link >= links_.size()) return TokenId{};
  DLink& l = links_[link];
  l.pops++;
  if (l.dst_conn != UINT32_MAX) connections_[l.dst_conn].tokens_seen++;
  if (l.queue.empty()) return TokenId{};  // stale model (hooks were off)
  TokenId id = l.queue.front();
  l.queue.pop_front();
  if (DToken* t = token_mut(id); t != nullptr) {
    t->consumed = true;
    t->popped_at = now;
  }
  if (DActor* consumer = actor_by_id_mut(actor); consumer != nullptr) {
    consumer->last_token_in = id;
    consumer->recent_consumed.push(id);
  }
  consumed_order_.push_back(id);
  prune_history();
  return id;
}

void GraphModel::on_remove(std::uint32_t link, std::size_t idx) {
  if (link >= links_.size()) return;
  DLink& l = links_[link];
  if (idx >= l.queue.size()) return;
  TokenId id = l.queue[idx];
  l.queue.erase(idx);
  erase_token(id);
}

void GraphModel::on_replace(std::uint32_t link, std::size_t idx, const pedf::Value& value) {
  if (link >= links_.size()) return;
  DLink& l = links_[link];
  if (idx >= l.queue.size()) return;
  if (DToken* t = token_mut(l.queue[idx]); t != nullptr) t->value = value;
}

void GraphModel::on_work_enter(std::uint32_t actor, std::uint64_t firing) {
  if (DActor* a = actor_by_id_mut(actor); a != nullptr) {
    a->sched = SchedState::kRunning;
    a->firings = firing;
  }
}

void GraphModel::on_work_exit(std::uint32_t actor) {
  if (DActor* a = actor_by_id_mut(actor); a != nullptr) a->sched = SchedState::kFinished;
}

void GraphModel::on_actor_start(std::uint32_t filter) {
  if (DActor* a = actor_by_id_mut(filter); a != nullptr) a->sched = SchedState::kScheduled;
}

void GraphModel::on_step_begin(std::uint32_t module, std::uint64_t step) {
  if (DActor* a = actor_by_id_mut(module); a != nullptr) a->step = step;
}

void GraphModel::on_step_end(std::uint32_t module) {
  DActor* m = actor_by_id_mut(module);
  if (m == nullptr) return;
  // A new step starts from a clean scheduling slate.
  for (std::uint32_t f : m->filters) actors_[f].sched = SchedState::kNotScheduled;
}

void GraphModel::on_wait_sync_done(std::uint32_t module) { on_step_end(module); }

void GraphModel::on_filter_line(std::uint32_t actor, int line) {
  if (DActor* a = actor_by_id_mut(actor); a != nullptr) a->current_line = line;
}

void GraphModel::resync_link(std::uint32_t link, std::size_t occupancy) {
  if (link >= links_.size()) return;
  DLink& l = links_[link];
  for (TokenId id : l.queue) erase_token(id);
  l.queue.clear();
  for (std::size_t i = 0; i < occupancy; ++i) {
    DToken& t = new_token();
    t.link = link;  // payload unknown: model was stale
    l.queue.push_back(t.id);
  }
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

const DActor* GraphModel::actor_by_name(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  if (it == by_name_.end() || it->second == UINT32_MAX) return nullptr;
  return &actors_[it->second];
}

DActor* GraphModel::actor_by_name_mut(std::string_view name) {
  return const_cast<DActor*>(actor_by_name(name));
}

const DActor* GraphModel::actor_by_path(std::string_view path) const {
  auto it = by_path_.find(std::string(path));
  return it == by_path_.end() ? nullptr : &actors_[it->second];
}

DActor* GraphModel::actor_by_path_mut(std::string_view path) {
  return const_cast<DActor*>(actor_by_path(path));
}

const DActor* GraphModel::actor_by_id(std::uint32_t id) const {
  if (id >= index_by_id_.size() || index_by_id_[id] == UINT32_MAX) return nullptr;
  return &actors_[index_by_id_[id]];
}

DActor* GraphModel::actor_by_id_mut(std::uint32_t id) {
  return const_cast<DActor*>(actor_by_id(id));
}

const DLink* GraphModel::link(std::uint32_t id) const {
  return id < links_.size() ? &links_[id] : nullptr;
}

const DConnection* GraphModel::connection_by_iface(std::string_view iface) const {
  auto it = conn_by_iface_.find(std::string(iface));
  return it == conn_by_iface_.end() ? nullptr : &connections_[it->second];
}

const DLink* GraphModel::link_by_iface(std::string_view iface) const {
  const DConnection* c = connection_by_iface(iface);
  if (c == nullptr || c->link == UINT32_MAX) return nullptr;
  return link(c->link);
}

const DToken* GraphModel::token(TokenId id) const {
  if (!id.valid()) return nullptr;
  const std::size_t c = id.value() / kTokenChunk;
  if (c >= token_chunks_.size() || token_chunks_[c] == nullptr) return nullptr;
  const DToken& t = token_chunks_[c]->slots[id.value() % kTokenChunk];
  return t.id.valid() ? &t : nullptr;
}

DToken* GraphModel::token_mut(TokenId id) { return const_cast<DToken*>(token(id)); }

DToken& GraphModel::new_token() {
  TokenId id(static_cast<std::uint32_t>(next_token_++));
  const std::size_t c = id.value() / kTokenChunk;
  if (c >= token_chunks_.size()) token_chunks_.resize(c + 1);
  if (token_chunks_[c] == nullptr) token_chunks_[c] = std::make_unique<TokenChunk>();
  TokenChunk& chunk = *token_chunks_[c];
  chunk.live++;
  live_tokens_++;
  DToken& t = chunk.slots[id.value() % kTokenChunk];
  t.id = id;
  return t;
}

void GraphModel::erase_token(TokenId id) {
  DToken* t = token_mut(id);
  if (t == nullptr) return;
  *t = DToken{};  // frees a wide payload, marks the slot free
  live_tokens_--;
  const std::size_t c = id.value() / kTokenChunk;
  // Free the chunk once all its ids were issued and all its tokens dropped.
  if (--token_chunks_[c]->live == 0 && (c + 1) * kTokenChunk <= next_token_)
    token_chunks_[c].reset();
}

std::size_t GraphModel::token_memory_bytes() const {
  std::size_t bytes = 0;
  for (const auto& chunk : token_chunks_) {
    if (chunk == nullptr) continue;
    for (const DToken& t : chunk->slots)
      if (t.id.valid()) bytes += sizeof(DToken) + t.value.type().byte_size();
  }
  return bytes;
}

std::vector<const DToken*> GraphModel::token_path(TokenId start, std::size_t depth) const {
  std::vector<const DToken*> out;
  TokenId cur = start;
  while (cur.valid() && out.size() < depth) {
    const DToken* t = token(cur);
    if (t == nullptr) break;
    out.push_back(t);
    cur = t->produced_from;
  }
  return out;
}

void GraphModel::set_behavior(std::string_view actor_name, ActorBehavior b) {
  DActor* a = actor_by_name_mut(actor_name);
  DFDBG_CHECK_MSG(a != nullptr, "unknown actor: " + std::string(actor_name));
  a->behavior = b;
}

void GraphModel::prune_history() {
  while (consumed_order_.size() > token_history_limit_) {
    TokenId victim = consumed_order_.front();
    consumed_order_.pop_front();
    erase_token(victim);
  }
}

std::vector<std::string> GraphModel::completion_names() const {
  std::vector<std::string> out;
  for (const DActor& a : actors_) out.push_back(a.name);
  for (const DConnection& c : connections_) out.push_back(c.iface());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string GraphModel::describe_token(TokenId id) const {
  const DToken* t = token(id);
  if (t == nullptr) return "<pruned token>";
  const DLink* l = link(t->link);
  std::string arrow =
      l != nullptr ? l->src_actor + " -> " + l->dst_actor : std::string("? -> ?");
  return arrow + " " + t->value.to_string();
}

// ---------------------------------------------------------------------------
// DOT rendering (Figs. 2 and 4)
// ---------------------------------------------------------------------------

std::string GraphModel::to_dot(bool with_tokens) const {
  std::ostringstream os;
  os << "digraph app {\n  rankdir=LR;\n  compound=true;\n";
  // Group actors by enclosing module.
  std::map<std::string, std::vector<const DActor*>> by_parent;
  for (const DActor& a : actors_) by_parent[a.parent_path].push_back(&a);

  // Emit module clusters (depth-first over module actors).
  std::function<void(const DActor&, int)> emit_module = [&](const DActor& mod, int depth) {
    std::string ind(static_cast<std::size_t>(depth) * 2, ' ');
    os << ind << "subgraph \"cluster_" << mod.path << "\" {\n";
    os << ind << "  label=\"" << mod.name << "\"; style=dashed;\n";
    auto it = by_parent.find(mod.path);
    if (it != by_parent.end()) {
      for (const DActor* a : it->second) {
        if (a->kind == DActorKind::kModule) {
          emit_module(*a, depth + 1);
        } else if (a->kind == DActorKind::kController) {
          os << ind << "  \"" << a->name
             << "\" [shape=box, style=filled, fillcolor=palegreen];\n";
        } else {
          os << ind << "  \"" << a->name << "\" [shape=ellipse];\n";
        }
      }
    }
    os << ind << "}\n";
  };
  for (const DActor& a : actors_) {
    if (a.kind == DActorKind::kModule && a.parent_path.empty()) emit_module(a, 1);
    if (a.kind == DActorKind::kHostIo) os << "  \"" << a.name << "\" [shape=diamond];\n";
  }
  for (const DLink& l : links_) {
    if (l.id == UINT32_MAX) continue;
    os << "  \"" << l.src_actor << "\" -> \"" << l.dst_actor << "\"";
    std::vector<std::string> attrs;
    if (l.is_control)
      attrs.push_back(l.transport == "DMA" ? "style=dashed" : "style=dotted");
    std::string label = l.src_port;
    if (with_tokens) label += strformat(" [%zu]", l.queue.size());
    attrs.push_back("label=\"" + label + "\"");
    os << " [" << join(attrs, ", ") << "];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace dfdbg::dbg
