#include "dfdbg/pedf/filter.hpp"

#include "dfdbg/common/assert.hpp"
#include "dfdbg/pedf/application.hpp"
#include "dfdbg/sim/platform.hpp"

namespace dfdbg::pedf {

const char* to_string(StepState s) {
  switch (s) {
    case StepState::kIdle: return "idle";
    case StepState::kScheduled: return "scheduled";
    case StepState::kRunning: return "running";
    case StepState::kDone: return "done";
  }
  return "?";
}

Value& Filter::declare_data(std::string name, Value init) {
  // bind() may hold pointers into data_ from the spawn on.
  DFDBG_CHECK_MSG(!pedf_.has_value(), "data '" + name + "' declared after spawn");
  DFDBG_CHECK_MSG(data(name) == nullptr, "duplicate data '" + name + "'");
  data_.emplace_back(std::move(name), std::move(init));
  return data_.back().second;
}

Value& Filter::declare_attribute(std::string name, Value init) {
  DFDBG_CHECK_MSG(!pedf_.has_value(), "attribute '" + name + "' declared after spawn");
  DFDBG_CHECK_MSG(attribute(name) == nullptr, "duplicate attribute '" + name + "'");
  attrs_.emplace_back(std::move(name), std::move(init));
  return attrs_.back().second;
}

Value* Filter::data(std::string_view name) {
  for (auto& [n, v] : data_)
    if (n == name) return &v;
  return nullptr;
}

Value* Filter::attribute(std::string_view name) {
  for (auto& [n, v] : attrs_)
    if (n == name) return &v;
  return nullptr;
}

void Filter::set_source(std::string file, int first_line, std::vector<std::string> lines) {
  src_file_ = std::move(file);
  src_first_line_ = first_line;
  src_lines_ = std::move(lines);
}

// ---------------------------------------------------------------------------
// FilterContext
// ---------------------------------------------------------------------------

FilterContext::In FilterContext::in(std::string_view port) {
  Port* p = self_.port(port);
  DFDBG_CHECK_MSG(p != nullptr, self_.path() + ": no port '" + std::string(port) + "'");
  DFDBG_CHECK_MSG(p->dir() == PortDir::kIn, std::string(port) + " is not an input");
  return In(this, p);
}

FilterContext::Out FilterContext::out(std::string_view port) {
  Port* p = self_.port(port);
  DFDBG_CHECK_MSG(p != nullptr, self_.path() + ": no port '" + std::string(port) + "'");
  DFDBG_CHECK_MSG(p->dir() == PortDir::kOut, std::string(port) + " is not an output");
  return Out(this, p);
}

Value FilterContext::In::get() {
  auto v = ctx_->app_.rt_link_pop(ctx_->self_, *port_);
  DFDBG_CHECK_MSG(v.has_value(), "link_pop interrupted by I/O shutdown on " + port_->name());
  return std::move(*v);
}

std::optional<Value> FilterContext::In::get_opt() {
  return ctx_->app_.rt_link_pop(ctx_->self_, *port_);
}

std::size_t FilterContext::In::get_n(Value* out, std::size_t n) {
  return ctx_->app_.rt_link_pop_n(ctx_->self_, *port_, out, n);
}

std::size_t FilterContext::In::available() const {
  Link* l = port_->link();
  return l == nullptr ? 0 : l->occupancy();
}

void FilterContext::Out::put(const Value& v) { ctx_->app_.rt_link_push(ctx_->self_, *port_, v); }

void FilterContext::Out::put_n(const Value* vs, std::size_t n) {
  ctx_->app_.rt_link_push_n(ctx_->self_, *port_, vs, n);
}

Value& FilterContext::data(std::string_view name) {
  Value* v = self_.data(name);
  DFDBG_CHECK_MSG(v != nullptr, self_.path() + ": no data '" + std::string(name) + "'");
  return *v;
}

Value& FilterContext::attr(std::string_view name) {
  Value* v = self_.attribute(name);
  DFDBG_CHECK_MSG(v != nullptr, self_.path() + ": no attribute '" + std::string(name) + "'");
  return *v;
}

void FilterContext::line(int line) { app_.rt_filter_line(self_, line); }

void FilterContext::compute(sim::SimTime cycles) {
  DFDBG_CHECK_MSG(self_.pe() != nullptr, self_.path() + " has no PE mapping");
  self_.pe()->execute(app_.kernel(), cycles);
}

bool FilterContext::sync_requested() const { return self_.sync_requested_; }

void FilterContext::stop() { self_.terminate_ = true; }

std::size_t FilterContext::fire_batch() const { return self_.fire_batch_; }

}  // namespace dfdbg::pedf
