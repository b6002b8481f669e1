#include "dfdbg/debug/export.hpp"

#include <sstream>

#include "dfdbg/common/strings.hpp"

namespace dfdbg::dbg {

namespace {

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          out += strformat("\\u%04x", c);
        else
          out += c;
    }
  }
  out += "\"";
  return out;
}

}  // namespace

std::string export_state_json(const Session& session) {
  const GraphModel& g = session.graph();
  std::ostringstream js;
  js << "{\n";

  js << "  \"actors\": [\n";
  for (std::size_t i = 0; i < g.actors().size(); ++i) {
    const DActor& a = g.actors()[i];
    js << "    {\"name\": " << jstr(a.name) << ", \"path\": " << jstr(a.path)
       << ", \"kind\": " << jstr(to_string(a.kind)) << ", \"pe\": " << jstr(a.pe)
       << ", \"parent\": " << jstr(a.parent_path)
       << ", \"sched\": " << jstr(to_string(a.sched)) << ", \"firings\": " << a.firings
       << ", \"line\": " << a.current_line
       << ", \"behavior\": " << jstr(to_string(a.behavior)) << "}"
       << (i + 1 < g.actors().size() ? "," : "") << "\n";
  }
  js << "  ],\n";

  js << "  \"connections\": [\n";
  for (std::size_t i = 0; i < g.connections().size(); ++i) {
    const DConnection& c = g.connections()[i];
    js << "    {\"iface\": " << jstr(c.iface()) << ", \"dir\": "
       << (c.is_input ? "\"in\"" : "\"out\"") << ", \"type\": " << jstr(c.type)
       << ", \"link\": " << (c.link == UINT32_MAX ? -1 : static_cast<long>(c.link))
       << ", \"tokens_seen\": " << c.tokens_seen << "}"
       << (i + 1 < g.connections().size() ? "," : "") << "\n";
  }
  js << "  ],\n";

  js << "  \"links\": [\n";
  for (std::size_t i = 0; i < g.links().size(); ++i) {
    const DLink& l = g.links()[i];
    js << "    {\"id\": " << l.id << ", \"src\": " << jstr(l.src_iface)
       << ", \"dst\": " << jstr(l.dst_iface) << ", \"type\": " << jstr(l.type)
       << ", \"transport\": " << jstr(l.transport)
       << ", \"control\": " << (l.is_control ? "true" : "false")
       << ", \"occupancy\": " << l.queue.size() << ", \"pushes\": " << l.pushes
       << ", \"pops\": " << l.pops << ", \"tokens\": [";
    for (std::size_t t = 0; t < l.queue.size(); ++t) {
      const DToken* tok = g.token(l.queue[t]);
      js << (t ? ", " : "")
         << (tok != nullptr ? jstr(tok->value.to_string()) : jstr("<pruned>"));
    }
    js << "]}" << (i + 1 < g.links().size() ? "," : "") << "\n";
  }
  js << "  ],\n";

  auto bps = session.breakpoints();
  js << "  \"breakpoints\": [\n";
  for (std::size_t i = 0; i < bps.size(); ++i) {
    js << "    {\"id\": " << bps[i].id.value() << ", \"description\": "
       << jstr(bps[i].description) << ", \"enabled\": " << (bps[i].enabled ? "true" : "false")
       << ", \"temporary\": " << (bps[i].temporary ? "true" : "false")
       << ", \"hits\": " << bps[i].hits << "}" << (i + 1 < bps.size() ? "," : "") << "\n";
  }
  js << "  ],\n";

  const auto& hist = session.history();
  js << "  \"stops\": [\n";
  for (std::size_t i = 0; i < hist.size(); ++i) {
    js << "    {\"kind\": " << jstr(to_string(hist[i].kind)) << ", \"time\": " << hist[i].time
       << ", \"actor\": " << jstr(hist[i].actor) << ", \"message\": " << jstr(hist[i].message)
       << "}" << (i + 1 < hist.size() ? "," : "") << "\n";
  }
  js << "  ],\n";

  js << "  \"tokens_observed\": " << g.tokens_observed() << ",\n";
  js << "  \"tokens_retained\": " << g.token_count() << "\n";
  js << "}\n";
  return js.str();
}

}  // namespace dfdbg::dbg
