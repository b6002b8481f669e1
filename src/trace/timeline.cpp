#include "dfdbg/trace/timeline.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

#include "dfdbg/common/strings.hpp"

namespace dfdbg::trace {

namespace {

/// A WORK activity interval of one actor.
struct Interval {
  sim::SimTime begin = 0;
  sim::SimTime end = 0;
};

/// Deterministic pastel color per module name.
std::string module_color(const std::string& module) {
  static const char* kPalette[] = {"#8dd3c7", "#ffffb3", "#bebada", "#fb8072",
                                   "#80b1d3", "#fdb462", "#b3de69", "#fccde5"};
  std::size_t h = std::hash<std::string>{}(module);
  return kPalette[h % (sizeof(kPalette) / sizeof(kPalette[0]))];
}

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '<') out += "&lt;";
    else if (c == '>') out += "&gt;";
    else if (c == '&') out += "&amp;";
    else out += c;
  }
  return out;
}

}  // namespace

std::string render_timeline_svg(const TraceCollector& trace, pedf::Application& app,
                                const TimelineOptions& options) {
  // Collect WORK intervals per actor path and occupancy curves per link.
  std::map<std::string, std::vector<Interval>> intervals;
  std::map<std::string, sim::SimTime> open;
  std::map<std::uint32_t, std::vector<std::pair<sim::SimTime, long>>> occ_delta;
  sim::SimTime t_min = UINT64_MAX, t_max = 0;

  const auto& events = trace.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events.at(i);
    t_min = std::min(t_min, e.time);
    t_max = std::max(t_max, e.time);
    switch (e.kind) {
      case TraceKind::kWorkEnter:
        open[e.actor] = e.time;
        break;
      case TraceKind::kWorkExit: {
        auto it = open.find(e.actor);
        sim::SimTime begin = it != open.end() ? it->second : e.time;
        if (it != open.end()) open.erase(it);
        intervals[e.actor].push_back(Interval{begin, e.time});
        break;
      }
      case TraceKind::kPush:
        occ_delta[e.link].push_back({e.time, +1});
        break;
      case TraceKind::kPop:
        occ_delta[e.link].push_back({e.time, -1});
        break;
      default:
        break;
    }
  }
  // Close still-open intervals at the end of the window.
  for (auto& [actor, begin] : open) intervals[actor].push_back(Interval{begin, t_max});
  if (t_min == UINT64_MAX) {
    t_min = 0;
    t_max = 1;
  }
  if (t_max == t_min) t_max = t_min + 1;

  // Row order: application actor order (stable & grouped by module).
  std::vector<const pedf::Actor*> rows;
  for (const pedf::Actor* a : app.actors()) {
    if (a->kind() == pedf::ActorKind::kModule) continue;
    if (!options.include_host_io && a->kind() == pedf::ActorKind::kHostIo) continue;
    rows.push_back(a);
  }

  // Busiest links for occupancy curves.
  std::vector<std::pair<std::size_t, std::uint32_t>> busiest;  // (max occ, link)
  for (auto& [link, deltas] : occ_delta) {
    std::sort(deltas.begin(), deltas.end());
    long cur = 0;
    std::size_t peak = 0;
    for (auto& [t, d] : deltas) {
      cur += d;
      peak = std::max<std::size_t>(peak, static_cast<std::size_t>(std::max(cur, 0L)));
    }
    busiest.push_back({peak, link});
  }
  std::sort(busiest.rbegin(), busiest.rend());
  if (static_cast<int>(busiest.size()) > options.occupancy_rows)
    busiest.resize(static_cast<std::size_t>(options.occupancy_rows));

  const int label_w = 170;
  const int rh = options.row_height_px;
  const int occ_h = 48;
  const int axis_h = 24;
  int height = axis_h + static_cast<int>(rows.size()) * rh +
               static_cast<int>(busiest.size()) * occ_h + 8;
  int width = label_w + options.width_px + 10;
  auto x_of = [&](sim::SimTime t) {
    return label_w + static_cast<double>(t - t_min) / static_cast<double>(t_max - t_min) *
                         options.width_px;
  };

  std::ostringstream svg;
  svg << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << width << "\" height=\""
      << height << "\" font-family=\"monospace\" font-size=\"11\">\n";
  svg << "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";

  // Time axis with 8 ticks.
  svg << "<g fill=\"#444\">\n";
  for (int k = 0; k <= 8; ++k) {
    sim::SimTime t = t_min + (t_max - t_min) * static_cast<sim::SimTime>(k) / 8;
    double x = x_of(t);
    svg << strformat("<line x1=\"%.1f\" y1=\"%d\" x2=\"%.1f\" y2=\"%d\" stroke=\"#ccc\"/>\n",
                     x, axis_h, x, height - 4);
    svg << strformat("<text x=\"%.1f\" y=\"14\">%llu</text>\n", x,
                     static_cast<unsigned long long>(t));
  }
  svg << "</g>\n";

  // Actor rows.
  int y = axis_h;
  for (const pedf::Actor* a : rows) {
    std::string module = a->parent() != nullptr ? a->parent()->name() : "host";
    svg << strformat("<text x=\"4\" y=\"%d\" fill=\"#222\">%s</text>\n", y + rh - 5,
                     escape(a->name()).c_str());
    auto it = intervals.find(a->path());
    if (it != intervals.end()) {
      for (const Interval& iv : it->second) {
        double x0 = x_of(iv.begin);
        double x1 = std::max(x_of(iv.end), x0 + 1.0);
        svg << strformat(
            "<rect x=\"%.1f\" y=\"%d\" width=\"%.1f\" height=\"%d\" fill=\"%s\" "
            "stroke=\"#666\" stroke-width=\"0.4\"/>\n",
            x0, y + 2, x1 - x0, rh - 4, module_color(module).c_str());
      }
    }
    y += rh;
  }

  // Occupancy curves of the busiest links.
  const auto link_name = app.link_namer();
  for (auto& [peak, link] : busiest) {
    const std::string name = link_name(link);
    svg << strformat("<text x=\"4\" y=\"%d\" fill=\"#222\">occ: %s</text>\n", y + 12,
                     escape(name.substr(0, 24)).c_str());
    const auto& deltas = occ_delta[link];
    long cur = 0;
    std::ostringstream path;
    double last_x = x_of(t_min);
    double base = y + occ_h - 6;
    double scale = peak > 0 ? (occ_h - 14.0) / static_cast<double>(peak) : 1.0;
    path << strformat("M %.1f %.1f ", last_x, base);
    for (auto& [t, d] : deltas) {
      double x = x_of(t);
      path << strformat("L %.1f %.1f ", x, base - static_cast<double>(cur) * scale);
      cur += d;
      path << strformat("L %.1f %.1f ", x, base - static_cast<double>(cur) * scale);
    }
    path << strformat("L %.1f %.1f", x_of(t_max), base - static_cast<double>(cur) * scale);
    svg << "<path d=\"" << path.str()
        << "\" fill=\"none\" stroke=\"#d62728\" stroke-width=\"1.2\"/>\n";
    svg << strformat("<text x=\"%d\" y=\"%d\" fill=\"#d62728\">peak %zu</text>\n",
                     width - 70, y + 12, peak);
    y += occ_h;
  }

  svg << "</svg>\n";
  return svg.str();
}

}  // namespace dfdbg::trace
