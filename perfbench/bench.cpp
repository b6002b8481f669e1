#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <map>

#include "dfdbg/common/json.hpp"
#include "dfdbg/obs/metrics.hpp"
#include "stats.hpp"
#include "wide_graph.hpp"

namespace perfbench {

void SpanRecorder::begin(std::string_view name, std::uint64_t op) {
  Open o;
  o.name = std::string(name);
  if (stored_.size() < kMaxStored) {
    Span sp;
    sp.name = o.name;
    sp.parent = stack_.empty() ? -1 : stack_.back().stored;
    sp.op = op;
    stored_.push_back(std::move(sp));
    o.stored = static_cast<int>(stored_.size()) - 1;
  }
  o.start_ns = now_ns();
  if (o.stored >= 0) stored_[static_cast<std::size_t>(o.stored)].start_ns = o.start_ns;
  stack_.push_back(std::move(o));
}

void SpanRecorder::end() {
  const std::uint64_t t = now_ns();
  Open& o = stack_.back();
  const std::uint64_t dur = t - o.start_ns;
  if (o.stored >= 0) stored_[static_cast<std::size_t>(o.stored)].end_ns = t;
  Totals& tot = totals_[o.name];
  tot.count++;
  tot.total_s += static_cast<double>(dur) / 1e9;
  tot.self_s += static_cast<double>(dur - std::min(dur, o.child_ns)) / 1e9;
  stack_.pop_back();
  if (!stack_.empty()) stack_.back().child_ns += dur;
  recorded_++;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::uint64_t t0 = stored_.empty() ? 0 : stored_.front().start_ns;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  std::fputs("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
             "\"args\":{\"name\":\"perfbench\"}}",
             f);
  for (const Span& s : stored_) {
    const std::string parent =
        s.parent < 0 ? std::string() : stored_[static_cast<std::size_t>(s.parent)].name;
    std::fprintf(f,
                 ",\n{\"name\":%s,\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,\"parent\":%s}}",
                 json_quote(s.name).c_str(), static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.op), json_quote(parent).c_str());
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

std::uint64_t counter_value(std::string_view name) {
  return obs::Registry::global().counter(name).value();
}

std::uint64_t histogram_sum(std::string_view name) {
  return obs::Registry::global().histogram(name).sum();
}

std::int64_t gauge_max(std::string_view name) {
  return obs::Registry::global().gauge(name).max();
}

double calibration_ms() {
  std::vector<double> ms;
  volatile std::uint32_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t t0 = now_ns();
    std::uint32_t x = 0x12345u;
    for (int i = 0; i < 2000; ++i) x = stage(x, 4000);
    sink = sink + x;
    ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  return median(ms);
}

}  // namespace perfbench
