#include "perfbench/trace.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <unordered_map>

namespace perfbench {

Tracer& tracer() {
  static Tracer t;
  return t;
}

std::int64_t Tracer::open(const char* name) {
  if (!enabled_) return -1;
  SpanRecord s;
  s.name = name;
  s.id = static_cast<std::int64_t>(spans_.size());
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.run = run_;
  s.pid = static_cast<std::int64_t>(::getpid());
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  stack_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::close(std::int64_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void Tracer::adopt(std::vector<SpanRecord> spans, std::int64_t parent) {
  if (!enabled_) return;
  const std::int64_t base = static_cast<std::int64_t>(spans_.size());
  std::unordered_map<std::int64_t, std::int64_t> remap;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    remap[spans[i].id] = base + static_cast<std::int64_t>(i);
  }
  const std::int64_t run =
      parent >= 0 ? spans_[static_cast<std::size_t>(parent)].run : run_;
  for (SpanRecord& s : spans) {
    s.id = remap[s.id];
    const auto it = remap.find(s.parent);
    s.parent = it != remap.end() ? it->second : parent;
    s.run = run;
    spans_.push_back(std::move(s));
  }
}

double Tracer::run_total(const std::string& name, std::int64_t run) const {
  double t = 0.0;
  for (const SpanRecord& s : spans_) {
    if (s.name == name && s.run == run) t += s.seconds();
  }
  return t;
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  // Child time per parent, only for children in the parent's own process:
  // a shard worker runs concurrently with its siblings, so its span is not
  // subtracted from the coordinator span that waited for it.
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent < 0) continue;
    const SpanRecord& p = spans_[static_cast<std::size_t>(s.parent)];
    if (p.pid == s.pid) child_s[static_cast<std::size_t>(s.parent)] += s.seconds();
  }
  std::map<std::string, SpanTotals> out;
  for (const SpanRecord& s : spans_) {
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_s += s.seconds();
    t.self_s += s.seconds() - child_s[static_cast<std::size_t>(s.id)];
  }
  return out;
}

std::string Tracer::chrome_json() const {
  std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const SpanRecord& s : spans_) origin = std::min(origin, s.start_ns);
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":%lld,\"tid\":%lld,\"args\":{\"id\":%lld,"
                  "\"parent\":%lld,\"run\":%lld}}",
                  i == 0 ? "" : ",", s.name.c_str(),
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                  static_cast<long long>(s.pid), static_cast<long long>(s.pid),
                  static_cast<long long>(s.id),
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.run));
    os << buf;
  }
  os << "]}\n";
  return os.str();
}

std::string Tracer::to_lines() const {
  std::ostringstream os;
  for (const SpanRecord& s : spans_) {
    os << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.id
       << '\t' << s.parent << '\t' << s.pid << '\n';
  }
  return os.str();
}

std::vector<SpanRecord> Tracer::parse_lines(const std::string& text) {
  std::vector<SpanRecord> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    SpanRecord s;
    if (std::getline(ls, s.name, '\t') &&
        (ls >> s.start_ns >> s.end_ns >> s.id >> s.parent >> s.pid)) {
      out.push_back(std::move(s));
    }
  }
  return out;
}

}  // namespace perfbench
