#include "spans.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_ns_(steady_ns()) {}

double SpanRecorder::now_s() const {
  return static_cast<double>(steady_ns() - origin_ns_) * 1e-9;
}

int SpanRecorder::begin(const char* name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_s = now_s();
  spans_.push_back(s);
  int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanRecorder::end(int index) {
  open_.pop_back();  // Scope objects end spans in LIFO order
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_s = now_s();
  if (s.parent >= 0) {
    spans_[static_cast<std::size_t>(s.parent)].child_s += s.duration_s();
  }
}

std::vector<double> SpanRecorder::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.duration_s());
  }
  return out;
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::totals() const {
  std::map<std::string, Totals> out;
  for (const Span& s : spans_) {
    Totals& t = out[s.name];
    ++t.count;
    t.total_s += s.duration_s();
    t.self_s += s.self_s();
  }
  return out;
}

bool SpanRecorder::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"self_us\": %.3f}}",
                 i == 0 ? "" : ",\n", s.name, s.start_s * 1e6,
                 s.duration_s() * 1e6, i, s.parent, s.self_s() * 1e6);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
