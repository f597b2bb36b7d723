// Wall-clock span recorder for the benchmark's traced run.
//
// The benchmark wraps each call it makes into a layer of the library (cloud
// set-up, a run_until phase, an Embedder::embed, a checkpoint save) in a
// span.  Spans are kept in memory, nested by call order (the benchmark is
// single-threaded), and written out only when the run ends: as Chrome
// trace-event JSON for a viewer, and as per-name total and self time for the
// per-layer metrics.  A span's self time is its duration minus the time its
// direct children cover.
//
// A disabled recorder reads no clock: Scope is then two branches, so the
// untraced run that gives the end-to-end numbers pays nothing for it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    const char* name = "";
    double start_s = 0.0;  ///< seconds since the recorder was created
    double end_s = 0.0;
    int parent = -1;  ///< index into spans(), -1 for a root span
    double child_s = 0.0;  ///< time covered by direct children
    double duration_s() const { return end_s - start_s; }
    double self_s() const { return duration_s() - child_s; }
  };

  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }

  /// RAII span: begins on construction, ends on destruction.  `name` must
  /// be a string literal (spans keep the pointer).
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name)
        : rec_(rec), index_(rec.enabled_ ? rec.begin(name) : -1) {}
    ~Scope() {
      if (index_ >= 0) rec_.end(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
    int index_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations of every span called `name`, in recording order.
  std::vector<double> durations(const std::string& name) const;
  /// Count, total and self time per span name.
  std::map<std::string, Totals> totals() const;

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span;
  /// returns false if the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  int begin(const char* name);
  void end(int index);
  double now_s() const;

  bool enabled_;
  std::int64_t origin_ns_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
