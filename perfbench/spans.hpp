#pragma once
// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around each call into the library (setup steps,
// run_round, the per-round metric calls, probes). Every span carries its own
// id, its parent's id and the round it belongs to, and is written out once, at
// the end, as Chrome trace-event JSON. Timestamps use the library recorder's
// clock (obs::TraceRecorder::now_us) so the library's own phase spans, which
// are imported as children of each run_round span, share one time axis.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::string cat;
  std::int64_t id = 0;
  std::int64_t parent = 0;  ///< 0 = root
  std::int64_t round = -1;  ///< -1 = not part of a round
  double ts_us = 0.0;
  double dur_us = 0.0;
};

class SpanRecorder {
 public:
  /// Open a span as a child of the innermost open span; returns its id.
  std::int64_t begin(const std::string& name, const std::string& cat, std::int64_t round = -1);
  /// Close the innermost open span (must be `id`).
  void end(std::int64_t id);
  /// Add an already-finished span under `parent` (imported library spans).
  void add(Span s);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Duration minus the part of it covered by direct children (children are
  /// sequential on the main thread, so their durations are summed).
  [[nodiscard]] double self_us(std::int64_t id) const;
  [[nodiscard]] std::vector<const Span*> children(std::int64_t id) const;

  /// Chrome trace-event JSON ("X" events; ids, parents and rounds in args).
  void write_chrome(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< indices into spans_
  std::int64_t next_id_ = 1;
};

/// RAII span; a null recorder makes it free, so the untraced loop shares code.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name, const std::string& cat,
             std::int64_t round = -1)
      : rec_(rec), id_(rec != nullptr ? rec->begin(name, cat, round) : 0) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  std::int64_t id_;
};

}  // namespace perfbench
