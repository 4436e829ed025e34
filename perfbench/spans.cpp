#include "spans.hpp"

#include <fstream>
#include <stdexcept>

#include "common/json.hpp"
#include "obs/trace.hpp"

namespace perfbench {

std::int64_t SpanRecorder::begin(const std::string& name, const std::string& cat,
                                 std::int64_t round) {
  Span s;
  s.name = name;
  s.cat = cat;
  s.id = next_id_++;
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.round = round;
  s.ts_us = pdsl::obs::TraceRecorder::global().now_us();
  open_.push_back(spans_.size());
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanRecorder::end(std::int64_t id) {
  if (open_.empty() || spans_[open_.back()].id != id) {
    throw std::logic_error("SpanRecorder::end: spans must close innermost first");
  }
  Span& s = spans_[open_.back()];
  s.dur_us = pdsl::obs::TraceRecorder::global().now_us() - s.ts_us;
  open_.pop_back();
}

void SpanRecorder::add(Span s) {
  s.id = next_id_++;
  spans_.push_back(std::move(s));
}

std::vector<const Span*> SpanRecorder::children(std::int64_t id) const {
  std::vector<const Span*> out;
  for (const auto& s : spans_) {
    if (s.parent == id) out.push_back(&s);
  }
  return out;
}

double SpanRecorder::self_us(std::int64_t id) const {
  double dur = 0.0;
  double covered = 0.0;
  for (const auto& s : spans_) {
    if (s.id == id) dur = s.dur_us;
    if (s.parent == id) covered += s.dur_us;
  }
  return dur - covered;
}

void SpanRecorder::write_chrome(const std::string& path) const {
  pdsl::json::Array events;
  events.reserve(spans_.size());
  for (const auto& s : spans_) {
    pdsl::json::Object args;
    args["id"] = s.id;
    args["parent"] = s.parent;
    args["round"] = s.round;
    pdsl::json::Object ev;
    ev["name"] = s.name;
    ev["cat"] = s.cat;
    ev["ph"] = "X";
    ev["ts"] = s.ts_us;
    ev["dur"] = s.dur_us;
    ev["pid"] = 0;
    ev["tid"] = 0;
    ev["args"] = pdsl::json::Value(std::move(args));
    events.push_back(pdsl::json::Value(std::move(ev)));
  }
  pdsl::json::Object top;
  top["traceEvents"] = pdsl::json::Value(std::move(events));
  top["displayTimeUnit"] = "ms";
  std::ofstream out(path);
  out << pdsl::json::Value(std::move(top)).dump() << '\n';
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

}  // namespace perfbench
