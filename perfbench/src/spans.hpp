// In-memory span log of a traced run.
//
// The traced mode times calls into each layer's public functions from the
// benchmark's own code; nothing inside the program is instrumented.  Each
// span has a name (the layer and operation, e.g. "net.arrival"), a start,
// an end and the span that caused it.  Spans stay in memory until the run
// ends and are then written out as JSON.  A log is owned by one thread.
#pragma once

#include <chrono>
#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  explicit SpanLog(std::string label, Clock::time_point origin = Clock::now())
      : label_(std::move(label)), origin_(origin) {}

  /// Opens a span and returns its index.  `name` must be a string literal.
  std::size_t begin(const char* name, std::size_t parent = kNoParent) {
    spans_.push_back(Span{name, parent, Clock::now(), {}});
    return spans_.size() - 1;
  }
  /// Closes span `index` and returns its duration in seconds.
  double end(std::size_t index) {
    Span& s = spans_[index];
    s.end = Clock::now();
    return std::chrono::duration<double>(s.end - s.start).count();
  }
  /// Renames an open span (the event kind is known only after the call).
  void rename(std::size_t index, const char* name) { spans_[index].name = name; }

  /// Durations in seconds of every closed span named `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (name == s.name) out.push_back(std::chrono::duration<double>(s.end - s.start).count());
    return out;
  }

  /// Sum of durations of the spans named `name`, in seconds.
  [[nodiscard]] double total(const std::string& name) const {
    double sum = 0.0;
    for (const double d : durations(name)) sum += d;
    return sum;
  }

  /// Appends this log as one JSON object: {"label", "spans": [[name, start_us,
  /// end_us, parent], ...]} with times relative to the log's origin.
  void write_json(std::ostream& out) const {
    const auto us = [this](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin_).count();
    };
    out << "{\"label\": \"" << label_ << "\", \"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "[\"" << s.name << "\", " << us(s.start) << ", "
          << us(s.end) << ", ";
      if (s.parent == kNoParent)
        out << "null]";
      else
        out << s.parent << "]";
    }
    out << "]}";
  }

 private:
  struct Span {
    const char* name;
    std::size_t parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::string label_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
