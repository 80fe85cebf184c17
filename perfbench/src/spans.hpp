// In-memory span recorder for the traced run. Spans are recorded around
// the benchmark's calls into each module (nothing inside src/ is
// instrumented), kept in memory and written out once the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

class SpanRecorder {
 public:
  explicit SpanRecorder(std::uint64_t run_id)
      : run_id_(run_id), origin_(std::chrono::steady_clock::now()) {}

  /// Open a span nested in the innermost open span; returns its index.
  std::size_t begin(std::string name) {
    const long parent = open_.empty() ? -1 : static_cast<long>(open_.back());
    spans_.push_back(Span{std::move(name), now_us(), 0.0, parent, run_id_});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  /// Close the innermost open span (which must be `index`); returns its
  /// duration in milliseconds.
  double end(std::size_t index) {
    spans_[index].end_us = now_us();
    open_.pop_back();
    return (spans_[index].end_us - spans_[index].start_us) / 1000.0;
  }

  void rename(std::size_t index, std::string name) {
    spans_[index].name = std::move(name);
  }

  struct NameTotals {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  /// Per span name: count, total and self time.
  std::map<std::string, NameTotals> totals() const {
    std::map<std::string, NameTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& t = out[spans_[i].name];
      t.count += 1;
      t.total_ms += (spans_[i].end_us - spans_[i].start_us) / 1000.0;
      t.self_ms += self_time_us(spans_, i) / 1000.0;
    }
    return out;
  }

  /// Write every span as one JSON document; false on I/O failure.
  bool write_json(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"run_id\":" << run_id_ << ",\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_us\":" << s.start_us << ",\"end_us\":" << s.end_us
          << ",\"parent\":" << s.parent
          << ",\"self_us\":" << self_time_us(spans_, i) << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::uint64_t run_id_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

}  // namespace perfbench
