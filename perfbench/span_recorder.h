// In-memory span recorder for the benchmark's traced replay.
//
// A span is a name, a start and end on the steady clock, the index of
// its parent span, and the id of the request it belongs to. Spans are
// appended to one vector while the replay runs (single-threaded: the
// replay makes one call at a time) and written out as JSON lines when
// the benchmark ends. A span's self time is its length minus the
// lengths of its direct children.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    const char* name;  ///< string literal; outlives the recorder
    std::int64_t start_ns{0};
    std::int64_t end_ns{0};
    int parent{-1};  ///< index into spans(), -1 for a request's root
    std::uint64_t request{0};
  };

  /// RAII span: opens on construction, closes on destruction. A null
  /// recorder makes it a no-op, so traced and untraced paths share code.
  class Scope {
   public:
    Scope(SpanRecorder* rec, const char* name) : rec_(rec) {
      if (rec_) index_ = rec_->open(name);
    }
    ~Scope() {
      if (rec_) rec_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    int index_{-1};
  };

  SpanRecorder() { spans_.reserve(1 << 16); }

  /// Starts request `id + 1` of class `cls`; spans opened from now on
  /// carry its id.
  void begin_request(const std::string& cls) {
    classes_.push_back(cls);
    request_ = classes_.size();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::string& request_class(std::uint64_t request) const {
    return classes_[request - 1];
  }

  /// Self time per span name, summed within each request: one sample
  /// per request of class `cls` (any class when empty) that entered the
  /// name at least once.
  [[nodiscard]] std::map<std::string, std::vector<double>> self_ms(const std::string& cls) const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    std::map<std::string, std::vector<double>> out;
    std::map<std::string, double> current;
    std::uint64_t current_request = 0;
    auto flush = [&] {
      for (const auto& [name, ms] : current) out[name].push_back(ms);
      current.clear();
    };
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.request != current_request) {
        flush();
        current_request = s.request;
      }
      if (s.request == 0 || (!cls.empty() && classes_[s.request - 1] != cls)) continue;
      current[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
    }
    flush();
    return out;
  }

  /// One JSON object per span, times in ns since the recorder started.
  bool write_jsonl(const std::string& path) const {
    std::ofstream os(path);
    for (const Span& s : spans_) {
      os << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns - epoch_ns_
         << ",\"end_ns\":" << s.end_ns - epoch_ns_ << ",\"parent\":" << s.parent
         << ",\"request\":" << s.request << ",\"class\":\""
         << (s.request ? classes_[s.request - 1] : std::string()) << "\"}\n";
    }
    return static_cast<bool>(os);
  }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  int open(const char* name) {
    const int index = static_cast<int>(spans_.size());
    spans_.push_back({name, now_ns(), 0, stack_.empty() ? -1 : stack_.back(), request_});
    stack_.push_back(index);
    return index;
  }

  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<int> stack_;             ///< open spans, innermost last
  std::vector<std::string> classes_;   ///< class of request id i + 1
  std::uint64_t request_{0};
  std::int64_t epoch_ns_{now_ns()};
};

}  // namespace perfbench
