// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark's own code around each call into a
// library layer (graph, hopset, serialize, dynamic, query, serve, pram); the
// layer is the span name's prefix before the first '.'. Spans stay in memory
// until the run ends, then are written in Chrome trace-event format and
// reduced to per-layer self times. A null Tracer* turns every Span into a
// no-op, which is how the untraced (timed) runs execute the same code.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start_us = 0;  ///< since the tracer's epoch
  double end_us = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< 0 = not part of a request
  std::uint32_t tid = 0;      ///< small per-thread index
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  double now_us() const;
  std::uint64_t next_id();
  void record(SpanRecord r);

  /// Copy of every span recorded so far.
  std::vector<SpanRecord> spans() const;

  /// Chrome trace-event document ("X" complete events, one per span).
  parhop::util::Json chrome_trace(const parhop::util::Json& identity) const;

  /// Self time (µs) per layer over the spans in the subtree of `root`
  /// (root excluded): a span's duration minus the part of its interval its
  /// children cover.
  std::map<std::string, double> layer_self_us(std::uint64_t root) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;  ///< guards spans_ and next_id_
  std::vector<SpanRecord> spans_;
  std::uint64_t next_id_ = 1;
};

/// RAII span. The parent defaults to the innermost open span on the calling
/// thread; pass `parent` explicitly for spans opened on another thread.
class Span {
 public:
  static constexpr std::uint64_t kInherit = ~std::uint64_t{0};

  Span(Tracer* t, const char* name, std::uint64_t request = 0,
       std::uint64_t parent = kInherit);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return rec_.id; }

 private:
  Tracer* t_;
  SpanRecord rec_;
};

/// Layer of a span name: the prefix before the first '.'.
std::string layer_of(const std::string& span_name);

}  // namespace perfbench
