//===- perfbench/src/Trace.h - In-memory span recorder ----------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracing spine. Every call the benchmark makes into a
/// layer's public functions is wrapped in a Span (layer, name, start, end,
/// parent, request id). Spans are kept in memory and written once, at the
/// end, as Chrome trace-event JSON (viewable in Perfetto). Self time per
/// layer is a span's duration minus its direct children's.
///
/// A Span always measures its own duration, so the untraced run and the
/// traced run share one code path; it is recorded only while a Tracer is
/// installed (the --trace 1 run).
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_PERFBENCH_TRACE_H
#define PORCUPINE_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One recorded span. Times are microseconds since the tracer's epoch.
struct SpanRecord {
  std::string Layer;
  std::string Name;
  double StartUs = 0;
  double EndUs = 0;
  int64_t Id = 0;
  int64_t Parent = -1; ///< -1 = root.
  int64_t Request = -1; ///< -1 = not tied to one request.
  unsigned Thread = 0;
};

class Tracer {
public:
  Tracer() : Epoch(Clock::now()) {}

  /// The tracer spans record into; null while tracing is off.
  static Tracer *active();
  /// Installs \p T as the active tracer (null uninstalls).
  static void install(Tracer *T);

  double microsSinceEpoch(Clock::time_point T) const {
    return std::chrono::duration<double, std::micro>(T - Epoch).count();
  }

  /// Reserves a span id.
  int64_t nextId();
  /// Stores a finished span.
  void record(SpanRecord S);

  /// Sum of self time (duration minus direct children) per layer, seconds.
  std::map<std::string, double> selfSecondsByLayer() const;

  /// Writes every span as a Chrome trace-event "X" (complete) event.
  bool writeChromeJson(const std::string &Path) const;

private:
  Clock::time_point Epoch;
  mutable std::mutex M;
  int64_t NextId = 0;
  std::vector<SpanRecord> Spans;
};

/// RAII span over one call into a layer. Measures its own duration even
/// when no tracer is installed; nests under the innermost open span of the
/// same thread.
class Span {
public:
  Span(const char *Layer, const char *Name, int64_t Request = -1);
  Span(const char *Layer, const std::string &Name, int64_t Request = -1)
      : Span(Layer, Name.c_str(), Request) {}
  ~Span() { stop(); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Ends the span (idempotent) and returns its duration in seconds.
  double stop();
  double seconds() const;

private:
  Tracer *T;
  SpanRecord Rec;
  Clock::time_point Start;
  Clock::time_point End;
  bool Open = true;
};

/// Records a span whose bounds were measured elsewhere (for example the
/// server's queue and execution intervals of one request). \p Parent is a
/// span id or -1. Returns the new span's id (-1 when tracing is off).
int64_t recordInterval(const char *Layer, const char *Name,
                       Clock::time_point Start, Clock::time_point End,
                       int64_t Parent, int64_t Request);

} // namespace perfbench

#endif // PORCUPINE_PERFBENCH_TRACE_H
