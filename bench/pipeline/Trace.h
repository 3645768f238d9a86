//===- bench/pipeline/Trace.h - In-memory span recorder -------*- C++ -*-===//
///
/// \file
/// The --trace side of bench_pipeline.  The bench wraps each call it makes
/// into the system (transform, engine run, encode, push, flush, pull,
/// stats) in a span; spans live in per-thread memory and are written as
/// Chrome trace-event JSON when the run ends, so recording costs a clock
/// read and a vector append.
///
/// Each span records its name, start, end, parent and op id.  An op span
/// (a fleet run or an ingest batch) has no parent and is the parent of the
/// layer spans inside it; flush and pull spans are ops of their own.  A
/// span's self time is its duration minus the part its children cover.
/// A producer thread's coverage is the share of its busy time (first span
/// to last, less the open loop's waits) that layer spans explain; the
/// traced run fails when that share drops below 95% on any producer.
///
/// A null TraceLog records nothing, so the untraced run that produces the
/// end-to-end metrics pays one branch per call.
///
//===----------------------------------------------------------------------===//

#ifndef ARS_BENCH_PIPELINE_TRACE_H
#define ARS_BENCH_PIPELINE_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pipeline {

struct Span {
  const char *Name = ""; ///< static string: a layer-qualified call name
  int64_t BeginNs = 0;   ///< steady-clock ns since the tracer's epoch
  int64_t EndNs = 0;
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 = an op span
  uint64_t Op = 0;     ///< id of the op span this span belongs to
  uint32_t Tid = 0;    ///< index of the recording TraceLog
};

/// Self time of each span in \p Spans (same order): its duration minus
/// the union of its children's intervals clipped to it.
std::vector<int64_t> selfTimesNs(const std::vector<Span> &Spans);

class Tracer;

/// One thread's span buffer.  Only its owning thread appends.
class TraceLog {
public:
  TraceLog(Tracer &T, uint32_t Tid, std::string Name)
      : T(T), Tid(Tid), Name(std::move(Name)) {}

  Tracer &T;
  const uint32_t Tid;
  const std::string Name;
  std::vector<Span> Spans;
};

/// Owns every thread's TraceLog and the shared clock epoch and id counter.
class Tracer {
public:
  Tracer() : Epoch(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// A fresh log for the calling thread, named for the trace viewer.
  TraceLog &log(const std::string &Name);

  int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - Epoch)
        .count();
  }
  uint64_t nextId() { return NextId.fetch_add(1) + 1; }

  /// Every span recorded; call after the recording threads are joined.
  std::vector<Span> spans() const;
  /// Log names indexed by Span::Tid.
  std::vector<std::string> threadNames() const;

  /// Writes Chrome trace-event JSON ("X" events; args carry id, parent
  /// and op) to \p Path.
  bool writeChromeJson(const std::string &Path, std::string *Error) const;

private:
  const std::chrono::steady_clock::time_point Epoch;
  std::atomic<uint64_t> NextId{0};
  mutable std::mutex Mu; ///< guards Logs (registration only)
  std::vector<std::unique_ptr<TraceLog>> Logs;
};

/// Records one span over its scope.  With a null log it does nothing.
class ScopedSpan {
public:
  /// An op span: its own id is its op id.
  ScopedSpan(TraceLog *Log, const char *Name) : ScopedSpan(Log, Name, 0, 0) {}
  /// A layer span inside \p Parent (an op span).
  ScopedSpan(TraceLog *Log, const char *Name, const ScopedSpan &Parent)
      : ScopedSpan(Log, Name, Parent.S.Id, Parent.S.Op) {}
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  ScopedSpan(TraceLog *Log, const char *Name, uint64_t Parent, uint64_t Op);
  TraceLog *Log;
  Span S;
};

} // namespace pipeline

#endif // ARS_BENCH_PIPELINE_TRACE_H
