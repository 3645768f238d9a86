//===- bench/pipeline/Trace.cpp -------------------------------*- C++ -*-===//

#include "Trace.h"

#include "support/Support.h"
#include "telemetry/Json.h"

#include <algorithm>
#include <fstream>
#include <unordered_map>
#include <utility>

namespace pipeline {

std::vector<int64_t> selfTimesNs(const std::vector<Span> &Spans) {
  std::unordered_map<uint64_t, size_t> IndexOf;
  for (size_t I = 0; I != Spans.size(); ++I)
    IndexOf[Spans[I].Id] = I;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> Children(
      Spans.size());
  for (const Span &S : Spans) {
    auto It = S.Parent ? IndexOf.find(S.Parent) : IndexOf.end();
    if (It == IndexOf.end())
      continue;
    const Span &P = Spans[It->second];
    int64_t B = std::max(S.BeginNs, P.BeginNs);
    int64_t E = std::min(S.EndNs, P.EndNs);
    if (B < E)
      Children[It->second].push_back({B, E});
  }
  std::vector<int64_t> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I) {
    std::vector<std::pair<int64_t, int64_t>> &C = Children[I];
    std::sort(C.begin(), C.end());
    int64_t Covered = 0;
    int64_t RunBegin = 0, RunEnd = 0;
    bool Open = false;
    for (const auto &[B, E] : C) {
      if (Open && B <= RunEnd) {
        RunEnd = std::max(RunEnd, E);
        continue;
      }
      if (Open)
        Covered += RunEnd - RunBegin;
      RunBegin = B;
      RunEnd = E;
      Open = true;
    }
    if (Open)
      Covered += RunEnd - RunBegin;
    Self[I] = (Spans[I].EndNs - Spans[I].BeginNs) - Covered;
  }
  return Self;
}

TraceLog &Tracer::log(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  Logs.push_back(std::make_unique<TraceLog>(
      *this, static_cast<uint32_t>(Logs.size()), Name));
  return *Logs.back();
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<Span> All;
  for (const std::unique_ptr<TraceLog> &L : Logs)
    All.insert(All.end(), L->Spans.begin(), L->Spans.end());
  return All;
}

std::vector<std::string> Tracer::threadNames() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<std::string> Names;
  for (const std::unique_ptr<TraceLog> &L : Logs)
    Names.push_back(L->Name);
  return Names;
}

bool Tracer::writeChromeJson(const std::string &Path,
                             std::string *Error) const {
  // Streamed rather than built as a telemetry::Json tree: a traced run
  // holds ~10^5 spans, and the tree would cost a kilobyte apiece.
  using ars::support::formatString;
  using ars::telemetry::escapeJsonString;
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << "{\"traceEvents\":[";
  const char *Sep = "\n";
  std::vector<std::string> Names = threadNames();
  for (size_t T = 0; T != Names.size(); ++T) {
    Out << Sep
        << formatString("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                        "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                        T, escapeJsonString(Names[T]).c_str());
    Sep = ",\n";
  }
  for (const Span &S : spans()) {
    Out << Sep
        << formatString(
               "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
               "\"pid\":1,\"tid\":%u,\"args\":{\"id\":%llu,\"parent\":%llu,"
               "\"op\":%llu}}",
               escapeJsonString(S.Name).c_str(),
               static_cast<double>(S.BeginNs) / 1e3,
               static_cast<double>(S.EndNs - S.BeginNs) / 1e3, S.Tid,
               static_cast<unsigned long long>(S.Id),
               static_cast<unsigned long long>(S.Parent),
               static_cast<unsigned long long>(S.Op));
    Sep = ",\n";
  }
  Out << "\n]}\n";
  if (!Out.flush()) {
    if (Error)
      *Error = "cannot write " + Path;
    return false;
  }
  return true;
}

ScopedSpan::ScopedSpan(TraceLog *Log, const char *Name, uint64_t Parent,
                       uint64_t Op)
    : Log(Log) {
  if (!Log)
    return;
  S.Name = Name;
  S.Id = Log->T.nextId();
  S.Parent = Parent;
  S.Op = Parent ? Op : S.Id;
  S.Tid = Log->Tid;
  S.BeginNs = Log->T.nowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!Log)
    return;
  S.EndNs = Log->T.nowNs();
  Log->Spans.push_back(S);
}

} // namespace pipeline
