//===- perfbench/src/Trace.cpp - In-memory span recorder ------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "support/Json.h"

#include <atomic>
#include <cstdio>
#include <functional>
#include <thread>
#include <unordered_map>

using namespace perfbench;

namespace {

std::atomic<Tracer *> ActiveTracer{nullptr};

/// Open span ids of the current thread, innermost last.
thread_local std::vector<int64_t> OpenSpans;

unsigned threadIndex() {
  return static_cast<unsigned>(
      std::hash<std::thread::id>()(std::this_thread::get_id()) % 100000);
}

} // namespace

Tracer *Tracer::active() { return ActiveTracer.load(); }

void Tracer::install(Tracer *T) { ActiveTracer.store(T); }

int64_t Tracer::nextId() {
  std::lock_guard<std::mutex> L(M);
  return NextId++;
}

void Tracer::record(SpanRecord S) {
  std::lock_guard<std::mutex> L(M);
  Spans.push_back(std::move(S));
}

std::map<std::string, double> Tracer::selfSecondsByLayer() const {
  std::lock_guard<std::mutex> L(M);
  std::unordered_map<int64_t, double> ChildUs;
  for (const SpanRecord &S : Spans)
    if (S.Parent >= 0)
      ChildUs[S.Parent] += S.EndUs - S.StartUs;
  std::map<std::string, double> Out;
  for (const SpanRecord &S : Spans) {
    double Self = S.EndUs - S.StartUs;
    auto It = ChildUs.find(S.Id);
    if (It != ChildUs.end())
      Self -= It->second;
    Out[S.Layer] += Self * 1e-6;
  }
  return Out;
}

bool Tracer::writeChromeJson(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> L(M);
  std::fputs("{\"traceEvents\": [\n", F);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    std::fprintf(F,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                 "\"args\": {\"id\": %lld, \"parent\": %lld, "
                 "\"request\": %lld}}\n",
                 I ? "," : "", porcupine::json::escape(S.Name).c_str(),
                 porcupine::json::escape(S.Layer).c_str(), S.StartUs,
                 S.EndUs - S.StartUs, S.Thread, static_cast<long long>(S.Id),
                 static_cast<long long>(S.Parent),
                 static_cast<long long>(S.Request));
  }
  std::fputs("], \"displayTimeUnit\": \"ms\"}\n", F);
  return std::fclose(F) == 0;
}

Span::Span(const char *Layer, const char *Name, int64_t Request)
    : T(Tracer::active()) {
  if (T) {
    Rec.Layer = Layer;
    Rec.Name = Name;
    Rec.Request = Request;
    Rec.Id = T->nextId();
    Rec.Parent = OpenSpans.empty() ? -1 : OpenSpans.back();
    Rec.Thread = threadIndex();
    OpenSpans.push_back(Rec.Id);
  }
  Start = Clock::now();
}

double Span::stop() {
  if (Open) {
    End = Clock::now();
    Open = false;
    if (T) {
      Rec.StartUs = T->microsSinceEpoch(Start);
      Rec.EndUs = T->microsSinceEpoch(End);
      if (!OpenSpans.empty() && OpenSpans.back() == Rec.Id)
        OpenSpans.pop_back();
      T->record(std::move(Rec));
    }
  }
  return seconds();
}

double Span::seconds() const {
  Clock::time_point E = Open ? Clock::now() : End;
  return std::chrono::duration<double>(E - Start).count();
}

int64_t perfbench::recordInterval(const char *Layer, const char *Name,
                                  Clock::time_point Start,
                                  Clock::time_point End, int64_t Parent,
                                  int64_t Request) {
  Tracer *T = Tracer::active();
  if (!T)
    return -1;
  SpanRecord S;
  S.Layer = Layer;
  S.Name = Name;
  S.StartUs = T->microsSinceEpoch(Start);
  S.EndUs = T->microsSinceEpoch(End);
  S.Id = T->nextId();
  S.Parent = Parent;
  S.Request = Request;
  S.Thread = threadIndex();
  int64_t Id = S.Id;
  T->record(std::move(S));
  return Id;
}
