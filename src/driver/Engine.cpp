//===- driver/Engine.cpp - Compile-once / run-many serving API ------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Locking design, for maintainers:
//
//   CacheMutex    guards the LRU list, the key map, and the counters.
//   Slot::M       guards one entry's state transition Compiling ->
//                 Ready/Failed; waiters block on Slot::CV.
//   PoolMutex     (per CompiledKernel) guards the idle-runtime vector and
//                 the shared context. (KernelRegistry lookups are
//                 internally thread-safe; no Engine lock is involved.)
//
// No thread ever holds two of these at once except eviction, which takes
// Slot::M briefly while holding CacheMutex; since no path acquires
// CacheMutex while holding Slot::M, that nesting cannot deadlock. Compiles
// and Runtime construction always happen outside every lock.
//
//===----------------------------------------------------------------------===//

#include "driver/Engine.h"

#include "bfv/BfvContext.h"
#include "driver/Artifact.h"
#include "quill/Analysis.h"

#include <algorithm>
#include <cassert>

using namespace porcupine;
using namespace porcupine::driver;

//===----------------------------------------------------------------------===//
// CompiledKernel: runtime pool
//===----------------------------------------------------------------------===//

CompiledKernel::RuntimeLease::~RuntimeLease() {
  if (!Owner || !RT)
    return;
  {
    std::lock_guard<std::mutex> L(Owner->PoolMutex);
    Owner->Idle.push_back(std::move(RT));
  }
  Owner->PoolAvailable.notify_one();
}

size_t CompiledKernel::runtimesBuilt() const {
  std::lock_guard<std::mutex> L(PoolMutex);
  return Built;
}

Expected<CompiledKernel::RuntimeLease> CompiledKernel::acquireRuntime() const {
  std::unique_lock<std::mutex> L(PoolMutex);
  while (true) {
    if (!Idle.empty()) {
      std::unique_ptr<Runtime> RT = std::move(Idle.back());
      Idle.pop_back();
      return RuntimeLease(this, std::move(RT));
    }
    if (Built < PoolSize) {
      // Reserve a pool slot, then build outside the lock: key generation
      // is the expensive part and must not serialize callers that only
      // need an already-idle runtime. The first runtime's immutable
      // context is reused by every later one (same program, same depth).
      ++Built;
      std::shared_ptr<const void> Reuse = SharedState;
      L.unlock();
      Compiler C(Opts);
      auto RT = C.instantiate({&Result.Program}, std::move(Reuse));
      if (!RT) {
        L.lock();
        --Built;
        L.unlock();
        // A waiter blocked on the pool would deadlock if every builder
        // failed silently; wake one so it can retry (and likely fail with
        // the same diagnostic, which is the correct outcome).
        PoolAvailable.notify_one();
        return RT.status();
      }
      L.lock();
      if (!SharedState)
        SharedState = RT->sharedState();
      L.unlock();
      return RuntimeLease(this,
                          std::make_unique<Runtime>(std::move(RT.take())));
    }
    PoolAvailable.wait(L);
  }
}

//===----------------------------------------------------------------------===//
// CompiledKernel: execution
//===----------------------------------------------------------------------===//

Status CompiledKernel::checkInputs(
    const std::vector<std::vector<uint64_t>> &Inputs) const {
  const quill::Program &P = Result.Program;
  if (static_cast<int>(Inputs.size()) != P.NumInputs)
    return Status::error("execute",
                         "kernel '" + Result.KernelName + "' takes " +
                             std::to_string(P.NumInputs) +
                             " input vector(s) but got " +
                             std::to_string(Inputs.size()));
  for (const std::vector<uint64_t> &V : Inputs)
    if (V.size() > P.VectorSize)
      return Status::error("execute",
                           "input vector of width " +
                               std::to_string(V.size()) +
                               " exceeds the kernel's vector size " +
                               std::to_string(P.VectorSize));
  return Status::success();
}

Status CompiledKernel::padInputs(
    std::vector<std::vector<uint64_t>> &Inputs) const {
  Status S = checkInputs(Inputs);
  if (!S)
    return S;
  for (std::vector<uint64_t> &V : Inputs)
    V.resize(Result.Program.VectorSize, 0);
  return Status::success();
}

Expected<ExecuteOutcome>
CompiledKernel::runOn(Runtime &RT,
                      const std::vector<std::vector<uint64_t>> &Padded) const {
  std::vector<backend::Value> Enc;
  Enc.reserve(Padded.size());
  for (const std::vector<uint64_t> &V : Padded) {
    auto Ct = RT.encrypt(V);
    if (!Ct)
      return Ct.status();
    Enc.push_back(Ct.take());
  }
  double ChargedBefore = RT.executor().chargedLatencyUs();
  auto Ct = RT.run(Result.Program, Enc);
  if (!Ct)
    return Ct.status();
  ExecuteOutcome Out;
  Out.Outputs = RT.decrypt(*Ct, Result.Program.VectorSize);
  Out.Encrypted = RT.capabilities().Encrypted;
  if (RT.capabilities().ReportsNoiseBudget)
    Out.NoiseBudgetBits = RT.noiseBudget(*Ct);
  if (Out.Encrypted)
    Out.PolyDegree = RT.polyDegree();
  Out.ChargedLatencyUs = RT.executor().chargedLatencyUs() - ChargedBefore;
  return Out;
}

Expected<ExecuteOutcome>
CompiledKernel::execute(const std::vector<std::vector<uint64_t>> &Inputs)
    const {
  std::vector<std::vector<uint64_t>> Padded = Inputs;
  Status S = padInputs(Padded);
  if (!S)
    return S;
  auto Lease = acquireRuntime();
  if (!Lease)
    return Lease.status();
  return runOn(Lease->runtime(), Padded);
}

Expected<std::vector<ExecuteOutcome>> CompiledKernel::executeMany(
    const std::vector<std::vector<std::vector<uint64_t>>> &Batch) const {
  std::vector<ExecuteOutcome> Outcomes;
  Outcomes.reserve(Batch.size());
  // Validate the whole batch (no copies) before touching the pool so a bad
  // item fails fast and atomically — no partial encrypted work.
  for (size_t I = 0; I < Batch.size(); ++I) {
    Status S = checkInputs(Batch[I]);
    if (!S) {
      Status Tagged = Status::error(
          "execute", "batch item " + std::to_string(I) + " is malformed");
      Tagged.merge(S);
      return Tagged;
    }
  }
  if (Batch.empty())
    return Outcomes;

  auto Lease = acquireRuntime();
  if (!Lease)
    return Lease.status();
  for (size_t I = 0; I < Batch.size(); ++I) {
    // Pad one call at a time: peak extra memory is a single input set, not
    // a second copy of the whole batch.
    std::vector<std::vector<uint64_t>> Padded = Batch[I];
    Status PS = padInputs(Padded);
    assert(PS.ok() && "checkInputs passed; padding cannot fail");
    (void)PS;
    auto Out = runOn(Lease->runtime(), Padded);
    if (!Out) {
      Status S = Status::error("execute",
                               "batch item " + std::to_string(I) + " failed");
      S.merge(Out.status());
      return S;
    }
    Outcomes.push_back(Out.take());
  }
  return Outcomes;
}

size_t CompiledKernel::packedRowWidth() const {
  int Depth = quill::programMultiplicativeDepth(Result.Program);
  return BfvContext::paramsForMultDepth(Depth < 0 ? 0
                                                  : static_cast<unsigned>(Depth))
             .PolyDegree /
         2;
}

Expected<ExecuteOutcome> CompiledKernel::executePacked(
    const std::vector<std::vector<uint64_t>> &PackedInputs) const {
  const quill::Program &P = Result.Program;
  if (static_cast<int>(PackedInputs.size()) != P.NumInputs)
    return Status::error("execute",
                         "kernel '" + Result.KernelName + "' takes " +
                             std::to_string(P.NumInputs) +
                             " input vector(s) but got " +
                             std::to_string(PackedInputs.size()));
  const size_t Row = packedRowWidth();
  for (const std::vector<uint64_t> &V : PackedInputs)
    if (V.size() > Row)
      return Status::error("execute",
                           "packed input of width " +
                               std::to_string(V.size()) +
                               " exceeds the batching row of " +
                               std::to_string(Row) + " slots");
  auto Lease = acquireRuntime();
  if (!Lease)
    return Lease.status();
  Runtime &RT = Lease->runtime();
  assert(RT.slotCount() == Row &&
         "packedRowWidth disagrees with the instantiated parameters");
  std::vector<backend::Value> Enc;
  Enc.reserve(PackedInputs.size());
  for (const std::vector<uint64_t> &V : PackedInputs) {
    // Runtime::encrypt packs any vector up to the slot count; shorter rows
    // zero-fill, exactly like the per-request path zero-pads.
    auto Ct = RT.encrypt(V);
    if (!Ct)
      return Ct.status();
    Enc.push_back(Ct.take());
  }
  double ChargedBefore = RT.executor().chargedLatencyUs();
  auto Ct = RT.run(P, Enc);
  if (!Ct)
    return Ct.status();
  ExecuteOutcome Out;
  Out.Outputs = RT.decrypt(*Ct, Row);
  Out.Encrypted = RT.capabilities().Encrypted;
  if (RT.capabilities().ReportsNoiseBudget)
    Out.NoiseBudgetBits = RT.noiseBudget(*Ct);
  if (Out.Encrypted)
    Out.PolyDegree = RT.polyDegree();
  Out.ChargedLatencyUs = RT.executor().chargedLatencyUs() - ChargedBefore;
  return Out;
}

//===----------------------------------------------------------------------===//
// Engine: cache
//===----------------------------------------------------------------------===//

Expected<Engine::KernelHandle> Engine::get(const std::string &KernelName) {
  return getImpl(KernelName, EOpts.Defaults);
}

Expected<Engine::KernelHandle> Engine::get(const std::string &KernelName,
                                           const CompileOptions &Opts) {
  return getImpl(KernelName, Opts);
}

std::future<Expected<Engine::KernelHandle>>
Engine::compileAsync(const std::string &KernelName) {
  return compileAsync(KernelName, EOpts.Defaults);
}

Engine::~Engine() {
  // Drain before members die: queued tasks touch the cache and fulfil
  // their promises, so every outstanding future resolves here.
  if (AsyncPool)
    AsyncPool->shutdown();
}

ThreadPool &Engine::asyncPool() {
  std::call_once(AsyncPoolOnce, [this] {
    AsyncPool = std::make_unique<ThreadPool>(
        EOpts.AsyncCompileThreads ? EOpts.AsyncCompileThreads : 1);
  });
  return *AsyncPool;
}

std::future<Expected<Engine::KernelHandle>>
Engine::compileAsync(const std::string &KernelName,
                     const CompileOptions &Opts) {
  // The compile runs on the Engine's bounded pool through getImpl, i.e.
  // the exact cache path — misses coalesce with every concurrent
  // get()/compileAsync() of the same key, hits resolve at once, failures
  // surface through the future. A pool task blocking on a coalesced miss
  // is safe: the slot's owner is, by construction, a thread already
  // executing (it created the slot mid-getImpl), never a later queue
  // entry, so the wait always terminates.
  auto Prom = std::make_shared<std::promise<Expected<KernelHandle>>>();
  std::future<Expected<KernelHandle>> Fut = Prom->get_future();
  bool Queued = asyncPool().submit([this, Prom, KernelName, Opts](unsigned) {
    Prom->set_value(getImpl(KernelName, Opts));
  });
  if (!Queued)
    // Only possible once destruction has begun; resolve rather than leave
    // a broken promise.
    Prom->set_value(
        Status::error("engine", "engine is shutting down; compile of '" +
                                    KernelName + "' was dropped"));
  return Fut;
}

Expected<Engine::KernelHandle> Engine::getImpl(const std::string &KernelName,
                                               const CompileOptions &Opts) {
  // Resolve the name first so every spelling ("gx", "Gx") of one kernel
  // shares a cache entry keyed by the canonical spec name.
  auto Found = registry().find(KernelName);
  if (!Found)
    return Found.status();
  const kernels::KernelBundle *B = *Found;
  // '\x1f' (unit separator) cannot appear in a canonical key's field names
  // and is JSON-escaped inside the quoted function name, so the composite
  // key is unambiguous.
  const std::string Key = B->Spec.name() + '\x1f' + Opts.canonicalKey();

  std::shared_ptr<Slot> S;
  bool Owner = false;
  {
    std::lock_guard<std::mutex> L(CacheMutex);
    auto It = ByKey.find(Key);
    if (It != ByKey.end()) {
      Lru.splice(Lru.begin(), Lru, It->second);
      ++Counters.Hits;
      S = It->second->second;
    } else {
      ++Counters.Misses;
      S = std::make_shared<Slot>();
      Lru.emplace_front(Key, S);
      ByKey[Key] = Lru.begin();
      Owner = true;
    }
  }

  if (!Owner) {
    // Ready now, or compiling on another thread: wait for the transition.
    std::unique_lock<std::mutex> SL(S->M);
    S->CV.wait(SL, [&] { return S->St != Slot::State::Compiling; });
    if (S->St == Slot::State::Ready)
      return S->Kernel;
    return S->Error;
  }

  // This thread owns the compile. Run it outside every lock.
  Compiler C(Opts, Registry);
  auto Res = C.compile(*B);

  KernelHandle Kernel;
  if (Res) {
    Kernel.reset(new CompiledKernel(Res.take(), Opts,
                                    compileFingerprint(B->Spec.name(), Opts),
                                    EOpts.RuntimePoolSize));
  }
  {
    std::lock_guard<std::mutex> SL(S->M);
    if (Kernel) {
      S->Kernel = Kernel;
      S->St = Slot::State::Ready;
    } else {
      S->Error = Res.status();
      S->St = Slot::State::Failed;
    }
  }
  S->CV.notify_all();
  {
    std::lock_guard<std::mutex> L(CacheMutex);
    if (Kernel) {
      ++Counters.Compiles;
      evictOverCapacity();
    } else {
      // Failures are not cached: drop the entry so a later get() retries.
      ++Counters.CompileFailures;
      auto It = ByKey.find(Key);
      if (It != ByKey.end() && It->second->second == S) {
        Lru.erase(It->second);
        ByKey.erase(It);
      }
    }
  }
  if (Kernel)
    return Kernel;
  return Res.status();
}

void Engine::evictOverCapacity() {
  // Walk from the cold end, skipping in-flight compiles (their owner
  // threads still need the slot in place; they finish soon and the next
  // insertion re-runs eviction).
  auto It = Lru.end();
  while (ByKey.size() > EOpts.CacheCapacity && It != Lru.begin()) {
    --It;
    bool Evictable;
    {
      std::lock_guard<std::mutex> SL(It->second->M);
      Evictable = It->second->St != Slot::State::Compiling;
    }
    if (!Evictable)
      continue;
    ByKey.erase(It->first);
    It = Lru.erase(It);
    ++Counters.Evictions;
  }
}

Engine::KernelHandle Engine::insertReady(const std::string &Key,
                                         KernelHandle K) {
  std::lock_guard<std::mutex> L(CacheMutex);
  auto It = ByKey.find(Key);
  if (It != ByKey.end()) {
    // Existing entry wins. If it is still compiling, hand back the freshly
    // loaded kernel without disturbing the in-flight compile.
    Lru.splice(Lru.begin(), Lru, It->second);
    std::lock_guard<std::mutex> SL(It->second->second->M);
    if (It->second->second->St == Slot::State::Ready)
      return It->second->second->Kernel;
    return K;
  }
  auto S = std::make_shared<Slot>();
  S->St = Slot::State::Ready;
  S->Kernel = K;
  Lru.emplace_front(Key, std::move(S));
  ByKey[Key] = Lru.begin();
  ++Counters.ArtifactLoads;
  evictOverCapacity();
  return K;
}

Expected<Engine::KernelHandle> Engine::loadArtifact(const std::string &Path) {
  auto Art = loadArtifactFile(Path);
  if (!Art)
    return Art.status();

  CompileResult R;
  R.KernelName = Art->Kernel;
  R.Program = std::move(Art->Program);
  R.FromSynthesis = Art->FromSynthesis;
  // Analyses are recomputed, never trusted from disk.
  R.Mix = quill::countInstructions(R.Program);
  R.Depth = quill::programDepth(R.Program);
  R.MultDepth = quill::programMultiplicativeDepth(R.Program);
  R.LatencyEstimateUs = Art->LatencyEstimateUs;
  R.Cost = Art->Cost;
  if (Art->HasParams)
    R.Params = Art->Params;
  else
    R.Params = chooseParameters(R.Program);
  R.SealCode = Art->SealCode;
  for (const std::string &Note : Art->Notes)
    R.Notes.push_back({Severity::Note, "artifact", Note});
  R.Notes.push_back(
      {Severity::Note, "artifact", "loaded from artifact '" + Path + "'"});

  // The loaded kernel executes under the artifact's recorded execution
  // parameters, on top of this Engine's defaults for everything else.
  CompileOptions Opts = EOpts.Defaults;
  Opts.RunSynthesis = false;
  Opts.Synthesis.PlainModulus = Art->PlainModulus;
  Opts.ExecutionSeed = Art->ExecutionSeed;

  std::string OptionsKey =
      Art->OptionsKey.empty() ? Opts.canonicalKey() : Art->OptionsKey;
  std::string Fp = Art->Fingerprint.empty()
                       ? compileFingerprint(R.KernelName, Opts)
                       : Art->Fingerprint;
  KernelHandle K(new CompiledKernel(std::move(R), std::move(Opts),
                                    std::move(Fp), EOpts.RuntimePoolSize));
  const std::string Key = K->name() + '\x1f' + OptionsKey;
  return insertReady(Key, std::move(K));
}

EngineStats Engine::stats() const {
  std::lock_guard<std::mutex> L(CacheMutex);
  return Counters;
}

size_t Engine::size() const {
  std::lock_guard<std::mutex> L(CacheMutex);
  return ByKey.size();
}

void Engine::clear() {
  std::lock_guard<std::mutex> L(CacheMutex);
  Lru.clear();
  ByKey.clear();
  Counters = EngineStats();
}
