//===- driver/Server.cpp - Multi-tenant serving tier ----------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Threading design, for maintainers:
//
//   Shard::M      guards one shard's queue, Stopping flag, and EwmaUs.
//                 Taken by submit(), the shard worker, stop(), and the
//                 metrics/queueDepth snapshots.
//   Shard::Prepared is touched only by that shard's worker thread — no
//                 lock. Compiles and encrypted execution always run with
//                 no shard lock held.
//   HistMutex     guards the per-kernel histogram map's shape; each
//                 histogram additionally locks itself, so snapshots never
//                 block the serving path for long.
//   StopMutex     serializes stop() callers (join-once).
//
// No path holds two shard locks, and no path acquires Shard::M while
// holding HistMutex or vice versa, so there is no lock-order cycle.
// Promise fulfilment happens either outside Shard::M (served requests) or
// under it for queue-resident failures (expiry, stop) — set_value never
// runs user code synchronously, so that cannot deadlock.
//
//===----------------------------------------------------------------------===//

#include "driver/Server.h"

#include <algorithm>
#include <cassert>

using namespace porcupine;
using namespace porcupine::driver;

static uint64_t usBetween(std::chrono::steady_clock::time_point A,
                          std::chrono::steady_clock::time_point B) {
  if (B <= A)
    return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(B - A).count());
}

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

Server::Server(ServerOptions Options, const kernels::KernelRegistry *Registry)
    : SOpts(std::move(Options)), Registry(Registry),
      Tenants(SOpts.TenantCacheCapacity) {
  if (SOpts.QueueCapacity == 0)
    SOpts.QueueCapacity = 1;
  if (SOpts.MaxBatch == 0)
    SOpts.MaxBatch = 1;
  unsigned N = SOpts.NumShards;
  if (N == 0) {
    N = std::thread::hardware_concurrency();
    if (N == 0)
      N = 1;
  }
  Shards.reserve(N);
  for (unsigned I = 0; I < N; ++I) {
    auto Sh = std::make_unique<Shard>();
    Sh->E = std::make_unique<Engine>(SOpts.Engine, Registry);
    Shards.push_back(std::move(Sh));
  }
  // Start the workers only after every shard exists; a worker may touch
  // any const part of *this.
  for (auto &Sh : Shards)
    Sh->Worker = std::thread([this, S = Sh.get()] { shardLoop(*S); });
}

Server::~Server() { stop(); }

void Server::stop() {
  std::lock_guard<std::mutex> SL(StopMutex);
  Stopped.store(true);
  for (auto &Sh : Shards) {
    {
      std::lock_guard<std::mutex> L(Sh->M);
      Sh->Stopping = true;
    }
    Sh->CV.notify_all();
  }
  for (auto &Sh : Shards)
    if (Sh->Worker.joinable())
      Sh->Worker.join();
  // Workers are gone; fail whatever is still queued.
  for (auto &Sh : Shards) {
    std::deque<std::unique_ptr<Pending>> Q;
    {
      std::lock_guard<std::mutex> L(Sh->M);
      Q.swap(Sh->Queue);
    }
    for (auto &P : Q)
      P->Prom.set_value(
          Status::error("serve", "server stopped before the request was "
                                 "served"));
  }
}

unsigned Server::shardOf(const std::string &Tenant) const {
  return tenantShard(Tenant, numShards());
}

size_t Server::queueDepth() const {
  size_t D = 0;
  for (const auto &Sh : Shards) {
    std::lock_guard<std::mutex> L(Sh->M);
    D += Sh->Queue.size();
  }
  return D;
}

//===----------------------------------------------------------------------===//
// Admission
//===----------------------------------------------------------------------===//

Expected<std::future<Expected<Response>>> Server::submit(Request R) {
  ++RequestsTotal;
  if (Stopped.load()) {
    ++RejectsStopped;
    return Status::error("serve", "server is stopped");
  }
  auto Found = registry().find(R.Kernel);
  if (!Found) {
    ++RejectsUnknown;
    return Found.status();
  }
  const kernels::KernelBundle *B = *Found;
  if (R.Inputs.size() != static_cast<size_t>(B->Spec.numInputs())) {
    ++RejectsMalformed;
    return Status::error("serve", "kernel '" + B->Spec.name() + "' takes " +
                                      std::to_string(B->Spec.numInputs()) +
                                      " input vector(s) but the request has " +
                                      std::to_string(R.Inputs.size()));
  }
  for (const std::vector<uint64_t> &V : R.Inputs) {
    if (V.size() > B->Spec.vectorSize()) {
      ++RejectsMalformed;
      return Status::error("serve",
                           "input vector of width " + std::to_string(V.size()) +
                               " exceeds the kernel's vector size " +
                               std::to_string(B->Spec.vectorSize()));
    }
  }

  uint64_t DeadlineUs =
      R.DeadlineMicros ? R.DeadlineMicros : SOpts.DefaultDeadlineMicros;
  Shard &Sh = *Shards[tenantShard(R.Tenant, numShards())];

  auto P = std::make_unique<Pending>();
  P->SpecName = B->Spec.name();
  P->Req = std::move(R);
  P->Enqueued = Clock::now();
  if (DeadlineUs) {
    P->HasDeadline = true;
    P->Deadline = P->Enqueued + std::chrono::microseconds(DeadlineUs);
  }
  std::future<Expected<Response>> Fut = P->Prom.get_future();
  {
    std::lock_guard<std::mutex> L(Sh.M);
    if (Sh.Stopping) {
      ++RejectsStopped;
      return Status::error("serve", "server is stopped");
    }
    if (Sh.Queue.size() >= SOpts.QueueCapacity) {
      ++RejectsQueueFull;
      return Status::error(
          "serve", "request queue is full (" +
                       std::to_string(Sh.Queue.size()) +
                       " pending); backpressure — retry later");
    }
    if (P->HasDeadline) {
      // Deadline-aware admission: once a service-time estimate exists for
      // this kernel, refuse work the shard cannot finish in time instead
      // of letting it expire in queue.
      auto It = Sh.EwmaUs.find(P->SpecName);
      if (It != Sh.EwmaUs.end() && It->second > 0.0) {
        double BatchesAhead =
            static_cast<double>(Sh.Queue.size() / SOpts.MaxBatch + 1);
        double EstUs = BatchesAhead * It->second;
        if (EstUs > static_cast<double>(DeadlineUs)) {
          ++RejectsDeadline;
          return Status::error(
              "serve", "deadline of " + std::to_string(DeadlineUs) +
                           "us cannot be met (estimated " +
                           std::to_string(static_cast<uint64_t>(EstUs)) +
                           "us at current load)");
        }
      }
    }
    Sh.Queue.push_back(std::move(P));
  }
  Sh.CV.notify_all();
  return Fut;
}

Expected<Response> Server::call(Request R) {
  auto Fut = submit(std::move(R));
  if (!Fut)
    return Fut.status();
  return Fut->get();
}

//===----------------------------------------------------------------------===//
// Shard worker
//===----------------------------------------------------------------------===//

Expected<Server::PreparedKernel *> Server::prepare(Shard &Sh,
                                                   const Pending &P) {
  std::shared_ptr<const TenantContext> TC =
      Tenants.get(P.Req.Tenant, SOpts.Engine.Defaults);
  const std::string Key = P.SpecName + '\x1f' + TC->OptionsKey;
  auto It = Sh.Prepared.find(Key);
  if (It != Sh.Prepared.end())
    return &It->second;

  auto Found = registry().find(P.Req.Kernel);
  if (!Found)
    return Found.status();
  auto K = Sh.E->get(P.Req.Kernel, TC->Opts);
  if (!K)
    return K.status();

  PreparedKernel PK;
  PK.Tenant = std::move(TC);
  PK.Kernel = *K;
  PK.Plan = BatchPlan::analyze(**K, (*Found)->Spec, SOpts.MaxBatch);
  auto Ins = Sh.Prepared.emplace(Key, std::move(PK));
  return &Ins.first->second;
}

void Server::expireLocked(Shard &Sh, Clock::time_point Now) {
  for (auto It = Sh.Queue.begin(); It != Sh.Queue.end();) {
    Pending &P = **It;
    if (P.HasDeadline && P.Deadline <= Now) {
      ++DeadlineExpired;
      P.Prom.set_value(Status::error(
          "serve", "deadline expired after " +
                       std::to_string(usBetween(P.Enqueued, Now)) +
                       "us in queue"));
      It = Sh.Queue.erase(It);
    } else {
      ++It;
    }
  }
}

std::vector<std::unique_ptr<Server::Pending>>
Server::takeGroupLocked(Shard &Sh, const Pending &Head, size_t Limit) {
  std::vector<std::unique_ptr<Pending>> Group;
  for (auto It = Sh.Queue.begin();
       It != Sh.Queue.end() && Group.size() < Limit;) {
    if ((*It)->Req.Tenant == Head.Req.Tenant &&
        (*It)->SpecName == Head.SpecName) {
      Group.push_back(std::move(*It));
      It = Sh.Queue.erase(It);
    } else {
      ++It;
    }
  }
  return Group;
}

void Server::observeLatency(const std::string &Kernel, uint64_t Us) {
  std::lock_guard<std::mutex> L(HistMutex);
  KernelHist[Kernel].observe(Us);
}

void Server::serveGroup(Shard &Sh, PreparedKernel &PK,
                        std::vector<std::unique_ptr<Pending>> Group) {
  if (Group.empty())
    return;
  const std::string &KernelName = Group.front()->SpecName;
  const size_t N = Group.size();

  // Every group takes the packed path. A capacity-1 plan (a non-batchable
  // kernel, or MaxBatch 1) always hands over a group of one, which sits at
  // window 0 of the row, where executePacked() is exactly execute().
  Clock::time_point Start = Clock::now();
  std::vector<const RequestInputs *> Ins;
  Ins.reserve(N);
  for (auto &P : Group)
    Ins.push_back(&P->Req.Inputs);
  auto Out = PK.Kernel->executePacked(PK.Plan.pack(Ins));
  Clock::time_point End = Clock::now();
  {
    std::lock_guard<std::mutex> L(Sh.M);
    double &E = Sh.EwmaUs[KernelName];
    double ServiceUs = static_cast<double>(usBetween(Start, End));
    E = E == 0.0 ? ServiceUs : 0.7 * E + 0.3 * ServiceUs;
  }
  ++BatchesTotal;
  FillUsedTotal += N;
  FillCapacityTotal += PK.Plan.capacity();
  if (N > 1)
    BatchedRequestsTotal += N;
  if (!Out) {
    ExecFailures += N;
    for (auto &P : Group)
      P->Prom.set_value(Out.status());
    return;
  }
  for (size_t K = 0; K < N; ++K) {
    Pending &P = *Group[K];
    Response Resp;
    Resp.Outputs = PK.Plan.slice(Out->Outputs, K);
    Resp.NoiseBudgetBits = Out->NoiseBudgetBits;
    Resp.PolyDegree = Out->PolyDegree;
    Resp.Batched = N > 1;
    Resp.BatchSize = N;
    Resp.QueueUs = usBetween(P.Enqueued, Start);
    Resp.TotalUs = usBetween(P.Enqueued, End);
    Resp.KernelFingerprint = PK.Kernel->fingerprint();
    observeLatency(KernelName, Resp.TotalUs);
    ++ServedTotal;
    P.Prom.set_value(std::move(Resp));
  }
}

void Server::shardLoop(Shard &Sh) {
  std::unique_lock<std::mutex> L(Sh.M);
  while (true) {
    if (Sh.Stopping)
      return;
    if (Sh.Queue.empty()) {
      Sh.CV.wait(L, [&] { return Sh.Stopping || !Sh.Queue.empty(); });
      continue;
    }
    expireLocked(Sh, Clock::now());
    if (Sh.Queue.empty())
      continue;

    // Copy the head's group key: the head may be expired/served by the
    // time the lock is reacquired below, so never deref it across gaps.
    Pending *Head = Sh.Queue.front().get();
    const std::string GroupTenant = Head->Req.Tenant;
    const std::string GroupSpec = Head->SpecName;

    // First touch of a (tenant, kernel) may compile for seconds: always
    // drop the lock around prepare(). Later touches are two map hits.
    L.unlock();
    auto Prep = prepare(Sh, *Head);
    L.lock();
    if (Sh.Stopping)
      return;
    Clock::time_point Now = Clock::now();
    expireLocked(Sh, Now);
    if (Sh.Queue.empty())
      continue;
    Head = Sh.Queue.front().get();
    if (Head->Req.Tenant != GroupTenant || Head->SpecName != GroupSpec)
      continue; // The head changed under us; replan for the new group.

    if (!Prep) {
      // Compilation or lookup failed: every queued request of this group
      // would fail identically, so fail them all now.
      auto Group = takeGroupLocked(Sh, *Head, Sh.Queue.size());
      ExecFailures += Group.size();
      L.unlock();
      for (auto &P : Group)
        P->Prom.set_value(Prep.status());
      L.lock();
      continue;
    }
    PreparedKernel &PK = **Prep;
    const size_t Cap = PK.Plan.capacity();

    size_t Matching = 0;
    for (const auto &P : Sh.Queue)
      if (P->Req.Tenant == GroupTenant && P->SpecName == GroupSpec)
        ++Matching;

    if (Matching < Cap) {
      // Not full: hold for the flush timer unless the head's deadline
      // (minus the expected service time) says ship now.
      Clock::time_point FlushAt =
          Head->Enqueued + std::chrono::microseconds(SOpts.FlushMicros);
      Clock::time_point ServeBy = Clock::time_point::max();
      if (Head->HasDeadline) {
        uint64_t EstUs = 0;
        auto It = Sh.EwmaUs.find(GroupSpec);
        if (It != Sh.EwmaUs.end())
          EstUs = static_cast<uint64_t>(It->second);
        ServeBy = Head->Deadline - std::chrono::microseconds(EstUs);
      }
      Clock::time_point Until = std::min(FlushAt, ServeBy);
      if (Now < Until) {
        Sh.CV.wait_until(L, Until);
        continue; // Re-evaluate: arrivals, expiry, or the timer.
      }
    }

    auto Group = takeGroupLocked(Sh, *Head, Cap);
    L.unlock();
    serveGroup(Sh, PK, std::move(Group));
    L.lock();
  }
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

std::string Server::metricsText() const {
  std::string O;
  promHeader(O, "porcupine_server_requests_total",
             "Requests submitted (accepted or rejected).", "counter");
  promSample(O, "porcupine_server_requests_total", "",
             static_cast<double>(RequestsTotal.load()));

  promHeader(O, "porcupine_server_admission_rejects_total",
             "Requests rejected synchronously at admission, by reason.",
             "counter");
  promSample(O, "porcupine_server_admission_rejects_total",
             "reason=\"queue_full\"",
             static_cast<double>(RejectsQueueFull.load()));
  promSample(O, "porcupine_server_admission_rejects_total",
             "reason=\"deadline\"",
             static_cast<double>(RejectsDeadline.load()));
  promSample(O, "porcupine_server_admission_rejects_total",
             "reason=\"unknown_kernel\"",
             static_cast<double>(RejectsUnknown.load()));
  promSample(O, "porcupine_server_admission_rejects_total",
             "reason=\"malformed\"",
             static_cast<double>(RejectsMalformed.load()));
  promSample(O, "porcupine_server_admission_rejects_total",
             "reason=\"stopped\"",
             static_cast<double>(RejectsStopped.load()));

  promHeader(O, "porcupine_server_deadline_expired_total",
             "Admitted requests that timed out waiting in queue.", "counter");
  promSample(O, "porcupine_server_deadline_expired_total", "",
             static_cast<double>(DeadlineExpired.load()));

  promHeader(O, "porcupine_server_served_total",
             "Requests answered with a successful response.", "counter");
  promSample(O, "porcupine_server_served_total", "",
             static_cast<double>(ServedTotal.load()));

  promHeader(O, "porcupine_server_execution_failures_total",
             "Requests failed during compilation or encrypted execution.",
             "counter");
  promSample(O, "porcupine_server_execution_failures_total", "",
             static_cast<double>(ExecFailures.load()));

  promHeader(O, "porcupine_server_queue_depth",
             "Requests currently queued, per shard.", "gauge");
  for (size_t I = 0; I < Shards.size(); ++I) {
    size_t D;
    {
      std::lock_guard<std::mutex> L(Shards[I]->M);
      D = Shards[I]->Queue.size();
    }
    promSample(O, "porcupine_server_queue_depth",
               "shard=\"" + std::to_string(I) + "\"", static_cast<double>(D));
  }

  promHeader(O, "porcupine_server_batches_total",
             "Backend executions issued (each serves >= 1 request).",
             "counter");
  promSample(O, "porcupine_server_batches_total", "",
             static_cast<double>(BatchesTotal.load()));
  promHeader(O, "porcupine_server_batched_requests_total",
             "Requests that shared a ciphertext with at least one other.",
             "counter");
  promSample(O, "porcupine_server_batched_requests_total", "",
             static_cast<double>(BatchedRequestsTotal.load()));
  promHeader(O, "porcupine_server_batch_fill_ratio",
             "Used / available request windows over executed ciphertexts.",
             "gauge");
  uint64_t Capn = FillCapacityTotal.load();
  promSample(O, "porcupine_server_batch_fill_ratio", "",
             Capn ? static_cast<double>(FillUsedTotal.load()) /
                        static_cast<double>(Capn)
                  : 0.0);

  promHeader(O, "porcupine_server_tenant_contexts",
             "Tenant contexts resident in the LRU cache.", "gauge");
  promSample(O, "porcupine_server_tenant_contexts", "",
             static_cast<double>(Tenants.size()));
  promHeader(O, "porcupine_server_tenant_evictions_total",
             "Tenant contexts evicted from the LRU cache.", "counter");
  promSample(O, "porcupine_server_tenant_evictions_total", "",
             static_cast<double>(Tenants.evictions()));

  promHeader(O, "porcupine_server_request_latency_us",
             "Submission-to-response latency per kernel, microseconds.",
             "summary");
  {
    std::lock_guard<std::mutex> L(HistMutex);
    for (const auto &KV : KernelHist) {
      const std::string KLab = "kernel=\"" + promEscape(KV.first) + "\"";
      LatencySnapshot S = KV.second.snapshot();
      promSample(O, "porcupine_server_request_latency_us",
                 KLab + ",quantile=\"0.5\"", S.P50Us);
      promSample(O, "porcupine_server_request_latency_us",
                 KLab + ",quantile=\"0.95\"", S.P95Us);
      promSample(O, "porcupine_server_request_latency_us",
                 KLab + ",quantile=\"0.99\"", S.P99Us);
      promSample(O, "porcupine_server_request_latency_us_sum", KLab,
                 static_cast<double>(S.SumUs));
      promSample(O, "porcupine_server_request_latency_us_count", KLab,
                 static_cast<double>(S.Count));
    }
  }
  return O;
}
