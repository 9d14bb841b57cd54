//===- tests/server_test.cpp - Unit tests for the serving tier ------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The driver::Server contract: cross-request batching produces exactly
/// the responses the one-request-per-ciphertext path produces (masked
/// slots, deterministic), admission control rejects instead of queueing
/// without bound, deadlines fail in queue rather than executing late,
/// tenants get distinct keys and fingerprints behind the LRU context
/// cache, and the Prometheus dump carries the advertised names. Plus the
/// BatchPlan analysis gates (non-splat constants, row capacity) and the
/// Engine satellites: bounded-pool compileAsync and eviction under
/// concurrent encrypted execution. Everything here runs in the fast label
/// and under TSan.
///
//===----------------------------------------------------------------------===//

#include "driver/Batcher.h"
#include "driver/Metrics.h"
#include "driver/Server.h"
#include "driver/TenantContext.h"
#include "kernels/KernelRegistry.h"
#include "kernels/Kernels.h"
#include "quill/Interpreter.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace porcupine;
using namespace porcupine::driver;
using namespace porcupine::kernels;

namespace {

constexpr uint64_t T = 65537;

CompileOptions bundledOptions() {
  CompileOptions Opts;
  Opts.RunSynthesis = false;
  return Opts;
}

/// Server options sized for tests: one shard, bundled programs, small
/// caches, and a generous flush window so grouping is deterministic.
ServerOptions testOptions(size_t MaxBatch, uint64_t FlushMicros = 500000) {
  ServerOptions SO;
  SO.NumShards = 1;
  SO.MaxBatch = MaxBatch;
  SO.FlushMicros = FlushMicros;
  SO.Engine.Defaults = bundledOptions();
  SO.Engine.RuntimePoolSize = 1;
  return SO;
}

/// The dot product reference: slot 0 carries sum(a_i * b_i) mod T, every
/// other slot is zeroed by the server's output masking.
std::vector<uint64_t> dotExpected(const std::vector<uint64_t> &A,
                                  const std::vector<uint64_t> &B) {
  std::vector<uint64_t> Out(8, 0);
  unsigned __int128 Acc = 0;
  for (size_t I = 0; I < 8; ++I)
    Acc += static_cast<unsigned __int128>(A[I]) * B[I];
  Out[0] = static_cast<uint64_t>(Acc % T);
  return Out;
}

//===----------------------------------------------------------------------===//
// Batching correctness
//===----------------------------------------------------------------------===//

TEST(Server, BatchedRequestsMatchTheUnbatchedReference) {
  // MaxBatch = 4: the fourth arrival fills the plan and flushes without
  // waiting out the timer.
  Server S(testOptions(/*MaxBatch=*/4));
  std::vector<std::vector<uint64_t>> As, Bs;
  std::vector<std::future<Expected<Response>>> Futs;
  for (uint64_t K = 0; K < 4; ++K) {
    std::vector<uint64_t> A, B;
    for (uint64_t J = 0; J < 8; ++J) {
      A.push_back((K * 1000 + J * 37 + 5) % T);
      B.push_back((K * 777 + J * 11 + 3) % T);
    }
    As.push_back(A);
    Bs.push_back(B);
    auto F = S.submit({"dot product", "tenant-a", {A, B}});
    ASSERT_TRUE(F.hasValue()) << F.status().toString();
    Futs.push_back(std::move(*F));
  }
  for (size_t K = 0; K < 4; ++K) {
    auto R = Futs[K].get();
    ASSERT_TRUE(R.hasValue()) << R.status().toString();
    EXPECT_EQ(R->Outputs, dotExpected(As[K], Bs[K])) << "request " << K;
    EXPECT_TRUE(R->Batched);
    EXPECT_EQ(R->BatchSize, 4u);
    EXPECT_GT(R->PolyDegree, 0u) << "serving is encrypted-only";
    EXPECT_GE(R->NoiseBudgetBits, 0);
  }
  // One ciphertext carried all four requests.
  std::string M = S.metricsText();
  EXPECT_NE(M.find("porcupine_server_batches_total 1"), std::string::npos)
      << M;
  EXPECT_NE(M.find("porcupine_server_batched_requests_total 4"),
            std::string::npos)
      << M;
}

TEST(Server, LoneRequestFlushesOnTheTimer) {
  // 20ms flush: a single request must not wait for peers forever.
  Server S(testOptions(/*MaxBatch=*/8, /*FlushMicros=*/20000));
  std::vector<uint64_t> A = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<uint64_t> B = {8, 7, 6, 5, 4, 3, 2, 1};
  auto R = S.call({"dot product", "solo", {A, B}});
  ASSERT_TRUE(R.hasValue()) << R.status().toString();
  EXPECT_EQ(R->Outputs, dotExpected(A, B));
  EXPECT_FALSE(R->Batched);
  EXPECT_EQ(R->BatchSize, 1u);
}

//===----------------------------------------------------------------------===//
// Admission control and deadlines
//===----------------------------------------------------------------------===//

TEST(Server, FullQueueRejectsWithBackpressureAndStopFailsPending) {
  // Queue of 1 and a 5s flush window: the first request parks in the
  // queue waiting for a batch peer, so the second must bounce.
  ServerOptions SO = testOptions(/*MaxBatch=*/2, /*FlushMicros=*/5000000);
  SO.QueueCapacity = 1;
  Server S(SO);
  std::vector<uint64_t> V = {1, 2, 3, 4, 5, 6, 7, 8};

  auto F1 = S.submit({"dot product", "t", {V, V}});
  ASSERT_TRUE(F1.hasValue()) << F1.status().toString();
  auto F2 = S.submit({"dot product", "t", {V, V}});
  ASSERT_FALSE(F2.hasValue());
  EXPECT_NE(F2.status().toString().find("full"), std::string::npos);
  EXPECT_NE(S.metricsText().find(
                "porcupine_server_admission_rejects_total{reason=\"queue_"
                "full\"} 1"),
            std::string::npos);

  S.stop();
  auto R1 = F1->get();
  ASSERT_FALSE(R1.hasValue());
  EXPECT_NE(R1.status().toString().find("stopped"), std::string::npos);
  // Submissions after stop() are rejected synchronously.
  auto F3 = S.submit({"dot product", "t", {V, V}});
  ASSERT_FALSE(F3.hasValue());
}

TEST(Server, MalformedAndUnknownRequestsAreRejectedAtAdmission) {
  Server S(testOptions(/*MaxBatch=*/2));
  EXPECT_FALSE(S.submit({"no such kernel", "t", {}}).hasValue());
  // Wrong arity.
  EXPECT_FALSE(
      S.submit({"dot product", "t", {{1, 2, 3, 4, 5, 6, 7, 8}}}).hasValue());
  // Too wide.
  EXPECT_FALSE(S.submit({"dot product",
                         "t",
                         {std::vector<uint64_t>(9, 1),
                          std::vector<uint64_t>(8, 1)}})
                   .hasValue());
  std::string M = S.metricsText();
  EXPECT_NE(
      M.find("porcupine_server_admission_rejects_total{reason=\"unknown_"
             "kernel\"} 1"),
      std::string::npos)
      << M;
  EXPECT_NE(M.find("porcupine_server_admission_rejects_total{reason=\"malfor"
                   "med\"} 2"),
            std::string::npos)
      << M;
}

TEST(Server, ExpiredDeadlinesFailInQueueAndGateAdmission) {
  Server S(testOptions(/*MaxBatch=*/1, /*FlushMicros=*/0));
  std::vector<uint64_t> V = {1, 1, 1, 1, 1, 1, 1, 1};

  // Establish a service-time estimate (also warms compile + keys).
  auto Warm = S.call({"dot product", "t", {V, V}});
  ASSERT_TRUE(Warm.hasValue()) << Warm.status().toString();

  // A 1us deadline is over before the worker can possibly serve it: it
  // must be rejected outright (the EWMA now predicts milliseconds) —
  // deadline-aware admission — or, absent an estimate, expire in queue.
  auto F = S.submit({"dot product", "t", {V, V}, /*DeadlineMicros=*/1});
  if (F.hasValue()) {
    auto R = F->get();
    ASSERT_FALSE(R.hasValue());
    EXPECT_NE(R.status().toString().find("deadline"), std::string::npos);
  } else {
    EXPECT_NE(F.status().toString().find("deadline"), std::string::npos);
  }
  std::string M = S.metricsText();
  bool Rejected =
      M.find("porcupine_server_admission_rejects_total{reason=\"deadline\"} "
             "1") != std::string::npos;
  bool Expired = M.find("porcupine_server_deadline_expired_total 1") !=
                 std::string::npos;
  EXPECT_TRUE(Rejected || Expired) << M;
}

//===----------------------------------------------------------------------===//
// Tenancy
//===----------------------------------------------------------------------===//

TEST(TenantContext, SeedsAndShardsAreDeterministicAndDistinct) {
  EXPECT_EQ(tenantSeed("alice"), tenantSeed("alice"));
  EXPECT_NE(tenantSeed("alice"), tenantSeed("bob"));
  EXPECT_NE(tenantSeed("alice"), 0u);
  EXPECT_NE(tenantSeed(""), 0u);
  EXPECT_EQ(tenantShard("alice", 4), tenantShard("alice", 4));
  EXPECT_LT(tenantShard("alice", 4), 4u);
  EXPECT_EQ(tenantShard("anyone", 1), 0u);
}

TEST(TenantContext, CacheIsAnLruWithSharedOwnership) {
  TenantContextCache C(2);
  CompileOptions Base = bundledOptions();
  auto A = C.get("alice", Base);
  auto B = C.get("bob", Base);
  EXPECT_EQ(C.get("alice", Base), A); // Hit: same shared entry.
  EXPECT_EQ(C.hits(), 1u);
  auto D = C.get("carol", Base); // Evicts bob (LRU).
  EXPECT_EQ(C.size(), 2u);
  EXPECT_EQ(C.evictions(), 1u);
  EXPECT_NE(C.get("bob", Base), B); // Rebuilt, not resurrected.
  // Evicted-but-held contexts stay valid.
  EXPECT_EQ(B->TenantId, "bob");
  EXPECT_EQ(B->Seed, tenantSeed("bob"));
  EXPECT_NE(A->OptionsKey, D->OptionsKey);
}

TEST(Server, TenantsGetDistinctKeysAndIdenticalAnswers) {
  Server S(testOptions(/*MaxBatch=*/1, /*FlushMicros=*/0));
  std::vector<uint64_t> A = {3, 1, 4, 1, 5, 9, 2, 6};
  std::vector<uint64_t> B = {2, 7, 1, 8, 2, 8, 1, 8};
  auto RA = S.call({"dot product", "alice", {A, B}});
  auto RB = S.call({"dot product", "bob", {A, B}});
  ASSERT_TRUE(RA.hasValue()) << RA.status().toString();
  ASSERT_TRUE(RB.hasValue()) << RB.status().toString();
  // Same math, different key material: fingerprints must differ because
  // the tenant seed is part of the compile fingerprint.
  EXPECT_EQ(RA->Outputs, RB->Outputs);
  EXPECT_EQ(RA->Outputs, dotExpected(A, B));
  EXPECT_NE(RA->KernelFingerprint, RB->KernelFingerprint);
  EXPECT_EQ(S.tenantCache().size(), 2u);
}

//===----------------------------------------------------------------------===//
// Batch plan gates
//===----------------------------------------------------------------------===//

KernelRegistry planRegistry() {
  KernelRegistry R;
  // "splat add": slotwise a + b + 1 with a splat constant — batchable.
  {
    KernelBundle KB;
    DataLayout L;
    L.Description = "slotwise a + b + 1";
    KB.Spec = makeKernelSpec("splat add", 2, 4, L,
                             [](const auto &In, auto Konst) {
                               std::decay_t<decltype(In[0])> Out;
                               for (size_t I = 0; I < 4; ++I)
                                 Out.push_back(In[0][I] + In[1][I] + Konst(1));
                               return Out;
                             });
    quill::Program P;
    P.NumInputs = 2;
    P.VectorSize = 4;
    P.Constants.push_back({{1}});
    P.append(quill::Instr::ctCt(quill::Opcode::AddCtCt, 0, 1));
    P.append(quill::Instr::ctPt(quill::Opcode::AddCtPt, 2, 0));
    KB.Synthesized = P;
    EXPECT_TRUE(R.add("splat add", KB).ok());
  }
  // "vector mask": multiplies by a per-slot constant — NOT batchable.
  {
    KernelBundle KB;
    DataLayout L;
    L.Description = "a * [1,2,3,4]";
    KB.Spec = makeKernelSpec("vector mask", 1, 4, L,
                             [](const auto &In, auto Konst) {
                               std::decay_t<decltype(In[0])> Out;
                               for (size_t I = 0; I < 4; ++I)
                                 Out.push_back(
                                     In[0][I] *
                                     Konst(static_cast<int64_t>(I + 1)));
                               return Out;
                             });
    quill::Program P;
    P.NumInputs = 1;
    P.VectorSize = 4;
    P.Constants.push_back({{1, 2, 3, 4}});
    P.append(quill::Instr::ctPt(quill::Opcode::MulCtPt, 0, 0));
    KB.Synthesized = P;
    EXPECT_TRUE(R.add("vector mask", KB).ok());
  }
  return R;
}

TEST(BatchPlan, SplatKernelsBatchAndNonSplatConstantsFallBack) {
  KernelRegistry R = planRegistry();
  Engine E(EngineOptions{4, 1, bundledOptions()}, &R);

  auto Splat = E.get("splat add");
  ASSERT_TRUE(Splat.hasValue()) << Splat.status().toString();
  BatchPlan Good = BatchPlan::analyze(**Splat, (*R.find("splat add"))->Spec,
                                      /*MaxBatch=*/64);
  EXPECT_TRUE(Good.batchable());
  EXPECT_EQ(Good.capacity(), 64u); // Row 2048 / window 4, capped at 64.
  EXPECT_EQ(Good.window(), 4u);
  EXPECT_EQ(Good.rowWidth(), 2048u);

  auto Vec = E.get("vector mask");
  ASSERT_TRUE(Vec.hasValue()) << Vec.status().toString();
  BatchPlan Bad = BatchPlan::analyze(**Vec, (*R.find("vector mask"))->Spec,
                                     /*MaxBatch=*/64);
  EXPECT_EQ(Bad.capacity(), 1u);
  EXPECT_NE(Bad.note().find("non-splat"), std::string::npos);

  // MaxBatch = 1 disables batching even for batchable kernels.
  BatchPlan One = BatchPlan::analyze(**Splat, (*R.find("splat add"))->Spec,
                                     /*MaxBatch=*/1);
  EXPECT_EQ(One.capacity(), 1u);
}

TEST(BatchPlan, PackAndSliceRoundTripTheWindowLayout) {
  KernelRegistry R = planRegistry();
  Engine E(EngineOptions{4, 1, bundledOptions()}, &R);
  auto K = E.get("splat add");
  ASSERT_TRUE(K.hasValue());
  BatchPlan Plan =
      BatchPlan::analyze(**K, (*R.find("splat add"))->Spec, /*MaxBatch=*/8);
  ASSERT_TRUE(Plan.batchable());

  RequestInputs R0 = {{1, 2, 3, 4}, {10, 20, 30, 40}};
  RequestInputs R1 = {{5, 6}, {7, 8}}; // Short inputs zero-pad.
  auto Rows = Plan.pack({&R0, &R1});
  ASSERT_EQ(Rows.size(), 2u);
  EXPECT_EQ(Rows[0], (std::vector<uint64_t>{1, 2, 3, 4, 5, 6, 0, 0}));
  EXPECT_EQ(Rows[1], (std::vector<uint64_t>{10, 20, 30, 40, 7, 8, 0, 0}));

  std::vector<uint64_t> Decrypted = {11, 22, 33, 44, 12, 14, 1, 1};
  EXPECT_EQ(Plan.slice(Decrypted, 0),
            (std::vector<uint64_t>{11, 22, 33, 44}));
  EXPECT_EQ(Plan.slice(Decrypted, 1), (std::vector<uint64_t>{12, 14, 1, 1}));
}

TEST(Server, NonBatchableKernelsServeCorrectlyViaTheFallback) {
  KernelRegistry R = planRegistry();
  ServerOptions SO = testOptions(/*MaxBatch=*/4, /*FlushMicros=*/0);
  Server S(SO, &R);
  auto Out = S.call({"vector mask", "t", {{9, 9, 9, 9}}});
  ASSERT_TRUE(Out.hasValue()) << Out.status().toString();
  EXPECT_EQ(Out->Outputs, (std::vector<uint64_t>{9, 18, 27, 36}));
  EXPECT_FALSE(Out->Batched);
  EXPECT_EQ(Out->BatchSize, 1u);
  // The capacity-1 group is one execution with its one window used.
  std::string M = S.metricsText();
  EXPECT_NE(M.find("porcupine_server_batches_total 1\n"), std::string::npos)
      << M;
  EXPECT_NE(M.find("porcupine_server_batch_fill_ratio 1\n"),
            std::string::npos)
      << M;
}

TEST(Server, ExhaustedNoiseBudgetFailsOnEngineAndServer) {
  // x^(2^7): one multiplicative level past what the largest parameter row
  // can decrypt, so every serving path must fail rather than answer.
  KernelRegistry R;
  KernelBundle KB;
  DataLayout L;
  L.Description = "x^128";
  KB.Spec = makeKernelSpec("square chain", 1, 4, L,
                           [](const auto &In, auto Konst) {
                             (void)Konst;
                             std::decay_t<decltype(In[0])> Out;
                             for (size_t I = 0; I < 4; ++I) {
                               auto V = In[0][I];
                               for (int D = 0; D < 7; ++D)
                                 V = V * V;
                               Out.push_back(V);
                             }
                             return Out;
                           });
  quill::Program P;
  P.NumInputs = 1;
  P.VectorSize = 4;
  int V = 0;
  for (int D = 0; D < 7; ++D)
    V = P.append(quill::Instr::ctCt(quill::Opcode::MulCtCt, V, V));
  KB.Synthesized = P;
  ASSERT_TRUE(R.add("square chain", KB).ok());
  const std::vector<std::vector<uint64_t>> In = {{2, 3, 4, 5}};

  Engine E(EngineOptions{4, 1, bundledOptions()}, &R);
  auto K = E.get("square chain");
  ASSERT_TRUE(K.hasValue()) << K.status().toString();
  auto One = (*K)->execute(In);
  ASSERT_FALSE(One.hasValue());
  EXPECT_NE(One.status().toString().find("noise budget exhausted"),
            std::string::npos)
      << One.status().toString();
  auto Many = (*K)->executeMany({In});
  ASSERT_FALSE(Many.hasValue());
  EXPECT_NE(Many.status().toString().find("noise budget exhausted"),
            std::string::npos);

  Server S(testOptions(/*MaxBatch=*/4, /*FlushMicros=*/0), &R);
  auto Out = S.call({"square chain", "t", In});
  ASSERT_FALSE(Out.hasValue());
  EXPECT_NE(Out.status().toString().find("noise budget exhausted"),
            std::string::npos)
      << Out.status().toString();
  std::string M = S.metricsText();
  EXPECT_NE(M.find("porcupine_server_execution_failures_total 1\n"),
            std::string::npos)
      << M;
  EXPECT_NE(M.find("porcupine_server_served_total 0\n"), std::string::npos)
      << M;
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

TEST(LatencyHistogram, QuantilesLandInTheRightBuckets) {
  LatencyHistogram H;
  for (uint64_t I = 0; I < 99; ++I)
    H.observe(100);
  H.observe(100000);
  LatencySnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 100u);
  EXPECT_EQ(S.SumUs, 99u * 100 + 100000);
  // p50 within one bucket (~19%) of 100us; p99 must not be dragged to the
  // outlier, p-above-99 must be.
  EXPECT_GT(S.P50Us, 80.0);
  EXPECT_LT(S.P50Us, 125.0);
  EXPECT_LT(S.P99Us, 200.0);
  EXPECT_GT(S.P95Us, 80.0);
}

TEST(Server, MetricsTextCarriesTheAdvertisedNames) {
  Server S(testOptions(/*MaxBatch=*/1, /*FlushMicros=*/0));
  std::vector<uint64_t> V = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_TRUE(S.call({"dot product", "t", {V, V}}).hasValue());
  std::string M = S.metricsText();
  for (const char *Name :
       {"porcupine_server_requests_total",
        "porcupine_server_admission_rejects_total",
        "porcupine_server_deadline_expired_total",
        "porcupine_server_served_total",
        "porcupine_server_execution_failures_total",
        "porcupine_server_queue_depth{shard=\"0\"}",
        "porcupine_server_batches_total",
        "porcupine_server_batched_requests_total",
        "porcupine_server_batch_fill_ratio",
        "porcupine_server_tenant_contexts",
        "porcupine_server_tenant_evictions_total",
        "porcupine_server_request_latency_us{kernel=\"Dot Product\","
        "quantile=\"0.5\"}",
        "quantile=\"0.99\"", "porcupine_server_request_latency_us_count"})
    EXPECT_NE(M.find(Name), std::string::npos) << Name << "\n" << M;
}

//===----------------------------------------------------------------------===//
// Concurrency (TSan coverage)
//===----------------------------------------------------------------------===//

TEST(Server, ConcurrentSubmittersAcrossTenantsGetCorrectAnswers) {
  Server S(testOptions(/*MaxBatch=*/4, /*FlushMicros=*/5000));
  constexpr int Threads = 4;
  constexpr int CallsPerThread = 3;
  std::vector<std::string> Errors(Threads);
  std::vector<std::thread> Pool;
  for (int Ti = 0; Ti < Threads; ++Ti) {
    Pool.emplace_back([&, Ti] {
      const std::string Tenant = Ti % 2 ? "odd" : "even";
      for (int C = 0; C < CallsPerThread; ++C) {
        std::vector<uint64_t> A, B;
        for (uint64_t J = 0; J < 8; ++J) {
          A.push_back((Ti * 131 + C * 17 + J) % T);
          B.push_back((Ti * 7 + C * 3 + J * J) % T);
        }
        auto R = S.call({"dot product", Tenant, {A, B}});
        if (!R) {
          Errors[Ti] = R.status().toString();
          return;
        }
        if (R->Outputs != dotExpected(A, B)) {
          Errors[Ti] = "thread " + std::to_string(Ti) + " call " +
                       std::to_string(C) + " got the wrong dot product";
          return;
        }
      }
    });
  }
  for (std::thread &Th : Pool)
    Th.join();
  for (int Ti = 0; Ti < Threads; ++Ti)
    EXPECT_EQ(Errors[Ti], "") << "thread " << Ti;
  // Both tenants' contexts were materialized, metrics stayed coherent.
  EXPECT_EQ(S.tenantCache().size(), 2u);
  EXPECT_NE(S.metricsText().find("porcupine_server_served_total 12"),
            std::string::npos);
}

} // namespace
