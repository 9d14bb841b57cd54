//===- bench/bench_bfv_microbench.cpp - BFV primitive latencies -----------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Times every evaluator primitive the cost model prices (add, multiply,
/// relinearize, rotate, ...) plus the kernels underneath them (NTT, fast
/// base conversion) on the depth-1 serving parameters, and prints one JSON
/// object. tools/bench.sh embeds it as the snapshot's "microbench" section;
/// tools/bench_compare.py gates the mul/relin/rotate numbers against the
/// committed baseline. The same numbers seed quill::LatencyTable's
/// defaults — re-run this after touching the BFV hot paths and keep the
/// two in sync.
///
/// Usage: bench_bfv_microbench [--repeats N]
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "backend/LatencyProfiler.h"
#include "bfv/BatchEncoder.h"
#include "bfv/Decryptor.h"
#include "bfv/Encryptor.h"
#include "bfv/KeyGenerator.h"
#include "support/Random.h"
#include "support/Timing.h"

#include <cstdio>
#include <vector>

using namespace porcupine;

int main(int Argc, char **Argv) {
  int Repeats = bench::argInt(Argc, Argv, "--repeats", 25);

  BfvContext Ctx = BfvContext::forMultDepth(1);
  Rng R(7);
  // The cost-model ops come from the profiler that prices the cost model,
  // so this bench and LatencySource::Profiled compiles time the same code.
  quill::LatencyTable Ops = profileLatencies(Ctx, R, Repeats);

  KeyGenerator Keygen(Ctx, R);
  PublicKey Pk = Keygen.createPublicKey();
  Encryptor Enc(Ctx, Pk, R);
  BatchEncoder Encoder(Ctx);
  Decryptor Dec(Ctx, Keygen.secretKey());
  Plaintext Plain =
      Encoder.encode(R.vectorBelow(Ctx.plainModulus(), Ctx.slotCount()));
  Ciphertext A = Enc.encrypt(Plain);
  double EncryptUs = medianMicros(Repeats, [&] { Enc.encrypt(Plain); });
  double DecryptUs = medianMicros(Repeats, [&] { Dec.decrypt(A); });

  // Kernel-level numbers: one per-prime forward/inverse NTT pass over a
  // full ring element, and one coeff->aux fast base conversion.
  RingPoly Poly = RingPoly::sampleUniform(Ctx, R);
  double NttFwdUs = medianMicros(Repeats, [&] {
    RingPoly P = Poly;
    P.toNtt(Ctx);
  });
  RingPoly PolyNtt = Poly;
  PolyNtt.toNtt(Ctx);
  double NttInvUs = medianMicros(Repeats, [&] {
    RingPoly P = PolyNtt;
    P.fromNtt(Ctx);
  });
  std::vector<std::vector<uint64_t>> Converted;
  double BaseConvUs = medianMicros(
      Repeats, [&] { Ctx.coeffToAux().convert(Poly.allResidues(), Converted); });

  std::printf("{\n");
  std::printf("  \"schema\": \"bfv-microbench/1\",\n");
  std::printf("  \"poly_degree\": %zu,\n", Ctx.polyDegree());
  std::printf("  \"coeff_modulus_bits\": %u,\n", Ctx.coeffModulusBits());
  std::printf("  \"repeats\": %d,\n", Repeats);
  std::printf("  \"ops_us\": {\n");
  std::printf("    \"add_ct_ct\": %.1f,\n", Ops.AddCtCt);
  std::printf("    \"sub_ct_ct\": %.1f,\n", Ops.SubCtCt);
  std::printf("    \"add_ct_pt\": %.1f,\n", Ops.AddCtPt);
  std::printf("    \"mul_ct_pt\": %.1f,\n", Ops.MulCtPt);
  std::printf("    \"mul_ct_ct_raw\": %.1f,\n", Ops.MulCtCt - Ops.RelinCt);
  std::printf("    \"relin\": %.1f,\n", Ops.RelinCt);
  std::printf("    \"mul_ct_ct\": %.1f,\n", Ops.MulCtCt);
  std::printf("    \"rotate\": %.1f,\n", Ops.RotCt);
  std::printf("    \"encrypt\": %.1f,\n", EncryptUs);
  std::printf("    \"decrypt\": %.1f,\n", DecryptUs);
  std::printf("    \"ntt_forward\": %.1f,\n", NttFwdUs);
  std::printf("    \"ntt_inverse\": %.1f,\n", NttInvUs);
  std::printf("    \"base_conv_coeff_to_aux\": %.1f\n", BaseConvUs);
  std::printf("  }\n");
  std::printf("}\n");
  return 0;
}
