//===- backend/LatencyProfiler.cpp - HE instruction profiling --------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "backend/LatencyProfiler.h"

#include "bfv/BatchEncoder.h"
#include "bfv/Decryptor.h"
#include "bfv/Encryptor.h"
#include "bfv/Evaluator.h"
#include "bfv/KeyGenerator.h"
#include "support/Timing.h"

#include <vector>

using namespace porcupine;

quill::LatencyTable porcupine::profileLatencies(const BfvContext &Ctx, Rng &R,
                                                int Repeats) {
  KeyGenerator Keygen(Ctx, R);
  PublicKey Pk = Keygen.createPublicKey();
  Encryptor Enc(Ctx, Pk, R);
  Evaluator Eval(Ctx);
  BatchEncoder Encoder(Ctx);
  RelinKeys Relin = Keygen.createRelinKeys();
  GaloisKeys Galois = Keygen.createGaloisKeys({1});

  std::vector<uint64_t> Values =
      R.vectorBelow(Ctx.plainModulus(), Ctx.slotCount());
  Plaintext Plain = Encoder.encode(Values);
  Ciphertext A = Enc.encrypt(Plain);
  Ciphertext B = Enc.encrypt(Plain);

  quill::LatencyTable Table;
  Table.AddCtCt = medianMicros(Repeats, [&] { Eval.add(A, B); });
  Table.SubCtCt = medianMicros(Repeats, [&] { Eval.sub(A, B); });
  Table.AddCtPt = medianMicros(Repeats, [&] { Eval.addPlain(A, Plain); });
  Table.SubCtPt = medianMicros(Repeats, [&] { Eval.subPlain(A, Plain); });
  Table.MulCtPt = medianMicros(Repeats, [&] { Eval.multiplyPlain(A, Plain); });
  // Profile the raw tensor product and the relinearization separately, then
  // keep the table invariant MulCtCt == raw + RelinCt so implicit programs
  // (mandatory relin folded into the multiply) and explicit-relin programs
  // price identically when every multiply is relinearized.
  double MulRaw = medianMicros(Repeats, [&] { Eval.multiply(A, B); });
  Ciphertext Product = Eval.multiply(A, B);
  Table.RelinCt =
      medianMicros(Repeats, [&] { Eval.relinearize(Product, Relin); });
  Table.MulCtCt = MulRaw + Table.RelinCt;
  Table.RotCt =
      medianMicros(Repeats, [&] { Eval.rotateRows(A, 1, Galois); });
  return Table;
}
