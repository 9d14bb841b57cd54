//===- backend/BfvBackend.cpp - In-tree BFV execution backend -------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "backend/BfvBackend.h"

#include "bfv/Decryptor.h"
#include "bfv/Encryptor.h"
#include "bfv/Evaluator.h"
#include "bfv/KeyGenerator.h"
#include "quill/Analysis.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>

using namespace porcupine;
using namespace porcupine::backend;
using namespace porcupine::quill;

namespace {

/// One BFV session: a shared immutable context, a private RNG the keys and
/// encryptor draw from, the keys, and the evaluator. Values hold
/// Ciphertexts. The session is heap-allocated and never moves, so the
/// members that borrow *Ctx and R stay valid.
class BfvSession : public Executor {
public:
  BfvSession(std::shared_ptr<const BfvContext> Ctx, uint64_t Seed,
             const std::vector<const Program *> &Programs)
      : Ctx(std::move(Ctx)), R(Seed), Keygen(*this->Ctx, R),
        Pk(Keygen.createPublicKey()), Eval(*this->Ctx),
        Enc(*this->Ctx, Pk, R), Dec(*this->Ctx, Keygen.secretKey()),
        Relin(Keygen.createRelinKeys()),
        Galois(Keygen.createGaloisKeys(requiredRotations(Programs))) {}

  Expected<Value> encrypt(const std::vector<uint64_t> &Values) const override {
    assert(Values.size() <= Ctx->slotCount() && "input wider than a row");
    return Value::wrap(Enc.encrypt(Eval.encoder().encode(Values)));
  }

  Expected<Value> run(const Program &P,
                      const std::vector<Value> &Inputs) const override {
    return Value::wrap(execute(P, Inputs, nullptr, 0));
  }

  std::vector<uint64_t> decrypt(const Value &V, size_t Width) const override {
    return decryptCt(V.get<Ciphertext>(), Width);
  }

  double noiseBudget(const Value &V) const override {
    return Dec.invariantNoiseBudget(V.get<Ciphertext>());
  }

  Expected<std::vector<std::vector<uint64_t>>>
  runWithTrace(const Program &P, const std::vector<Value> &Inputs,
               size_t TraceWidth) const override {
    std::vector<std::vector<uint64_t>> Trace;
    execute(P, Inputs, &Trace, TraceWidth);
    return Trace;
  }

  size_t slotCount() const override { return Ctx->slotCount(); }
  size_t polyDegree() const override { return Ctx->polyDegree(); }
  uint64_t plainModulus() const override { return Ctx->plainModulus(); }

  std::shared_ptr<const void> sharedState() const override { return Ctx; }

private:
  std::shared_ptr<const BfvContext> Ctx;
  Rng R;
  KeyGenerator Keygen;
  PublicKey Pk;
  Evaluator Eval;
  Encryptor Enc;
  Decryptor Dec;
  RelinKeys Relin;
  GaloisKeys Galois;

  std::vector<uint64_t> decryptCt(const Ciphertext &Ct, size_t Width) const {
    auto Slots = Eval.encoder().decode(Dec.decrypt(Ct));
    Slots.resize(Width);
    return Slots;
  }

  /// Encodes a Quill plaintext constant for the full batching vector:
  /// splats broadcast everywhere; vectors occupy row-0 slots [0, size).
  Plaintext encodeConstant(const PlainConstant &C) const {
    const BatchEncoder &Encoder = Eval.encoder();
    std::vector<int64_t> Slots;
    if (C.isSplat()) {
      Slots.assign(Encoder.slotCount(), C.Values[0]);
    } else {
      Slots.assign(Encoder.slotCount(), 0);
      for (size_t I = 0; I < C.Values.size(); ++I)
        Slots[I] = C.Values[I];
    }
    return Encoder.encodeSigned(Slots);
  }

  Ciphertext execInstr(const Instr &I, bool ExplicitRelin,
                       const std::vector<const Ciphertext *> &Values,
                       const std::vector<Plaintext> &Consts) const {
    const Ciphertext &A = *Values[I.Src0];
    switch (I.Op) {
    case Opcode::AddCtCt:
      return Eval.add(A, *Values[I.Src1]);
    case Opcode::SubCtCt:
      return Eval.sub(A, *Values[I.Src1]);
    case Opcode::MulCtCt:
      // Implicit programs follow the paper's code generation: a
      // relinearization after every ciphertext-ciphertext multiply.
      // Explicit-relin programs schedule it themselves via Relin, and
      // adds, subtracts, ct-pt multiplies and decryption all tolerate the
      // raw three-component product.
      if (ExplicitRelin)
        return Eval.multiply(A, *Values[I.Src1]);
      return Eval.relinearize(Eval.multiply(A, *Values[I.Src1]), Relin);
    case Opcode::AddCtPt:
      return Eval.addPlain(A, Consts[I.PtIdx]);
    case Opcode::SubCtPt:
      return Eval.subPlain(A, Consts[I.PtIdx]);
    case Opcode::MulCtPt:
      return Eval.multiplyPlain(A, Consts[I.PtIdx]);
    case Opcode::RotCt:
      return Eval.rotateRows(A, I.Rot, Galois);
    case Opcode::Relin:
      return Eval.relinearize(A, Relin);
    }
    PORC_UNREACHABLE("unhandled opcode");
  }

  /// The instruction loop behind run() and runWithTrace(). Inputs are read
  /// in place, never copied. When \p Trace is set, the first \p TraceWidth
  /// decrypted slots of every instruction's result are appended to it.
  Ciphertext execute(const Program &P, const std::vector<Value> &Inputs,
                     std::vector<std::vector<uint64_t>> *Trace,
                     size_t TraceWidth) const {
    assert(static_cast<int>(Inputs.size()) == P.NumInputs && "input count");
    std::vector<Plaintext> Consts;
    Consts.reserve(P.Constants.size());
    for (const PlainConstant &C : P.Constants)
      Consts.push_back(encodeConstant(C));

    std::vector<const Ciphertext *> Values;
    Values.reserve(P.numValues());
    for (const Value &V : Inputs)
      Values.push_back(&V.get<Ciphertext>());
    // Reserved up front so the pointers in Values stay valid.
    std::vector<Ciphertext> Results;
    Results.reserve(P.Instructions.size());
    for (const Instr &I : P.Instructions) {
      Results.push_back(execInstr(I, P.ExplicitRelin, Values, Consts));
      Values.push_back(&Results.back());
      if (Trace)
        Trace->push_back(decryptCt(Results.back(), TraceWidth));
    }
    int Out = P.outputId();
    if (Out < P.NumInputs)
      return *Values[Out];
    return std::move(Results[Out - P.NumInputs]);
  }
};

} // namespace

Expected<std::unique_ptr<Executor>>
BfvBackend::createExecutor(const SessionSpec &Spec) const {
  int Depth = 0;
  for (const Program *P : Spec.Programs)
    Depth = std::max(Depth, programMultiplicativeDepth(*P));

  std::shared_ptr<const BfvContext> Ctx;
  if (Spec.Reuse)
    Ctx = std::static_pointer_cast<const BfvContext>(Spec.Reuse);
  else
    Ctx = std::make_shared<const BfvContext>(
        BfvContext::forMultDepth(static_cast<unsigned>(Depth)));

  // The standard-parameter contexts fix the plaintext modulus; a program
  // compiled/verified under a different modulus would silently compute
  // different values encrypted, so refuse rather than mislead.
  if (Spec.PlainModulus != Ctx->plainModulus())
    return Status::error(
        "execute",
        "encrypted execution uses plaintext modulus " +
            std::to_string(Ctx->plainModulus()) +
            " but the options request " + std::to_string(Spec.PlainModulus) +
            "; run with the default modulus or use the dry-run backend");
  for (const Program *P : Spec.Programs)
    if (P->VectorSize > Ctx->slotCount())
      return Status::error(
          "execute", "program is " + std::to_string(P->VectorSize) +
                         " slots wide but the context batches only " +
                         std::to_string(Ctx->slotCount()));

  return std::unique_ptr<Executor>(
      new BfvSession(std::move(Ctx), Spec.ExecutionSeed, Spec.Programs));
}
