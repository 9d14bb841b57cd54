//===- backend/BfvBackend.h - In-tree BFV execution backend -----*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The default ExecutorBackend ("bfv"): real encrypted execution on the
/// in-tree RNS BFV runtime - the role SEAL plays in the paper's toolchain,
/// and the only way to run a Quill program on BFV ciphertexts. Each session
/// owns a context (or reuses a prior session's via SessionSpec::Reuse),
/// fresh keys seeded from ExecutionSeed, and Galois keys for exactly the
/// program set's rotations.
///
/// For implicit-relin programs a session performs the code-generation
/// post-processing the paper describes: relinearization after every
/// ciphertext-ciphertext multiply. Explicit-relin programs
/// (Program::ExplicitRelin, produced by the lazy-relin pass) schedule
/// relinearization themselves; multiplies stay raw three-component results
/// until a Relin instruction reduces them.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_BACKEND_BFVBACKEND_H
#define PORCUPINE_BACKEND_BFVBACKEND_H

#include "backend/ExecutorBackend.h"

namespace porcupine {
namespace backend {

class BfvBackend : public ExecutorBackend {
public:
  std::string name() const override { return "bfv"; }
  BackendCapabilities capabilities() const override {
    return BackendCapabilities{};
  }
  /// The calibrated defaults in quill::LatencyTable were measured on this
  /// runtime (bench_bfv_microbench), so they ARE this backend's table.
  quill::LatencyTable latencyTable() const override {
    return quill::LatencyTable{};
  }
  Expected<std::unique_ptr<Executor>>
  createExecutor(const SessionSpec &Spec) const override;
};

} // namespace backend
} // namespace porcupine

#endif // PORCUPINE_BACKEND_BFVBACKEND_H
