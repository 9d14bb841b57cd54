//===- tests/BfvSession.h - Encrypted sessions for tests --------*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Opens a session on the registered "bfv" backend — the only way tests
/// reach encrypted execution, so they exercise exactly the code the driver,
/// Engine and Server run. Tests with small custom parameters pass their
/// context through SessionSpec::Reuse.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_TESTS_BFVSESSION_H
#define PORCUPINE_TESTS_BFVSESSION_H

#include "backend/ExecutorBackend.h"
#include "bfv/BfvContext.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace porcupine {

/// A "bfv" session for \p Programs with keys seeded from \p Seed, over
/// \p Ctx when given (else the standard context for the deepest program).
inline std::unique_ptr<backend::Executor>
openBfvSession(const std::vector<const quill::Program *> &Programs,
               uint64_t Seed, std::shared_ptr<const BfvContext> Ctx = nullptr) {
  backend::SessionSpec Spec;
  Spec.Programs = Programs;
  Spec.ExecutionSeed = Seed;
  Spec.Reuse = std::move(Ctx);
  auto Exec =
      backend::BackendRegistry::builtin().find("bfv")->createExecutor(Spec);
  EXPECT_TRUE(Exec.hasValue()) << Exec.status().toString();
  return Exec.take();
}

} // namespace porcupine

#endif // PORCUPINE_TESTS_BFVSESSION_H
