//===- perfbench/src/Reference.h - Seeded inputs and references -*- C++ -*-===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The kernels the workloads drive, each with seeded input sets and the
/// expected outputs on the slots the kernel guarantees. The expected
/// outputs never come from the compiler under test: the synthesized set
/// uses the hand-written KernelSpec reference (KernelSpec::evalConcrete),
/// and the lowered set — whose KernelSpec the frontend derives — uses the
/// plain loops below, written from the kernels' definitions.
///
//===----------------------------------------------------------------------===//

#ifndef PORCUPINE_PERFBENCH_REFERENCE_H
#define PORCUPINE_PERFBENCH_REFERENCE_H

#include "kernels/Kernels.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The plaintext modulus every workload compiles for (the toolchain's
/// default).
constexpr uint64_t PlainModulus = 65537;

struct KernelCase {
  /// Registry name, e.g. "Dot Product".
  std::string Name;
  /// Metric-name suffix, e.g. "dot".
  std::string Key;
  /// One vector per kernel input; each set is one call.
  std::vector<std::vector<std::vector<uint64_t>>> Inputs;
  /// Expected output per input set; only Checked slots are meaningful.
  std::vector<std::vector<uint64_t>> Want;
  /// Output slots the kernel guarantees.
  std::vector<bool> Checked;
};

/// A synthesized-set kernel: \p Count seeded input sets from
/// KernelSpec::randomInputs, expected outputs from evalConcrete.
KernelCase specCase(const porcupine::KernelSpec &Spec, const std::string &Key,
                    uint64_t Seed, size_t Count);

/// A lowered-set kernel ("Conv2D 5x5", "Perceptron 8-4-1", "Group-By
/// Sum"): seeded inputs in the arrays' row-major layout, expected outputs
/// from an independent loop implementation.
KernelCase loweredCase(const std::string &Name, const std::string &Key,
                       uint64_t Seed, size_t Count);

/// Pads every input vector with trailing zeros to \p Width slots (the
/// interpreter needs full-width inputs; encrypted execution pads itself).
std::vector<std::vector<uint64_t>>
padInputs(const std::vector<std::vector<uint64_t>> &Inputs, size_t Width);

/// x^(2^D) mod PlainModulus, slot-wise.
std::vector<uint64_t> repeatedSquare(const std::vector<uint64_t> &X, int D);

} // namespace perfbench

#endif // PORCUPINE_PERFBENCH_REFERENCE_H
