//===- examples/image_pipeline.cpp - Encrypted Sobel edge detection -------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Multi-step synthesis (paper section 6.3) on a real image-processing
/// pipeline: the Sobel operator over an encrypted image. The pipeline's
/// stages - Gx, Gy, and the gradient-magnitude combination - are natural
/// break points; we compile the box-blur stage live through the driver (it
/// is fast), take the gradient kernels from the bundled synthesized
/// programs (Figure 6), stitch everything into one Quill program, and run
/// it under BFV via a driver Runtime.
///
/// The cloud never sees the image: it receives one ciphertext and returns
/// one ciphertext of edge responses.
///
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "kernels/Kernels.h"

#include <cstdio>

using namespace porcupine;
using namespace porcupine::kernels;

namespace {

void printImage(const char *Label, const std::vector<uint64_t> &Slots,
                uint64_t T) {
  std::printf("%s\n", Label);
  for (int R = 0; R < ImageGeom::Dim; ++R) {
    std::printf("  ");
    for (int C = 0; C < ImageGeom::Dim; ++C) {
      int64_t V = static_cast<int64_t>(Slots[ImageGeom::index(R, C)]);
      if (V > static_cast<int64_t>(T / 2))
        V -= T;
      std::printf("%8lld", static_cast<long long>(V));
    }
    std::printf("\n");
  }
}

} // namespace

int main() {
  // Stage kernels: compile box blur live to demonstrate the loop (with the
  // bundled program as fallback); the gradient kernels are the paper's
  // synthesized programs (bundled).
  std::printf("Synthesizing the box-blur stage...\n");
  driver::CompileOptions Opts;
  Opts.Synthesis.TimeoutSeconds = 60.0;
  Opts.FallbackToBundled = true;
  driver::Compiler Compiler(Opts);
  auto Blur = Compiler.compile(boxBlurKernel());
  if (!Blur) {
    std::fprintf(stderr, "%s\n", Blur.status().toString().c_str());
    return 1;
  }
  std::printf("  box blur: %d instructions (%s)\n\n", Blur->Mix.Total,
              Blur->FromSynthesis ? "synthesized just now" : "bundled");

  AppBundle Sobel = sobelApp();
  std::printf("Sobel pipeline: %zu instructions, multiplicative depth %d "
              "(baseline: %zu instructions)\n\n",
              Sobel.Synthesized.Instructions.size(),
              quill::programMultiplicativeDepth(Sobel.Synthesized),
              Sobel.Baseline.Instructions.size());

  // A vertical edge down the middle of the 3x3 interior. Intensities are
  // kept small so the quadratic response stays below t/2 and prints
  // without modular wrap-around.
  std::vector<uint64_t> Img(ImageGeom::Slots, 0);
  for (int R = 1; R <= 3; ++R) {
    Img[ImageGeom::index(R, 1)] = 0;
    Img[ImageGeom::index(R, 2)] = 5;
    Img[ImageGeom::index(R, 3)] = 10;
  }

  auto RT = Compiler.instantiate({&Sobel.Synthesized});
  if (!RT) {
    std::fprintf(stderr, "%s\n", RT.status().toString().c_str());
    return 1;
  }
  uint64_t T = RT->plainModulus();

  printImage("client image (plaintext, 3x3 data in a zero border):", Img, T);
  std::printf("\nencrypting and offloading to the 'cloud'...\n");
  auto EncImg = RT->encrypt(Img);
  if (!EncImg) {
    std::fprintf(stderr, "%s\n", EncImg.status().toString().c_str());
    return 1;
  }
  auto EncOut = RT->run(Sobel.Synthesized, {*EncImg});
  if (!EncOut) {
    std::fprintf(stderr, "%s\n", EncOut.status().toString().c_str());
    return 1;
  }
  std::printf("cloud returned one ciphertext; noise budget left: %.1f "
              "bits\n\n",
              RT->executor().noiseBudget(*EncOut));

  auto Out = RT->decrypt(*EncOut, ImageGeom::Slots);
  printImage("decrypted Sobel response (gx^2 + gy^2, interior):", Out, T);

  // Cross-check against the plaintext reference.
  auto Want = Sobel.Spec.evalConcrete({Img}, T);
  for (size_t I = 0; I < ImageGeom::Slots; ++I)
    if (Sobel.Spec.outputSlotMatters(I) && Out[I] != Want[I]) {
      std::printf("MISMATCH at slot %zu\n", I);
      return 1;
    }
  std::printf("\nmatches the plaintext reference on every interior pixel\n");
  return 0;
}
