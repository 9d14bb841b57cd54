//===- synth/Synthesizer.cpp - CEGIS synthesis engine -----------------------===//
//
// Part of the Porcupine reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "synth/Synthesizer.h"

#include "math/ModArith.h"
#include "quill/Analysis.h"
#include "quill/Interpreter.h"
#include "spec/Equivalence.h"
#include "support/Cancellation.h"
#include "support/ThreadPool.h"
#include "support/Timing.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <climits>
#include <condition_variable>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <unordered_set>

using namespace porcupine;
using namespace porcupine::synth;
using namespace porcupine::quill;

namespace {

/// Concatenated slot values of one candidate value across all examples;
/// the unit of observational-equivalence deduplication.
using Fingerprint = std::vector<uint64_t>;

struct FingerprintHash {
  size_t operator()(const Fingerprint &F) const {
    // FNV-1a over the words.
    uint64_t H = 1469598103934665603ull;
    for (uint64_t W : F) {
      H ^= W;
      H *= 1099511628211ull;
    }
    return static_cast<size_t>(H);
  }
};

/// One filled component during search. For arithmetic, Rot* decorate the
/// operands (local-rotate holes); a standalone rotation (explicit mode)
/// uses Op = RotCt with the amount in Rot0.
struct ChosenInstr {
  Opcode Op;
  int PtIdx = -1;
  int Src0 = 0, Rot0 = 0;
  int Src1 = 0, Rot1 = 0;

  /// Total order used for the SSA symmetry break: independent adjacent
  /// instructions must appear in non-decreasing tuple order (the paper's
  /// "enforce static single assignment to instill an ordering and break
  /// symmetries between functionally equivalent programs").
  friend bool operator<(const ChosenInstr &A, const ChosenInstr &B) {
    auto Key = [](const ChosenInstr &C) {
      return std::tuple(static_cast<int>(C.Op), C.PtIdx, C.Src0, C.Rot0,
                        C.Src1, C.Rot1);
    };
    return Key(A) < Key(B);
  }
};

/// An input-output example.
struct Example {
  std::vector<std::vector<uint64_t>> Inputs;
  std::vector<uint64_t> Output;
};

/// The enumerative solver for one (sketch, L, examples) query, optionally
/// cost-bounded. This plays the role of the paper's SMT "solve" call.
class Search {
public:
  Search(const KernelSpec &Spec, const Sketch &Sk,
         const SynthesisOptions &Opts, const std::vector<Example> &Examples,
         int L, double CostBound, Stopwatch &Clock)
      : Spec(Spec), Sk(Sk), Opts(Opts), Examples(Examples), L(L),
        CostBound(CostBound), Clock(Clock), Width(Sk.VectorSize),
        T(Opts.PlainModulus) {
    // Cheapest-first menu order so deduplication keeps cheap producers.
    MenuOrder.resize(Sk.Menu.size());
    for (size_t I = 0; I < MenuOrder.size(); ++I)
      MenuOrder[I] = static_cast<int>(I);
    std::stable_sort(MenuOrder.begin(), MenuOrder.end(), [&](int A, int B) {
      return Opts.Latency.latencyOf(Sk.Menu[A].Op) <
             Opts.Latency.latencyOf(Sk.Menu[B].Op);
    });
    MinMenuLatency = 1e100;
    for (const Component &C : Sk.Menu)
      MinMenuLatency = std::min(MinMenuLatency, Opts.Latency.latencyOf(C.Op));
    if (Sk.ExplicitRotations)
      MinMenuLatency = std::min(MinMenuLatency, Opts.Latency.RotCt);

    // Masked slot positions (flattened across examples), used for the
    // final-slot meet-in-the-middle index.
    for (size_t E = 0; E < Examples.size(); ++E)
      for (size_t J = 0; J < Width; ++J)
        if (Spec.outputSlotMatters(J))
          MaskedPositions.push_back(E * Width + J);

    // Seed the value table with the inputs.
    for (int I = 0; I < Sk.NumInputs; ++I) {
      Fingerprint F;
      F.reserve(Examples.size() * Width);
      for (const Example &E : Examples)
        F.insert(F.end(), E.Inputs[I].begin(), E.Inputs[I].end());
      Values.push_back(std::move(F));
      MDepth.push_back(0);
      UseCount.push_back(1); // Inputs never count as dead.
      Seen.insert(Values.back());
      indexValue(static_cast<int>(Values.size()) - 1);
    }

    // Target fingerprint on masked slots.
    for (const Example &E : Examples)
      Target.insert(Target.end(), E.Output.begin(), E.Output.end());
    MaskedTarget = maskedProjection(Target);
  }

  /// Runs the DFS; returns true with \p Out filled on success.
  bool run(std::vector<ChosenInstr> &Out) {
    Chosen.clear();
    bool Found = dfs(0, 0.0);
    if (Found)
      Out = Solution;
    return Found;
  }

  /// Installs a cooperative abort predicate, polled every few hundred
  /// nodes. When it fires the search unwinds and run()/runFromPrefix()
  /// return false with aborted() set — the portfolio's cancellation hook
  /// for workers whose candidate subtree has been outrun by a
  /// lower-indexed solution (or whose whole query was stopped).
  void setAbort(std::function<bool()> Fn) { ExternalAbort = std::move(Fn); }

  /// Enumerates the first \p Depth levels only, recording every surviving
  /// partial assignment — in sequential DFS visit order — instead of
  /// recursing deeper. These prefixes are the tasks of one portfolio
  /// query: concatenating the subtree searches in prefix order replays the
  /// sequential search exactly.
  void collectPrefixes(int Depth, std::vector<std::vector<ChosenInstr>> &Out) {
    assert(Depth >= 1 && Depth < L && "prefix depth must stop above the final slot");
    Chosen.clear();
    PrefixDepth = Depth;
    PrefixOut = &Out;
    dfs(0, 0.0);
    PrefixDepth = -1;
    PrefixOut = nullptr;
  }

  /// Replays \p Prefix (re-running the same pruning checks it survived at
  /// collection time), then searches the remaining slots. Equivalent to
  /// the slice of run() below that prefix.
  bool runFromPrefix(const std::vector<ChosenInstr> &Prefix,
                     std::vector<ChosenInstr> &Out) {
    assert(!Prefix.empty() && static_cast<int>(Prefix.size()) < L &&
           "prefix must leave at least the final slot to search");
    Chosen.clear();
    Replay = &Prefix;
    bool Found = replayStep(0, 0.0);
    Replay = nullptr;
    if (Found)
      Out = Solution;
    return Found;
  }

  bool timedOut() const { return TimedOutFlag; }
  bool aborted() const { return AbortedFlag; }
  long nodes() const { return Nodes; }

private:
  const KernelSpec &Spec;
  const Sketch &Sk;
  const SynthesisOptions &Opts;
  const std::vector<Example> &Examples;
  int L;
  double CostBound; // Infinity when unbounded.
  Stopwatch &Clock;
  size_t Width;
  uint64_t T;

  std::vector<int> MenuOrder;
  double MinMenuLatency = 0.0;

  // Search state (component-space value ids: inputs then slot results).
  std::vector<Fingerprint> Values;
  std::vector<int> MDepth;
  std::vector<int> UseCount;
  std::unordered_set<Fingerprint, FingerprintHash> Seen;
  Fingerprint Target;
  std::vector<ChosenInstr> Chosen;
  std::vector<ChosenInstr> Solution;
  /// Materialized rotations for CSE-aware latency: (value, amount) pairs.
  std::vector<std::pair<int, int>> RotationsUsed;

  /// Meet-in-the-middle index for the final slot: masked projection of
  /// every rotated value -> the (value, rotation) pairs producing it.
  std::vector<size_t> MaskedPositions;
  Fingerprint MaskedTarget;
  std::unordered_map<Fingerprint, std::vector<std::pair<int, int>>,
                     FingerprintHash>
      MaskedIndex;

  long Nodes = 0;
  bool TimedOutFlag = false;
  bool AbortedFlag = false;
  std::function<bool()> ExternalAbort;

  // Portfolio-search plumbing: prefix recording (collectPrefixes) and
  // prefix replay (runFromPrefix). Mutually exclusive; -1/null when the
  // search runs the plain sequential DFS.
  int PrefixDepth = -1;
  std::vector<std::vector<ChosenInstr>> *PrefixOut = nullptr;
  const std::vector<ChosenInstr> *Replay = nullptr;

  Fingerprint maskedProjection(const Fingerprint &F) const {
    Fingerprint Out;
    Out.reserve(MaskedPositions.size());
    for (size_t Pos : MaskedPositions)
      Out.push_back(F[Pos]);
    return Out;
  }

  /// Rotation amounts indexed for a value: identity plus the sketch set.
  std::vector<int> indexedRotations() const {
    std::vector<int> Rots = {0};
    if (!Sk.ExplicitRotations)
      for (int A : Sk.Rotations.amounts())
        Rots.push_back(A);
    return Rots;
  }

  void indexValue(int Id) {
    for (int Rot : indexedRotations())
      MaskedIndex[maskedProjection(rotated(Id, Rot))].emplace_back(Id, Rot);
  }

  void unindexValue(int Id) {
    for (int Rot : indexedRotations()) {
      auto It = MaskedIndex.find(maskedProjection(rotated(Id, Rot)));
      assert(It != MaskedIndex.end() && "unindexing a value never indexed");
      auto &Vec = It->second;
      for (size_t I = Vec.size(); I-- > 0;) {
        if (Vec[I].first == Id && Vec[I].second == Rot) {
          Vec.erase(Vec.begin() + I);
          break;
        }
      }
      if (Vec.empty())
        MaskedIndex.erase(It);
    }
  }

  int unusedDefined() const {
    int Count = 0;
    for (size_t I = Sk.NumInputs; I < UseCount.size(); ++I)
      if (UseCount[I] == 0)
        ++Count;
    return Count;
  }

  bool checkTime() {
    if (TimedOutFlag || AbortedFlag)
      return true;
    // The abort poll is an atomic load or two, so it can run at a finer
    // cadence than the clock read; both piggyback on the node counter.
    if ((Nodes & 0xff) == 0 && ExternalAbort && ExternalAbort()) {
      AbortedFlag = true;
      return true;
    }
    if ((Nodes & 0xfff) == 0 && Clock.seconds() > Opts.TimeoutSeconds)
      TimedOutFlag = true;
    return TimedOutFlag;
  }

  /// Recomputes the placement data (value fingerprint, newly materialized
  /// latency, multiplicative depth) for an already-chosen instruction —
  /// the replay half of runFromPrefix(). Mirrors the three enumeration
  /// paths in dfs()/solveFinalAddSub() exactly, including the rotation-CSE
  /// latency rule.
  void candidateData(const ChosenInstr &CI, Fingerprint &F, double &NewLat,
                     int &Depth) const {
    if (CI.Op == Opcode::RotCt) {
      F = rotated(CI.Src0, CI.Rot0);
      NewLat = Opts.Latency.RotCt;
      Depth = MDepth[CI.Src0];
      return;
    }
    if (isCtPt(CI.Op)) {
      F = applyPt(CI.Op, rotated(CI.Src0, CI.Rot0), CI.PtIdx);
      NewLat = Opts.Latency.latencyOf(CI.Op) + rotationCost(CI.Src0, CI.Rot0);
      Depth = MDepth[CI.Src0] + (isMultiply(CI.Op) ? 1 : 0);
      return;
    }
    F = applyArith(CI.Op, rotated(CI.Src0, CI.Rot0),
                   rotated(CI.Src1, CI.Rot1));
    NewLat = Opts.Latency.latencyOf(CI.Op) + rotationCost(CI.Src0, CI.Rot0);
    if (CI.Rot1 != 0 && !(CI.Src1 == CI.Src0 && CI.Rot1 == CI.Rot0))
      NewLat += rotationCost(CI.Src1, CI.Rot1);
    Depth = std::max(MDepth[CI.Src0], MDepth[CI.Src1]) +
            (isMultiply(CI.Op) ? 1 : 0);
  }

  /// Places the next replayed instruction and continues (further replay or
  /// live search) through place()'s normal recursion dispatch.
  bool replayStep(int Slot, double LatAcc) {
    const ChosenInstr &CI = (*Replay)[Slot];
    Fingerprint F;
    double NewLat;
    int Depth;
    candidateData(CI, F, NewLat, Depth);
    ++Nodes;
    return place(Slot, LatAcc, CI, F, NewLat, Depth);
  }

  /// Fingerprint of value \p Src rotated left by \p Rot (0 = identity;
  /// negative = right), written into \p Out (no allocation when Out has
  /// capacity).
  void rotatedInto(int Src, int Rot, Fingerprint &Out) const {
    const Fingerprint &In = Values[Src];
    if (Rot == 0) {
      Out = In;
      return;
    }
    long Norm = Rot % static_cast<long>(Width);
    if (Norm < 0)
      Norm += Width;
    Out.resize(In.size());
    size_t NumEx = Examples.size();
    for (size_t E = 0; E < NumEx; ++E)
      for (size_t J = 0; J < Width; ++J)
        Out[E * Width + J] = In[E * Width + (J + Norm) % Width];
  }

  Fingerprint rotated(int Src, int Rot) const {
    Fingerprint Out;
    rotatedInto(Src, Rot, Out);
    return Out;
  }

  void applyArithInto(Opcode Op, const Fingerprint &A, const Fingerprint &B,
                      Fingerprint &Out) const {
    Out.resize(A.size());
    switch (Op) {
    case Opcode::AddCtCt:
      for (size_t J = 0; J < A.size(); ++J)
        Out[J] = addMod(A[J], B[J], T);
      break;
    case Opcode::SubCtCt:
      for (size_t J = 0; J < A.size(); ++J)
        Out[J] = subMod(A[J], B[J], T);
      break;
    case Opcode::MulCtCt:
      for (size_t J = 0; J < A.size(); ++J)
        Out[J] = mulMod(A[J], B[J], T);
      break;
    default:
      assert(false && "not a ct-ct opcode");
    }
  }

  Fingerprint applyArith(Opcode Op, const Fingerprint &A,
                         const Fingerprint &B) const {
    Fingerprint Out;
    applyArithInto(Op, A, B, Out);
    return Out;
  }

  Fingerprint applyPt(Opcode Op, const Fingerprint &A, int PtIdx) const {
    const PlainConstant &C = Sk.Constants[PtIdx];
    Fingerprint Out(A.size());
    for (size_t E = 0; E < Examples.size(); ++E) {
      for (size_t J = 0; J < Width; ++J) {
        uint64_t CV = toResidue(C.at(J), T);
        uint64_t AV = A[E * Width + J];
        size_t K = E * Width + J;
        switch (Op) {
        case Opcode::AddCtPt:
          Out[K] = addMod(AV, CV, T);
          break;
        case Opcode::SubCtPt:
          Out[K] = subMod(AV, CV, T);
          break;
        case Opcode::MulCtPt:
          Out[K] = mulMod(AV, CV, T);
          break;
        default:
          assert(false && "not a ct-pt opcode");
        }
      }
    }
    return Out;
  }

  /// True when \p F matches the target on every constrained slot.
  bool matchesTarget(const Fingerprint &F) const {
    for (size_t E = 0; E < Examples.size(); ++E)
      for (size_t J = 0; J < Width; ++J)
        if (Spec.outputSlotMatters(J) &&
            F[E * Width + J] != Target[E * Width + J])
          return false;
    return true;
  }

  /// Latency of materializing rotation (Src, Rot) if not already CSE'd.
  double rotationCost(int Src, int Rot) const {
    if (Rot == 0)
      return 0.0;
    for (const auto &[S, R] : RotationsUsed)
      if (S == Src && R == Rot)
        return 0.0;
    return Opts.Latency.RotCt;
  }

  /// Places the instruction, recurses, and undoes. \p NewLatency includes
  /// the op and any newly materialized rotations.
  bool place(int Slot, double LatAcc, const ChosenInstr &CI,
             const Fingerprint &F, double NewLatency, int ResultDepth) {
    bool Final = Slot == L - 1;
    double Lat = LatAcc + NewLatency;

    // SSA symmetry break: if this instruction does not consume the
    // previous slot's result, the two are independent and only the sorted
    // order is explored. (At the final slot the previous result would
    // otherwise be dead, which the dead-value check rejects anyway.)
    if (Slot > 0 && !Final) {
      int PrevId = static_cast<int>(Values.size()) - 1;
      bool UsesPrev = CI.Src0 == PrevId || (isCtCt(CI.Op) && CI.Src1 == PrevId);
      if (!UsesPrev && CI < Chosen.back())
        return false;
    }

    if (Final) {
      if (!matchesTarget(F))
        return false;
      if (Lat * (1.0 + ResultDepth) >= CostBound)
        return false;
    } else {
      // Optimistic completion bound.
      if ((Lat + (L - 1 - Slot) * MinMenuLatency) >= CostBound)
        return false;
      if (Seen.count(F))
        return false;
    }

    // Dead-value bound: every defined-but-unused value must be consumed by
    // a later slot (<= 2 uses per slot); the final result is the output.
    ++UseCount[CI.Src0];
    bool UsesSecond = isCtCt(CI.Op);
    if (UsesSecond)
      ++UseCount[CI.Src1];
    int Unused = unusedDefined() + (Final ? 0 : 1);
    if (Unused > 2 * (L - 1 - Slot)) {
      --UseCount[CI.Src0];
      if (UsesSecond)
        --UseCount[CI.Src1];
      return false;
    }
    if (Final) {
      // All defined values must feed the computation.
      if (Unused != 0) {
        --UseCount[CI.Src0];
        if (UsesSecond)
          --UseCount[CI.Src1];
        return false;
      }
      Solution = Chosen;
      Solution.push_back(CI);
      --UseCount[CI.Src0];
      if (UsesSecond)
        --UseCount[CI.Src1];
      return true;
    }

    // Commit.
    size_t RotMark = RotationsUsed.size();
    if (CI.Rot0 != 0)
      if (rotationCost(CI.Src0, CI.Rot0) > 0.0)
        RotationsUsed.emplace_back(CI.Src0, CI.Rot0);
    if (UsesSecond && CI.Rot1 != 0)
      if (rotationCost(CI.Src1, CI.Rot1) > 0.0)
        RotationsUsed.emplace_back(CI.Src1, CI.Rot1);
    Values.push_back(F); // Copy on commit only; callers pass scratch.
    Seen.insert(Values.back());
    MDepth.push_back(ResultDepth);
    UseCount.push_back(0);
    Chosen.push_back(CI);
    int NewId = static_cast<int>(Values.size()) - 1;
    indexValue(NewId);

    bool Found;
    if (PrefixOut && Slot + 1 == PrefixDepth) {
      // Prefix collection: record the surviving partial assignment (Chosen
      // already includes CI) as one portfolio task and keep enumerating
      // siblings instead of recursing.
      PrefixOut->push_back(Chosen);
      Found = false;
    } else if (Replay && Slot + 1 < static_cast<int>(Replay->size())) {
      Found = replayStep(Slot + 1, Lat);
    } else {
      Found = dfs(Slot + 1, Lat);
    }

    // Undo.
    unindexValue(NewId);
    Chosen.pop_back();
    UseCount.pop_back();
    MDepth.pop_back();
    Seen.erase(Values.back());
    Values.pop_back();
    RotationsUsed.resize(RotMark);
    --UseCount[CI.Src0];
    if (UsesSecond)
      --UseCount[CI.Src1];
    return Found;
  }

  /// Rotation choices for an operand hole: none, then the allowed amounts.
  void forEachRotation(OperandKind Kind, const std::function<void(int)> &Fn) {
    Fn(0);
    if (Kind != OperandKind::CtR || Sk.ExplicitRotations)
      return;
    for (int A : Sk.Rotations.amounts())
      Fn(A);
  }

  /// Meet-in-the-middle solving of the final slot for a ct-ct add/sub
  /// component: enumerate one operand, derive the other's required masked
  /// projection, and look it up in the index. Turns the quadratic final
  /// level into a linear one.
  bool solveFinalAddSub(int Slot, double LatAcc, const Component &Comp) {
    assert(Comp.Op == Opcode::AddCtCt || Comp.Op == Opcode::SubCtCt);
    bool Commutes = isCommutative(Comp.Op);
    double OpLat = Opts.Latency.latencyOf(Comp.Op);
    int NumVals = static_cast<int>(Values.size());
    uint64_t Modulus = T;

    bool Found = false;
    for (int Src1 = 0; Src1 < NumVals && !Found; ++Src1) {
      forEachRotation(Comp.Kind1, [&](int Rot1) {
        if (Found || checkTime())
          return;
        ++Nodes;
        Fingerprint B = rotated(Src1, Rot1);
        // Required masked projection of the rotated first operand:
        // add: x = target - y; sub: x = target + y.
        Fingerprint Need(MaskedPositions.size());
        for (size_t I = 0; I < MaskedPositions.size(); ++I) {
          uint64_t BV = B[MaskedPositions[I]];
          Need[I] = Comp.Op == Opcode::AddCtCt
                        ? subMod(MaskedTarget[I], BV, Modulus)
                        : addMod(MaskedTarget[I], BV, Modulus);
        }
        auto It = MaskedIndex.find(Need);
        if (It == MaskedIndex.end())
          return;
        // Copy: place() mutates the index on success paths.
        auto Hits = It->second;
        for (auto [Src0, Rot0] : Hits) {
          if (Found)
            break;
          if (Rot0 != 0 && (Comp.Kind0 != OperandKind::CtR ||
                            Sk.ExplicitRotations))
            continue;
          if (Commutes &&
              (Src1 < Src0 || (Src1 == Src0 && Rot1 < Rot0)))
            continue;
          ChosenInstr CI;
          CI.Op = Comp.Op;
          CI.Src0 = Src0;
          CI.Rot0 = Rot0;
          CI.Src1 = Src1;
          CI.Rot1 = Rot1;
          Fingerprint F = applyArith(Comp.Op, rotated(Src0, Rot0), B);
          // Latency/depth formula mirrored in candidateData(); keep in
          // sync or prefix replay diverges from collection-time pruning.
          double NewLat = OpLat + rotationCost(Src0, Rot0);
          if (Rot1 != 0 && !(Src1 == Src0 && Rot1 == Rot0))
            NewLat += rotationCost(Src1, Rot1);
          int Depth = std::max(MDepth[Src0], MDepth[Src1]) +
                      (isMultiply(Comp.Op) ? 1 : 0);
          if (place(Slot, LatAcc, CI, F, NewLat, Depth))
            Found = true;
        }
      });
      if (TimedOutFlag)
        return Found;
    }
    return Found;
  }

  bool dfs(int Slot, double LatAcc) {
    if (checkTime())
      return false;
    int NumVals = static_cast<int>(Values.size());

    // Explicit-rotation mode: standalone rotation components.
    if (Sk.ExplicitRotations && Slot != L - 1) {
      for (int Src = 0; Src < NumVals; ++Src) {
        for (int A : Sk.Rotations.amounts()) {
          ++Nodes;
          if (checkTime())
            return false;
          ChosenInstr CI;
          CI.Op = Opcode::RotCt;
          CI.Src0 = Src;
          CI.Rot0 = A;
          Fingerprint F = rotated(Src, A);
          if (place(Slot, LatAcc, CI, F, Opts.Latency.RotCt,
                    MDepth[Src]))
            return true;
        }
      }
    }

    bool Final = Slot == L - 1;
    for (int MenuIdx : MenuOrder) {
      const Component &Comp = Sk.Menu[MenuIdx];
      double OpLat = Opts.Latency.latencyOf(Comp.Op);
      // At the final slot, ct-ct add/sub components are solved by index
      // lookup instead of quadratic enumeration.
      if (Final &&
          (Comp.Op == Opcode::AddCtCt || Comp.Op == Opcode::SubCtCt)) {
        if (solveFinalAddSub(Slot, LatAcc, Comp))
          return true;
        if (TimedOutFlag)
          return false;
        continue;
      }
      if (isCtPt(Comp.Op)) {
        for (int Src = 0; Src < NumVals; ++Src) {
          bool Stop = false;
          forEachRotation(Comp.Kind0, [&](int Rot) {
            if (Stop || checkTime())
              return;
            ++Nodes;
            ChosenInstr CI;
            CI.Op = Comp.Op;
            CI.PtIdx = Comp.PtIdx;
            CI.Src0 = Src;
            CI.Rot0 = Rot;
            Fingerprint F = applyPt(Comp.Op, rotated(Src, Rot), Comp.PtIdx);
            // Mirrored in candidateData(); keep in sync.
            double NewLat = OpLat + rotationCost(Src, Rot);
            int Depth = MDepth[Src] + (isMultiply(Comp.Op) ? 1 : 0);
            if (place(Slot, LatAcc, CI, F, NewLat, Depth))
              Stop = true;
          });
          if (Stop)
            return true;
          if (TimedOutFlag)
            return false;
        }
        continue;
      }

      // ct-ct opcodes.
      bool Commutes = isCommutative(Comp.Op);
      for (int Src0 = 0; Src0 < NumVals; ++Src0) {
        bool Stop = false;
        forEachRotation(Comp.Kind0, [&](int Rot0) {
          if (Stop || checkTime())
            return;
          // A spans recursive calls below, so it stays a per-level local;
          // B and F are per-candidate scratch reused across iterations.
          Fingerprint A = rotated(Src0, Rot0);
          Fingerprint B, F;
          for (int Src1 = 0; Src1 < NumVals && !Stop; ++Src1) {
            forEachRotation(Comp.Kind1, [&](int Rot1) {
              if (Stop || checkTime())
                return;
              // Symmetry breaking for commutative ops: enforce
              // (Src0, Rot0) <= (Src1, Rot1).
              if (Commutes && (Src1 < Src0 || (Src1 == Src0 && Rot1 < Rot0)))
                return;
              ++Nodes;
              ChosenInstr CI;
              CI.Op = Comp.Op;
              CI.Src0 = Src0;
              CI.Rot0 = Rot0;
              CI.Src1 = Src1;
              CI.Rot1 = Rot1;
              rotatedInto(Src1, Rot1, B);
              applyArithInto(Comp.Op, A, B, F);
              // Mirrored in candidateData(); keep in sync.
              double NewLat = OpLat + rotationCost(Src0, Rot0);
              // Second rotation may CSE with the first.
              if (Rot1 != 0 && !(Src1 == Src0 && Rot1 == Rot0))
                NewLat += rotationCost(Src1, Rot1);
              int Depth = std::max(MDepth[Src0], MDepth[Src1]) +
                          (isMultiply(Comp.Op) ? 1 : 0);
              if (place(Slot, LatAcc, CI, F, NewLat, Depth))
                Stop = true;
            });
          }
        });
        if (Stop)
          return true;
        if (TimedOutFlag)
          return false;
      }
    }
    return false;
  }
};

/// Lowers a filled sketch to a Quill program, materializing operand
/// rotations as rot-ct instructions with CSE.
Program lowerChosen(const Sketch &Sk, const std::vector<ChosenInstr> &Chosen) {
  Program P;
  P.NumInputs = Sk.NumInputs;
  P.VectorSize = Sk.VectorSize;
  P.Constants = Sk.Constants;

  // Component-space value id -> program value id.
  std::vector<int> ValueMap;
  for (int I = 0; I < Sk.NumInputs; ++I)
    ValueMap.push_back(I);

  std::map<std::pair<int, int>, int> RotCse;
  auto MaterializeOperand = [&](int Src, int Rot) -> int {
    int Pid = ValueMap[Src];
    if (Rot == 0)
      return Pid;
    auto Key = std::make_pair(Pid, Rot);
    auto It = RotCse.find(Key);
    if (It != RotCse.end())
      return It->second;
    int NewId = P.append(Instr::rot(Pid, Rot));
    RotCse.emplace(Key, NewId);
    return NewId;
  };

  for (const ChosenInstr &CI : Chosen) {
    if (CI.Op == Opcode::RotCt) {
      int Pid = ValueMap[CI.Src0];
      int NewId = P.append(Instr::rot(Pid, CI.Rot0));
      RotCse.emplace(std::make_pair(Pid, CI.Rot0), NewId);
      ValueMap.push_back(NewId);
      continue;
    }
    int A = MaterializeOperand(CI.Src0, CI.Rot0);
    if (isCtPt(CI.Op)) {
      ValueMap.push_back(P.append(Instr::ctPt(CI.Op, A, CI.PtIdx)));
      continue;
    }
    int B = MaterializeOperand(CI.Src1, CI.Rot1);
    ValueMap.push_back(P.append(Instr::ctCt(CI.Op, A, B)));
  }
  return P;
}

Example makeExample(const KernelSpec &Spec,
                    std::vector<std::vector<uint64_t>> Inputs, uint64_t T) {
  Example E;
  E.Output = Spec.evalConcrete(Inputs, T);
  E.Inputs = std::move(Inputs);
  return E;
}

/// Outcome of one solve query (a single sketch size L, example set, and
/// cost bound) — the unit the paper hands to the SMT solver and the unit
/// this reproduction fans out across the thread pool.
struct QueryResult {
  bool Sat = false;
  std::vector<ChosenInstr> Chosen;
  bool TimedOut = false;
};

/// Runs one solve query sequentially on the calling thread.
QueryResult runQuerySequential(const KernelSpec &Spec, const Sketch &Sk,
                               const SynthesisOptions &Opts,
                               const std::vector<Example> &Examples, int L,
                               double CostBound, Stopwatch &Clock,
                               SynthesisStats &Stats) {
  Search S(Spec, Sk, Opts, Examples, L, CostBound, Clock);
  QueryResult Q;
  Q.Sat = S.run(Q.Chosen);
  Q.TimedOut = S.timedOut();
  Stats.NodesExplored += S.nodes();
  Stats.NodesPerThread[0] += S.nodes();
  return Q;
}

/// Runs one solve query as a parallel portfolio over \p Pool:
///
///   1. Enumerate the first level once, collecting every surviving
///      single-instruction prefix in sequential DFS order — the task
///      list. Depth 1 is deliberate: level-0 enumeration is trivially
///      cheap, while a depth-2 generation pass would serially re-run the
///      level-1 enumeration that dominates several kernels' search time
///      (measured: it roughly doubled total work on the Sobel kernels).
///      One slot-0 candidate per task still yields dozens-to-hundreds of
///      tasks, and the shared pool queue balances their uneven subtrees.
///   2. Every task replays its prefix and searches the remaining slots
///      independently; an atomic lowest-solution index plus a stop token
///      cancel any worker whose subtree has been outrun.
///   3. The winner is the lowest-indexed prefix containing a solution —
///      precisely the solution the sequential DFS reaches first, so the
///      outcome is independent of worker count and scheduling.
///
/// Tasks before the winning index always run to completion (a later, but
/// lower-indexed, solution must win), and the call returns only after
/// every task finished — the captured spec/sketch/example state may be
/// mutated by the caller the moment this returns.
///
/// A query that times out anywhere reports TimedOut with no solution,
/// like the sequential path. (Under deadline pressure the portfolio can
/// cover more of the space than one thread would — that is the point —
/// so timeout-bound runs may legitimately differ from Threads=1.)
QueryResult runQueryPortfolio(const KernelSpec &Spec, const Sketch &Sk,
                              const SynthesisOptions &Opts,
                              const std::vector<Example> &Examples, int L,
                              double CostBound, Stopwatch &Clock,
                              ThreadPool &Pool, SynthesisStats &Stats) {
  QueryResult Q;

  std::vector<std::vector<ChosenInstr>> Prefixes;
  {
    Search G(Spec, Sk, Opts, Examples, L, CostBound, Clock);
    G.collectPrefixes(1, Prefixes);
    Stats.NodesExplored += G.nodes();
    Stats.NodesPerThread[0] += G.nodes();
    if (G.timedOut()) {
      Q.TimedOut = true;
      return Q;
    }
  }
  if (Prefixes.empty())
    return Q; // Every prefix pruned: UNSAT without ever going deep.
  if (Prefixes.size() == 1) {
    // One surviving subtree: search it on the calling thread, reusing the
    // level-1 enumeration the generation pass already paid for.
    Search S(Spec, Sk, Opts, Examples, L, CostBound, Clock);
    Q.Sat = S.runFromPrefix(Prefixes.front(), Q.Chosen);
    Q.TimedOut = S.timedOut();
    Stats.NodesExplored += S.nodes();
    Stats.NodesPerThread[0] += S.nodes();
    return Q;
  }

  const int NumTasks = static_cast<int>(Prefixes.size());
  std::mutex M;
  std::condition_variable AllDone;
  std::atomic<int> Best{INT_MAX};
  CancellationSource Cancel;
  std::vector<ChosenInstr> BestChosen;
  std::vector<long> NodesByTask(NumTasks, 0);
  int DoneCount = 0;
  /// Lowest index whose subtree was NOT searched to completion (timed
  /// out, aborted, or skipped), and whether any task genuinely hit the
  /// wall-clock deadline. Tasks cut short because a lower-indexed winner
  /// outran them also land in MinPartialIdx, but harmlessly: their index
  /// is by construction above the final winner, so they can never demote
  /// a solution (Best only ever decreases).
  int MinPartialIdx = INT_MAX;
  bool AnyTimeout = false;

  for (int J = 0; J < NumTasks; ++J) {
    bool Submitted = Pool.submit([&, J](unsigned Worker) {
      CancellationToken Tok = Cancel.token();
      long TaskNodes = 0;
      bool Sat = false, TOut = false, Completed = false;
      std::vector<ChosenInstr> Out;
      // Tasks the winner already outran skip without building a Search.
      if (!Tok.stopRequested() &&
          Best.load(std::memory_order_relaxed) > J) {
        Search S(Spec, Sk, Opts, Examples, L, CostBound, Clock);
        S.setAbort([&Tok, &Best, J] {
          return Tok.stopRequested() ||
                 Best.load(std::memory_order_relaxed) < J;
        });
        Sat = S.runFromPrefix(Prefixes[J], Out);
        TOut = S.timedOut();
        Completed = !TOut && !S.aborted();
        TaskNodes = S.nodes();
      }
      std::lock_guard<std::mutex> LG(M);
      NodesByTask[J] = TaskNodes;
      Stats.NodesPerThread[Worker] += TaskNodes;
      if (TOut) {
        AnyTimeout = true;
        Cancel.requestStop();
      }
      if (Sat && J < Best.load(std::memory_order_relaxed)) {
        Best.store(J, std::memory_order_relaxed);
        BestChosen = std::move(Out);
      } else if (!Completed && !Sat) {
        MinPartialIdx = std::min(MinPartialIdx, J);
      }
      ++DoneCount;
      AllDone.notify_all();
    });
    assert(Submitted && "portfolio pool rejected a task");
    (void)Submitted;
  }

  std::unique_lock<std::mutex> LK(M);
  AllDone.wait(LK, [&] { return DoneCount == NumTasks; });
  // A solution stands only when it is lower-indexed than every subtree
  // that was not searched to completion: the sequential DFS reaches
  // subtrees in index order, so it would have returned that solution
  // before ever entering the partial ones. An incomplete subtree at or
  // below the winning index means sequential could have found something
  // earlier (or stalled first) — report the timeout instead, like the
  // sequential path does.
  int Winner = Best.load(std::memory_order_relaxed);
  // Tasks up to the winner always run to completion (or to the winning
  // solution), so their node counts do not depend on the schedule; the
  // tasks above it were cut short wherever their worker noticed.
  for (int J = 0; J < NumTasks; ++J)
    (J <= Winner ? Stats.NodesExplored : Stats.NodesDiscarded) +=
        NodesByTask[J];
  if (Winner < MinPartialIdx) {
    Q.Sat = true;
    Q.Chosen = std::move(BestChosen);
  } else if (AnyTimeout) {
    Q.TimedOut = true;
  }
  return Q;
}

/// One solve query under the options' threading policy. \p Pool is null
/// when Threads resolved to 1 (the exact sequential code path); L == 1
/// sketches have no prefix level to split on and stay sequential too.
QueryResult runQuery(const KernelSpec &Spec, const Sketch &Sk,
                     const SynthesisOptions &Opts,
                     const std::vector<Example> &Examples, int L,
                     double CostBound, Stopwatch &Clock, ThreadPool *Pool,
                     SynthesisStats &Stats) {
  if (!Pool || L < 2)
    return runQuerySequential(Spec, Sk, Opts, Examples, L, CostBound, Clock,
                              Stats);
  return runQueryPortfolio(Spec, Sk, Opts, Examples, L, CostBound, Clock,
                           *Pool, Stats);
}

} // namespace

SynthesisResult porcupine::synth::synthesize(const KernelSpec &Spec,
                                             const Sketch &Sk,
                                             const SynthesisOptions &Opts) {
  assert(Sk.VectorSize == Spec.vectorSize() && "sketch/spec width mismatch");
  assert(Sk.NumInputs == Spec.numInputs() && "sketch/spec input mismatch");

  SynthesisResult Result;
  Stopwatch Clock;
  std::clock_t CpuStart = std::clock();
  Rng R(Opts.Seed);
  uint64_t T = Opts.PlainModulus;
  CostModel Model(Opts.Latency);

  // Threading policy: 0 = auto (one worker per hardware thread), 1 = the
  // sequential code path with no pool at all, N = N pool workers. One pool
  // serves every query of the run; queries are fanned out one at a time.
  unsigned Threads = resolveThreadCount(Opts.Threads);
  std::unique_ptr<ThreadPool> Pool;
  if (Threads > 1)
    Pool = std::make_unique<ThreadPool>(Threads);
  Result.Stats.ThreadsUsed = static_cast<int>(Threads);
  Result.Stats.NodesPerThread.assign(Threads, 0);
  auto FinishStats = [&] {
    Result.Stats.TotalTimeSeconds = Clock.seconds();
    Result.Stats.CpuTimeSeconds =
        static_cast<double>(std::clock() - CpuStart) / CLOCKS_PER_SEC;
  };

  std::vector<Example> Examples;
  Examples.push_back(makeExample(Spec, Spec.randomInputs(R, T), T));

  auto Verify = [&](const Program &P) {
    return verifyProgram(P, Spec, T, R);
  };

  // Phase 1: find the smallest-L solution via CEGIS at each L.
  std::vector<ChosenInstr> Chosen;
  bool Found = false;
  for (int L = Opts.MinComponents; L <= Opts.MaxComponents && !Found; ++L) {
    for (;;) {
      QueryResult Sol = runQuery(Spec, Sk, Opts, Examples, L,
                                 /*CostBound=*/1e300, Clock, Pool.get(),
                                 Result.Stats);
      if (Sol.TimedOut) {
        Result.Stats.TimedOut = true;
        break;
      }
      if (!Sol.Sat)
        break; // No program with L components; deepen.
      Chosen = std::move(Sol.Chosen);
      Program Candidate = lowerChosen(Sk, Chosen);
      auto V = Verify(Candidate);
      if (V.Equivalent) {
        Result.Found = true;
        Result.Prog = Candidate;
        Result.Stats.ComponentsUsed = L;
        Found = true;
        break;
      }
      Examples.push_back(makeExample(Spec, std::move(V.Counterexample), T));
    }
    if (Result.Stats.TimedOut)
      break;
  }

  Result.Stats.ExamplesUsed = static_cast<int>(Examples.size());
  Result.Stats.InitialTimeSeconds = Clock.seconds();
  if (!Result.Found) {
    FinishStats();
    return Result;
  }
  Result.Stats.InitialCost = Model.cost(Result.Prog);
  Result.Stats.FinalCost = Result.Stats.InitialCost;
  Result.Stats.LoweredInstructions =
      static_cast<int>(Result.Prog.Instructions.size());

  // Phase 2: cost minimization within the same sketch size.
  if (Opts.Optimize) {
    int L = Result.Stats.ComponentsUsed;
    double Bound = Result.Stats.InitialCost;
    for (;;) {
      if (Clock.seconds() > Opts.TimeoutSeconds) {
        Result.Stats.TimedOut = true;
        break;
      }
      // The search accumulates latency incrementally while the cost model
      // sums per instruction; with profiled (non-round) latencies the two
      // float orders can disagree in the last bits. Shrink the bound by an
      // epsilon so "equal cost modulo rounding" never counts as progress.
      double Epsilon = std::max(1e-6, Bound * 1e-9);
      QueryResult Sol = runQuery(Spec, Sk, Opts, Examples, L, Bound - Epsilon,
                                 Clock, Pool.get(), Result.Stats);
      if (Sol.TimedOut) {
        Result.Stats.TimedOut = true;
        break;
      }
      if (!Sol.Sat) {
        // The solver proved no cheaper program exists in this sketch.
        Result.Stats.ProvenOptimal = true;
        break;
      }
      Chosen = std::move(Sol.Chosen);
      Program Candidate = lowerChosen(Sk, Chosen);
      auto V = Verify(Candidate);
      if (!V.Equivalent) {
        Examples.push_back(makeExample(Spec, std::move(V.Counterexample), T));
        continue;
      }
      double NewCost = Model.cost(Candidate);
      assert(NewCost < Bound + 1e-3 &&
             "cost-bounded search returned a worse program");
      if (NewCost >= Bound)
        break; // Numerically equal under rounding: converged.
      Result.Prog = Candidate;
      Bound = NewCost;
    }
    Result.Stats.FinalCost = Bound;
    Result.Stats.LoweredInstructions =
        static_cast<int>(Result.Prog.Instructions.size());
  }

  Result.Stats.ExamplesUsed = static_cast<int>(Examples.size());
  FinishStats();
  return Result;
}
