//===- mir/Frequency.cpp - static execution frequency -------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "mir/Frequency.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace ramloc;

namespace {

/// The static estimator's assumptions: iterations per loop level (Fb ~
/// Iter^depth), the taken probability of a loop back edge, and that of
/// any other conditional branch.
constexpr double LoopIterations = 10.0;
constexpr double BackEdgeProb = 0.9;
constexpr double NeutralProb = 0.5;

} // namespace

FunctionFrequency
ramloc::estimateFunctionFrequency(const Function &F, const CFG &G,
                                  const LoopInfo &LI) {
  FunctionFrequency FF;
  unsigned N = F.Blocks.size();
  FF.BlockFreq.assign(N, 0.0);
  FF.TakenProb.assign(N, 1.0);

  for (unsigned B = 0; B != N; ++B) {
    if (!G.isReachable(B))
      continue;
    FF.BlockFreq[B] =
        std::pow(LoopIterations, static_cast<double>(LI.depth(B)));

    const BlockEdges &E = G.edges(B);
    if (E.Term != TermKind::Cond && E.Term != TermKind::CmpBranch)
      continue;
    assert(E.TakenSucc >= 0 && E.FallSucc >= 0 && "cond without targets");
    unsigned Taken = static_cast<unsigned>(E.TakenSucc);
    unsigned Fall = static_cast<unsigned>(E.FallSucc);
    if (LI.isBackEdge(B, Taken))
      FF.TakenProb[B] = BackEdgeProb;
    else if (LI.isBackEdge(B, Fall))
      FF.TakenProb[B] = 1.0 - BackEdgeProb;
    else if (LI.isExitEdge(B, Taken) && !LI.isExitEdge(B, Fall))
      FF.TakenProb[B] = 1.0 - BackEdgeProb;
    else if (LI.isExitEdge(B, Fall) && !LI.isExitEdge(B, Taken))
      FF.TakenProb[B] = BackEdgeProb;
    else
      FF.TakenProb[B] = NeutralProb;
  }
  return FF;
}

namespace {

/// Static call multiplicities: Calls[f][g] = expected `bl g` executions per
/// invocation of f.
std::vector<std::vector<double>>
countCallsPerInvocation(const Module &M,
                        const std::vector<FunctionFrequency> &Local) {
  unsigned NF = M.Functions.size();
  std::vector<std::vector<double>> Calls(NF, std::vector<double>(NF, 0.0));
  for (unsigned F = 0; F != NF; ++F) {
    const Function &Fn = M.Functions[F];
    for (unsigned B = 0, NB = Fn.Blocks.size(); B != NB; ++B) {
      for (const Instr &I : Fn.Blocks[B].Instrs) {
        if (I.Kind != OpKind::Bl)
          continue;
        int G = M.functionIndex(I.Sym);
        assert(G >= 0 && "call to unknown function");
        Calls[F][static_cast<unsigned>(G)] += Local[F].BlockFreq[B];
      }
    }
  }
  return Calls;
}

} // namespace

ModuleFrequency ramloc::estimateModuleFrequency(const Module &M) {
  ModuleFrequency MF;
  unsigned NF = M.Functions.size();
  MF.BlockFreq.resize(NF);
  MF.TakenProb.resize(NF);
  MF.CallCount.assign(NF, 0.0);

  std::vector<FunctionFrequency> Local(NF);
  for (unsigned F = 0; F != NF; ++F) {
    const Function &Fn = M.Functions[F];
    CFG G = CFG::build(Fn);
    DominatorTree DT = DominatorTree::build(G);
    LoopInfo LI = LoopInfo::build(G, DT);
    Local[F] = estimateFunctionFrequency(Fn, G, LI);
  }

  auto Calls = countCallsPerInvocation(M, Local);

  int Entry = M.functionIndex(M.EntryFunction);
  assert(Entry >= 0 && "entry function not found");

  // Fixed point: CallCount = e + Calls^T * CallCount. Converges in one pass
  // for acyclic call graphs processed repeatedly; recursion is capped by
  // the iteration limit (none of the provided workloads recurse).
  constexpr unsigned MaxIters = 20;
  constexpr double CountCap = 1e12;
  for (unsigned Iter = 0; Iter != MaxIters; ++Iter) {
    std::vector<double> Next(NF, 0.0);
    Next[static_cast<unsigned>(Entry)] = 1.0;
    for (unsigned F = 0; F != NF; ++F)
      for (unsigned G = 0; G != NF; ++G)
        Next[G] += MF.CallCount[F] * Calls[F][G];
    for (double &V : Next)
      V = std::min(V, CountCap);
    if (Next == MF.CallCount)
      break;
    MF.CallCount = std::move(Next);
  }

  for (unsigned F = 0; F != NF; ++F) {
    unsigned NB = M.Functions[F].Blocks.size();
    MF.BlockFreq[F].assign(NB, 0.0);
    for (unsigned B = 0; B != NB; ++B)
      MF.BlockFreq[F][B] = MF.CallCount[F] * Local[F].BlockFreq[B];
    MF.TakenProb[F] = Local[F].TakenProb;
  }
  return MF;
}

ModuleFrequency ramloc::moduleFrequencyFromProfile(
    const Module &M, const std::map<std::string, uint64_t> &Counts) {
  // Start from the static estimate to inherit the taken probabilities,
  // then overwrite block frequencies with measured counts.
  ModuleFrequency MF = estimateModuleFrequency(M);
  for (unsigned F = 0, NF = M.Functions.size(); F != NF; ++F) {
    const Function &Fn = M.Functions[F];
    for (unsigned B = 0, NB = Fn.Blocks.size(); B != NB; ++B) {
      auto It = Counts.find(Fn.Name + ":" + Fn.Blocks[B].Label);
      MF.BlockFreq[F][B] =
          It == Counts.end() ? 0.0 : static_cast<double>(It->second);
    }
    MF.CallCount[F] = Fn.Blocks.empty() ? 0.0 : MF.BlockFreq[F][0];
  }
  return MF;
}
