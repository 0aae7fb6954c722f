//===- mir/Frequency.h - static execution frequency -------------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The model parameter Fb (Figure 3): how often each block executes.
/// Section 4.1 allows either profiling or a static estimate from the loop
/// depth; Section 6 shows the estimate is usually good enough. We provide
/// both: the static estimator here and profiled counts from sim/Trace.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_MIR_FREQUENCY_H
#define RAMLOC_MIR_FREQUENCY_H

#include "mir/CFG.h"
#include "mir/Loops.h"

#include <map>
#include <string>
#include <vector>

namespace ramloc {

/// Frequencies for one function, relative to a single invocation.
struct FunctionFrequency {
  /// Estimated executions of each block per function call.
  std::vector<double> BlockFreq;
  /// Estimated taken probability of each block's conditional terminator
  /// (1.0 for unconditional branches; unused otherwise).
  std::vector<double> TakenProb;
};

/// Whole-program frequencies: per (function, block) absolute counts.
struct ModuleFrequency {
  /// Outer index = function index in the module, inner = block index.
  std::vector<std::vector<double>> BlockFreq;
  /// Taken probability per (function, block).
  std::vector<std::vector<double>> TakenProb;
  /// Estimated invocations of each function.
  std::vector<double> CallCount;
};

/// Loop-depth-based estimate of per-call block frequencies for \p F:
/// each loop level iterates 10 times (Fb ~ 10^depth), a loop's back edge
/// is taken with probability 0.9 and any other conditional branch with
/// 0.5.
FunctionFrequency estimateFunctionFrequency(const Function &F, const CFG &G,
                                            const LoopInfo &LI);

/// Whole-module estimate: combines per-function estimates through the call
/// graph (entry function called once). Recursion is handled by a damped
/// fixed-point iteration.
ModuleFrequency estimateModuleFrequency(const Module &M);

/// Builds a ModuleFrequency from measured per-block execution counts (the
/// "w/Frequency" variant in Figure 5). \p Counts maps "func:label" to the
/// observed execution count. Taken probabilities are estimated statically.
ModuleFrequency
moduleFrequencyFromProfile(const Module &M,
                           const std::map<std::string, uint64_t> &Counts);

} // namespace ramloc

#endif // RAMLOC_MIR_FREQUENCY_H
