//===- tests/KnobSweepTest.cpp - knob-space differential sweep -----------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
// Byte-identity over the knob space, not only on the fixed CI grids. Each
// seed draws a small campaign grid — 2-3 benchmarks, O1 and O2, 1-2
// devices, Rspare in [64, 2048] and Xlimit in [1.01, 2.0] with the tight
// corners over-weighted — and runs it, in Measure and in model-only mode,
// under every reuse setting against the reference with every layer off
// (`--reuse=none`: each job solved cold and simulated in full):
//
//   - every layer on, at --jobs=1 and 4;
//   - each subset with exactly one layer off;
//   - a result cache pre-filled with a seeded subset of the reference's
//     rows, at --jobs=1 and 4. A cached row drops its knob point from its
//     solve group, so twin groups (same ILP) visit different points.
//
// Every row must carry the reference's numbers (changedMetrics, what
// `--diff` compares) and its label, and no label may be degraded: no
// solver limit is set, so every solve proves optimality. The reference
// itself is checked against exhaustive enumeration (core/Enumerator):
// wherever a model has at most 20 movable blocks, every row's model
// energy is the least over all placements that fit its knobs.
//
//===----------------------------------------------------------------------===//

#include "beebs/Beebs.h"
#include "campaign/Campaign.h"
#include "campaign/Report.h"
#include "core/Enumerator.h"
#include "core/Pipeline.h"
#include "power/DeviceRegistry.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

using namespace ramloc;

namespace {

/// \p N distinct entries of \p From in a seeded order.
std::vector<std::string> drawDistinct(SplitMix64 &Rng,
                                      std::vector<std::string> From,
                                      size_t N) {
  for (size_t I = From.size(); I > 1; --I)
    std::swap(From[I - 1], From[Rng.nextBelow(I)]);
  From.resize(N);
  return From;
}

/// A knob value in [Lo, Hi], from the tight end [Lo, TightHi] with
/// probability 0.4.
double drawKnob(SplitMix64 &Rng, double Lo, double TightHi, double Hi) {
  double Top = Rng.nextBool(0.4) ? TightHi : Hi;
  return Lo + Rng.nextDouble() * (Top - Lo);
}

GridSpec drawGrid(uint64_t Seed) {
  SplitMix64 Rng(Seed);
  GridSpec Grid;
  Grid.Benchmarks = drawDistinct(Rng, beebsNames(), 2 + Rng.nextBelow(2));
  Grid.Levels = {OptLevel::O1, OptLevel::O2};
  Grid.Devices = drawDistinct(Rng, deviceNames(), 1 + Rng.nextBelow(2));
  // Short runs keep the all-simulated reference cheap.
  Grid.Repeat = 1;
  for (unsigned K = 2 + Rng.nextBelow(2); K != 0; --K)
    Grid.RsparePoints.push_back(
        static_cast<unsigned>(drawKnob(Rng, 64, 160, 2048)));
  for (unsigned K = 2; K != 0; --K)
    Grid.XlimitPoints.push_back(
        std::round(drawKnob(Rng, 1.01, 1.1, 2.0) * 1000) / 1000);
  return Grid;
}

/// Campaign options with the named reuse layers on (`--reuse=LIST`).
CampaignOptions reuse(bool Cache, bool Profile, bool Solve) {
  CampaignOptions Opts;
  Opts.UseCache = Cache;
  Opts.ReuseProfiles = Profile;
  Opts.Base.Solver.WarmNodes = Solve;
  return Opts;
}

/// Every row of \p Run against the reference's row for the same job.
void expectMatchesReference(const CampaignResult &Ref,
                            const CampaignResult &Run) {
  ASSERT_EQ(Run.Results.size(), Ref.Results.size());
  for (size_t I = 0; I != Ref.Results.size(); ++I) {
    const JobResult &Want = Ref.Results[I], &Got = Run.Results[I];
    std::string Key = Want.Spec.cacheKey();
    EXPECT_EQ(Got.Spec.cacheKey(), Key);
    EXPECT_EQ(Got.Error, Want.Error) << Key;
    for (const MetricChange &C : changedMetrics(Want, Got))
      ADD_FAILURE() << Key << ": " << C.Name << " " << C.Old << " -> "
                    << C.New;
    EXPECT_EQ(solveStatusName(Got.SolveOutcome),
              solveStatusName(Want.SolveOutcome))
        << Key;
    if (Got.ok()) {
      EXPECT_EQ(Got.SolveOutcome, SolveStatus::Optimal) << Key;
    }
  }
}

/// The most movable blocks a model may have for the enumerator check
/// (2^20 placements).
constexpr unsigned MaxEnumeratedBlocks = 20;

/// Every placement of one model's movable blocks, priced by the model.
struct EnumeratedModel {
  bool Small = false; ///< at most MaxEnumeratedBlocks movable blocks
  std::vector<EnumPoint> Points;
  double BaseCycles = 0.0;
};

/// Enumerates the model \p Spec's solve group poses: the program
/// extracted under its device's power and timing, as runSolveGroup does.
EnumeratedModel enumerateModel(const JobSpec &Spec) {
  EnumeratedModel E;
  const DeviceInfo *Dev = findDevice(Spec.Device);
  if (!Dev) {
    ADD_FAILURE() << "unknown device " << Spec.Device;
    return E;
  }
  PipelineOptions Opts;
  Opts.Power = Dev->Model;
  Opts.Sim.Timing = Dev->Timing;
  Opts.Extract.Timing = Dev->Timing;
  Module M = buildBeebs(Spec.Benchmark, Spec.Level, Spec.Repeat);
  ExtractedModule EM = extractModule(M, Opts, /*NeedBaseline=*/false);
  if (!EM.ok()) {
    ADD_FAILURE() << Spec.cacheKey() << ": " << EM.Error;
    return E;
  }
  std::vector<unsigned> Movable;
  for (unsigned B = 0; B != EM.MP.numBlocks(); ++B)
    if (EM.MP.Blocks[B].Movable)
      Movable.push_back(B);
  if (Movable.size() > MaxEnumeratedBlocks)
    return E;
  E.Small = true;
  E.Points = enumerateSolutions(EM.MP, Movable);
  E.BaseCycles =
      evaluateAssignment(EM.MP, Assignment(EM.MP.numBlocks(), false)).Cycles;
  return E;
}

/// Every Optimal row of \p Ref whose model is small enough carries the
/// enumerator's least model energy at its knob point. \p Models caches
/// the enumerations by model (the job kind does not change the model).
/// Returns the number of rows checked.
unsigned expectEnumeratorOptimum(const CampaignResult &Ref,
                                 std::map<std::string, EnumeratedModel>
                                     &Models) {
  unsigned Checked = 0;
  for (const JobResult &R : Ref.Results) {
    if (!R.ok() || R.SolveOutcome != SolveStatus::Optimal)
      continue;
    JobSpec ModelSpec = R.Spec;
    ModelSpec.Kind = JobKind::ModelOnly;
    auto [It, New] = Models.try_emplace(ModelSpec.solveGroupKey());
    if (New)
      It->second = enumerateModel(ModelSpec);
    const EnumeratedModel &E = It->second;
    if (!E.Small)
      continue;
    ModelKnobs Knobs;
    Knobs.RspareBytes = R.Spec.RspareBytes;
    Knobs.Xlimit = R.Spec.Xlimit;
    int Best = bestFeasiblePoint(E.Points, E.BaseCycles, Knobs);
    ++Checked;
    if (Best < 0) {
      ADD_FAILURE() << R.Spec.cacheKey() << ": no feasible placement";
      continue;
    }
    double Want =
        E.Points[static_cast<size_t>(Best)].Estimate.EnergyMilliJoules;
    EXPECT_LE(std::fabs(R.PredictedOptEnergyMilliJoules - Want),
              1e-9 * std::fabs(Want))
        << R.Spec.cacheKey() << ": " << R.PredictedOptEnergyMilliJoules
        << " vs enumerated " << Want;
  }
  return Checked;
}

class KnobSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KnobSweep, EveryReuseSettingMatchesTheReference) {
  GridSpec Grid = drawGrid(GetParam());
  std::map<std::string, EnumeratedModel> Models;
  for (JobKind Kind : {JobKind::Measure, JobKind::ModelOnly}) {
    Grid.Kind = Kind;
    std::vector<JobSpec> Jobs = Grid.expand();
    SCOPED_TRACE(std::string(jobKindName(Kind)) + " grid, first job " +
                 Jobs.front().cacheKey());
    CampaignResult Ref = runCampaign(Jobs, reuse(false, false, false));
    ASSERT_EQ(Ref.Summary.Failed, 0u);
    EXPECT_GT(expectEnumeratorOptimum(Ref, Models), 0u);

    auto check = [&](const std::string &Name, CampaignOptions Opts,
                     unsigned Workers, ResultCache *Cache = nullptr) {
      SCOPED_TRACE(Name + " jobs " + std::to_string(Workers));
      Opts.Jobs = Workers;
      Opts.Cache = Cache;
      expectMatchesReference(Ref, runCampaign(Jobs, Opts));
    };
    check("all", reuse(true, true, true), 1);
    check("all", reuse(true, true, true), 4);
    check("no cache", reuse(false, true, true), 1);
    check("no profile", reuse(true, false, true), 1);
    check("no solve", reuse(true, true, false), 1);

    // A seeded third of the reference's servable rows, as a store left
    // by an earlier run would hold them.
    SplitMix64 Pick(GetParam() ^ Jobs.size());
    std::vector<const JobResult *> Stored;
    for (const JobResult &R : Ref.Results)
      if (R.ok() && Pick.nextBelow(3) == 0)
        Stored.push_back(&R);
    for (unsigned Workers : {1u, 4u}) {
      ResultCache Cache;
      for (const JobResult *R : Stored)
        Cache.insert(R->Spec.cacheKey(), *R);
      check("pre-filled cache", reuse(true, true, true), Workers,
            &Cache);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnobSweep, ::testing::Range<uint64_t>(1, 9),
                         [](const auto &Info) {
                           return "seed" + std::to_string(Info.param);
                         });

} // namespace
