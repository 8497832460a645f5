//===- perfbench/runner/FuzzMix.cpp - The fuzz campaign's traffic --------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
//
// `fuzz-mix`: the traffic of a fuzz campaign without its search. Each
// spec is one seeded ScenarioMutator step from one of the four built-in
// scn-* adversaries, and each runs under both fuzz policies (fixed@4
// and cins) with FuzzConfig's defaults: OSR on, a 6000-byte code cache,
// scale 0.05. runFuzz itself is not called: its search is steered by
// simulated deltas, so a policy change would alter which programs run.
// The runs are short and dominated by warm-up, and the small cache makes
// them mostly install and evict code, the opposite regime to `grid`.
//
// The mix is stratified by mutation kind: every seed draws as many
// mutations of each kind (the knob moved and its direction, or a phase
// added or dropped) from each adversary as a fixed reference pool holds.
// The seed picks which phase each mutation hits, the order of the specs
// and every program's cold library.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "harness/Fuzzer.h"
#include "workload/scenario/ScenarioMutator.h"
#include "workload/scenario/ScenarioWorkload.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>

using namespace aoci;
using namespace perfbench;

namespace {

/// Specs per job. The job is large so that its simulated totals vary
/// little from seed to seed.
constexpr unsigned NumSpecs = 256;
/// Mutator seed and size (in draws per spec) of the reference pool that
/// sets how many mutations of each kind a job holds.
constexpr uint64_t PoolSeed = 1;
constexpr unsigned PoolDraws = 64;

uint64_t totalIterations(const ScenarioSpec &S) {
  uint64_t Sum = 0;
  for (const PhaseSpec &P : S.Phases)
    Sum += P.Iterations;
  return Sum;
}

/// Rescales \p Spec's phase iterations so the whole run is as long as its
/// adversary's. Mutations may double or quarter a run; on a bounded
/// cache the host cost of a run grows faster than its length, so without
/// this one long draw would set the job's time and the seed, not the
/// code, would decide the measurement.
void fixRunLength(ScenarioSpec &Spec, const ScenarioSpec &Adversary) {
  const uint64_t Target = totalIterations(Adversary);
  const uint64_t Total = totalIterations(Spec);
  for (PhaseSpec &P : Spec.Phases)
    P.Iterations = std::max<uint64_t>(1, P.Iterations * Target / Total);
  Spec = clampScenario(std::move(Spec));
}

/// The kind of change \p Mutant makes to \p Adversary: a phase added or
/// dropped, or each knob moved and its direction. Which phase it hit is
/// not part of the kind.
std::string mutationKind(const ScenarioSpec &Mutant,
                         const ScenarioSpec &Adversary) {
  if (Mutant.Phases.size() != Adversary.Phases.size())
    return Mutant.Phases.size() > Adversary.Phases.size() ? "dup" : "drop";
  std::string Kind;
  auto Knob = [&Kind](const char *Name, uint64_t New, uint64_t Old) {
    if (New != Old)
      Kind += std::string(Name) + (New > Old ? "+ " : "- ");
  };
  for (size_t I = 0; I != Mutant.Phases.size(); ++I) {
    const PhaseSpec &M = Mutant.Phases[I];
    const PhaseSpec &A = Adversary.Phases[I];
    Knob("iterations", M.Iterations, A.Iterations);
    Knob("shape", static_cast<unsigned>(M.Shape),
         static_cast<unsigned>(A.Shape));
    Knob("depth", M.Depth, A.Depth);
    Knob("megamorphism", M.Megamorphism, A.Megamorphism);
    Knob("alloc", M.AllocBurst, A.AllocBurst);
    Knob("churn", M.MethodChurn, A.MethodChurn);
    Knob("work", M.WorkUnits, A.WorkUnits);
  }
  return Kind;
}

/// \p Count one-step mutations of \p Adversary drawn from \p Mut, with
/// as many of each kind as a pool drawn with PoolSeed holds, rounded by
/// largest remainder. Without the strata, the share of a slow kind (on
/// scn-cache-churn, a third fanout leaf is ~50% slower) varied with the
/// seed and moved the step tail by a third.
std::vector<ScenarioSpec> stratifiedMutants(ScenarioMutator &Mut,
                                            const ScenarioSpec &Adversary,
                                            unsigned Count) {
  std::map<std::string, unsigned> Pool;
  ScenarioMutator PoolMut(PoolSeed);
  const unsigned PoolSize = Count * PoolDraws;
  for (unsigned I = 0; I != PoolSize; ++I)
    ++Pool[mutationKind(PoolMut.mutate(Adversary), Adversary)];

  std::map<std::string, unsigned> Quota;
  std::vector<std::pair<unsigned, std::string>> Remainders;
  unsigned Assigned = 0;
  for (const auto &[Kind, N] : Pool) {
    Quota[Kind] = N * Count / PoolSize;
    Assigned += Quota[Kind];
    Remainders.push_back({N * Count % PoolSize, Kind});
  }
  std::stable_sort(
      Remainders.begin(), Remainders.end(),
      [](const auto &L, const auto &R) { return L.first > R.first; });
  for (size_t I = 0; Assigned != Count; ++I, ++Assigned)
    ++Quota[Remainders[I].second];

  // Every kind with a quota is common enough to turn up long before the
  // cap; past it any draw is taken, so the job is always full.
  std::vector<ScenarioSpec> Out;
  for (unsigned Draw = 0; Out.size() != Count; ++Draw) {
    ScenarioSpec Spec = Mut.mutate(Adversary);
    auto It = Quota.find(mutationKind(Spec, Adversary));
    if (Draw < PoolSize && (It == Quota.end() || It->second == 0))
      continue;
    if (It != Quota.end() && It->second != 0)
      --It->second;
    fixRunLength(Spec, Adversary);
    Out.push_back(std::move(Spec));
  }
  return Out;
}

class FuzzMixWorkload final : public BenchWorkload {
public:
  FuzzMixWorkload(uint64_t Seed, bool Small) {
    ScenarioMutator Mut(Seed);
    const std::vector<ScenarioSpec> &Builtins = builtinScenarios();
    const unsigned N = Small ? 8 : NumSpecs;
    // One mutation step from each adversary: longer walks drift further,
    // and doubled the seed-to-seed spread of the job's evictions and
    // compile cycles.
    std::vector<std::vector<ScenarioSpec>> Mutants;
    for (const ScenarioSpec &Adversary : Builtins)
      Mutants.push_back(stratifiedMutants(
          Mut, Adversary, static_cast<unsigned>(N / Builtins.size())));
    for (unsigned I = 0; I != N; ++I) {
      // The adversaries take turns.
      ScenarioSpec Spec =
          Mutants[I % Builtins.size()][I / Builtins.size()];
      Spec.Name = "mix-" + std::to_string(I);
      Specs.push_back(std::move(Spec));
      // Each spec draws its own cold library, so no single draw shifts
      // the whole job.
      WorkloadParams P = Fuzz.Params;
      P.Seed = Seed * N + I;
      Params.push_back(P);
    }
    for (const ScenarioSpec &S : Specs)
      Shared.push_back(std::make_shared<const ScenarioSpec>(S));
  }

  void generatePrograms() override {
    Programs.clear();
    for (size_t I = 0; I != Specs.size(); ++I) {
      nextCpu();
      Programs.push_back(makeScenarioWorkload(Specs[I], Params[I]));
    }
  }

  void computeReference() override {
    Reference.clear();
    for (const Workload &W : Programs)
      Reference.push_back(referenceResult(W));
  }

  JobRun runJob() override {
    JobRun Job;
    // One extra move per job, so each step meets another vCPU next time.
    nextCpu();
    const Clock::time_point Start = Clock::now();
    for (size_t I = 0; I != Specs.size(); ++I) {
      for (bool A : {true, false}) {
        ++Job.Attempted;
        nextCpu();
        const Clock::time_point StepStart = Clock::now();
        try {
          const RunResult R = runExperiment(config(I, A));
          Job.Sim.push_back(simRecordOf(R, /*LiveCode=*/true));
          if (R.ProgramResult != Reference[I])
            ++Job.Failed;
        } catch (const std::exception &) {
          Job.Sim.push_back(SimRecord());
          ++Job.Failed;
        }
        Job.StepMs.push_back(
            static_cast<double>(nsBetween(StepStart, Clock::now())) / 1e6);
      }
    }
    Job.WallS = secondsSince(Start);
    return Job;
  }

  TracedRun runTraced() override {
    TracedRun Traced;
    ComposedTrace Trace;
    const double Cpu0 = processCpuSeconds();
    const Clock::time_point Start = Clock::now();
    for (size_t I = 0; I != Specs.size(); ++I) {
      for (bool A : {true, false}) {
        nextCpu();
        Traced.Sim.push_back(Trace.run(config(I, A), /*LiveCode=*/true));
      }
    }
    Traced.WallS = secondsSince(Start);
    Trace.fill(Traced.Layers);
    Traced.Layers["harness.cpu_util"] =
        (processCpuSeconds() - Cpu0) / Traced.WallS;
    return Traced;
  }

private:
  /// Spec \p I under policy A (fixed@4) or B (cins), as runFuzz runs it.
  RunConfig config(size_t I, bool A) const {
    RunConfig RC;
    RC.WorkloadName = Specs[I].Name;
    RC.Scenario = Shared[I];
    RC.Params = Params[I];
    RC.Policy = A ? Fuzz.PolicyA : Fuzz.PolicyB;
    RC.MaxDepth = A ? Fuzz.DepthA : Fuzz.DepthB;
    RC.Model = Fuzz.Model;
    RC.Aos = Fuzz.Aos;
    return RC;
  }

  FuzzConfig Fuzz;
  std::vector<ScenarioSpec> Specs;
  std::vector<std::shared_ptr<const ScenarioSpec>> Shared;
  std::vector<WorkloadParams> Params;
  std::vector<Workload> Programs;
  std::vector<int64_t> Reference;
};

} // namespace

std::unique_ptr<BenchWorkload> perfbench::makeFuzzMixWorkload(uint64_t Seed,
                                                              bool Small) {
  return std::make_unique<FuzzMixWorkload>(Seed, Small);
}
