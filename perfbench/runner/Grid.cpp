//===- perfbench/runner/Grid.cpp - The Table 1 x Figure 4 sweep ----------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
//
// `grid`: runGrid at --jobs 1 with the default configuration (OSR, code
// cache, fusion and sharing off): 8 workloads x 6 context-sensitive
// policies x depths 2-5 plus 8 context-insensitive baselines, 200 runs.
// It is the job that reproduces the paper, and its host time is almost
// all interpreter dispatch, calls and frames through installed code;
// the code-cache path is bypassed (no evictions).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <stdexcept>

using namespace aoci;
using namespace perfbench;

namespace {

/// Run length multiplier. Large enough that the adaptive system reaches
/// its steady state in every cell, small enough for several sweeps per
/// measured run.
constexpr double GridScale = 0.1;

class GridWorkload final : public BenchWorkload {
public:
  GridWorkload(uint64_t Seed, bool Small) {
    Config.Params.Seed = Seed;
    Config.Params.Scale = Small ? 0.02 : GridScale;
    if (Small) {
      Config.Workloads = {"compress", "jess"};
      Config.Policies = {PolicyKind::Fixed, PolicyKind::HybridParamLarge};
      Config.Depths = {2, 4};
    }
  }

  void generatePrograms() override {
    Programs.clear();
    for (const std::string &Name : Config.Workloads) {
      nextCpu();
      Programs.push_back(makeWorkload(Name, Config.Params));
    }
  }

  void computeReference() override {
    Reference.clear();
    for (const Workload &W : Programs)
      Reference[W.Name] = referenceResult(W);
  }

  JobRun runJob() override {
    JobRun Job;
    const std::vector<RunConfig> Plan = plan();
    Job.Attempted = Plan.size();
    const Clock::time_point Start = Clock::now();
    try {
      // runGrid calls Progress on this thread after every run.
      nextCpu();
      const GridResults Results =
          runGrid(Config, [](const std::string &) { nextCpu(); });
      Job.WallS = secondsSince(Start);
      for (const RunMetrics &M : Results.metrics())
        Job.StepMs.push_back(static_cast<double>(M.HostNs) / 1e6);
      for (const RunConfig &C : Plan) {
        const RunResult &R =
            C.Policy == PolicyKind::ContextInsensitive
                ? Results.baseline(C.WorkloadName)
                : Results.cell(C.WorkloadName, C.Policy, C.MaxDepth);
        Job.Sim.push_back(simRecordOf(R, /*LiveCode=*/false));
        if (R.ProgramResult != Reference.at(C.WorkloadName))
          ++Job.Failed;
      }
    } catch (const std::exception &) {
      // runGrid stops at the first run that throws, so the whole sweep
      // counts as failed.
      Job.WallS = secondsSince(Start);
      Job.Failed = Job.Attempted;
      Job.Sim.clear();
    }
    return Job;
  }

  TracedRun runTraced() override {
    TracedRun Traced;
    ComposedTrace Trace;
    const double Cpu0 = processCpuSeconds();
    const Clock::time_point Start = Clock::now();
    for (const RunConfig &C : plan()) {
      nextCpu();
      Traced.Sim.push_back(Trace.run(C, /*LiveCode=*/false));
    }
    Traced.WallS = secondsSince(Start);
    Trace.fill(Traced.Layers);
    Traced.Layers["harness.cpu_util"] =
        (processCpuSeconds() - Cpu0) / Traced.WallS;
    return Traced;
  }

private:
  /// The sweep's runs in runGrid's order: per workload, the
  /// context-insensitive baseline, then policies x depths.
  std::vector<RunConfig> plan() const {
    std::vector<RunConfig> Plan;
    for (const std::string &Name : Config.Workloads) {
      RunConfig Base;
      Base.WorkloadName = Name;
      Base.Params = Config.Params;
      Base.Aos = Config.Aos;
      Base.Model = Config.Model;
      Plan.push_back(Base);
      for (PolicyKind Policy : Config.Policies) {
        for (unsigned Depth : Config.Depths) {
          RunConfig Cell = Base;
          Cell.Policy = Policy;
          Cell.MaxDepth = Depth;
          Plan.push_back(Cell);
        }
      }
    }
    return Plan;
  }

  GridConfig Config;
  std::vector<Workload> Programs;
  std::map<std::string, int64_t> Reference;
};

} // namespace

std::unique_ptr<BenchWorkload> perfbench::makeGridWorkload(uint64_t Seed,
                                                           bool Small) {
  return std::make_unique<GridWorkload>(Seed, Small);
}
