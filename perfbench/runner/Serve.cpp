//===- perfbench/runner/Serve.cpp - Multi-tenant serve --------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
//
// `serve`: runServe at --jobs min(4, nproc) with OSR on (the serve
// default). The mix has repeated tenants, so the shared index hits;
// distinct tenants, so it misses; and one scn-cache-churn adversary. The
// shared cache is bounded below the mix's unbounded footprint, so shared
// evictions, and the deopts they force, happen on every run. It is the
// only workload that uses the thread pool, the round barrier and the
// share layer; each round waits for its slowest slice.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "harness/Serve.h"
#include "workload/scenario/ScenarioSpec.h"

#include <algorithm>
#include <stdexcept>
#include <thread>

using namespace aoci;
using namespace perfbench;

namespace {

constexpr double ServeScale = 1.0;
/// Below the mix's unbounded shared footprint at ServeScale (~250 KB),
/// so shared evictions happen on every run.
constexpr uint64_t ShareCapacityBytes = 180000;

class ServeWorkload final : public BenchWorkload {
public:
  ServeWorkload(uint64_t Seed, bool Small) {
    // Repeated tenants (the shared index hits), distinct ones (it
    // misses) and a cache-churn adversary, the whole mix twice so that
    // the chaotic share outcomes of single sessions average out.
    Config.Tenants = {{"compress", 4},   {"jess", 6},
                      {"javac", 6},      {"db", 2},
                      {"mtrt", 2},       {"jack", 2},
                      {"mpegaudio", 2},  {"SPECjbb2000", 2},
                      {"scn-cache-churn", 2}};
    Config.Params.Seed = Seed;
    Config.Params.Scale = Small ? 0.05 : ServeScale;
    Config.ShareCapacityBytes = ShareCapacityBytes;
    Jobs = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  }

  void generatePrograms() override {
    Programs.clear();
    for (const ServeTenantSpec &T : Config.Tenants) {
      nextCpu();
      Programs.push_back(makeWorkload(T.Name, Config.Params));
    }
  }

  void computeReference() override {
    Reference.clear();
    for (const Workload &W : Programs)
      Reference[W.Name] = referenceResult(W);
  }

  JobRun runJob() override {
    JobRun Job;
    double CpuS = 0;
    serve(Job, CpuS);
    return Job;
  }

  TracedRun runTraced() override {
    JobRun Job;
    double CpuS = 0;
    const ServeResults R = serve(Job, CpuS);
    TracedRun Traced;
    Traced.WallS = Job.WallS;
    Traced.Sim = Job.Sim;
    LayerMetrics &L = Traced.Layers;
    // runServe builds its VMs internally, so only what ServeResults
    // reports is observable here; the other layers read 0.
    for (const MetricDef &M : layerMetrics())
      L[M.Name] = 0;
    for (const ServeSessionResult &S : R.Sessions) {
      L["vm.evictions"] += static_cast<double>(S.Evictions);
      L["core.opt_compilations"] += static_cast<double>(S.OptCompilations);
      L["osr.entries"] += static_cast<double>(S.OsrEntries);
      L["osr.deopts"] += static_cast<double>(S.Deopts);
    }
    L["share.hit_ratio"] = R.hitRate();
    L["share.publishes"] = static_cast<double>(R.SharePublishesAccepted);
    L["share.duplicate_publishes"] =
        static_cast<double>(R.ShareDuplicatePublishes);
    L["share.evictions"] = static_cast<double>(R.ShareEvictions);
    L["harness.steps"] = static_cast<double>(R.Rounds);
    L["harness.cpu_util"] = CpuS / (Job.WallS * Jobs);
    return Traced;
  }

private:
  /// Runs the serve once, timing each round from the Progress callback,
  /// which fires on the calling thread after every barrier. \p CpuS gets
  /// the process CPU seconds the serve took.
  ServeResults serve(JobRun &Job, double &CpuS) {
    ServeResults R;
    std::vector<Clock::time_point> RoundEnds;
    const double Cpu0 = processCpuSeconds();
    const Clock::time_point Start = Clock::now();
    try {
      R = runServe(Config, Jobs, [&RoundEnds](const std::string &) {
        RoundEnds.push_back(Clock::now());
      });
    } catch (const std::exception &) {
      R = ServeResults();
    }
    Job.WallS = secondsSince(Start);
    CpuS = processCpuSeconds() - Cpu0;
    // Round 0's interval also covers building the sessions, so the step
    // samples start at round 1.
    for (size_t I = 1; I < RoundEnds.size(); ++I)
      Job.StepMs.push_back(
          static_cast<double>(nsBetween(RoundEnds[I - 1], RoundEnds[I])) /
          1e6);
    Job.Attempted = 0;
    for (const ServeTenantSpec &T : Config.Tenants)
      Job.Attempted += T.Count;
    Job.Failed = R.Sessions.size() == Job.Attempted ? 0 : Job.Attempted;
    for (const ServeSessionResult &S : R.Sessions) {
      Job.Sim.push_back({S.WallCycles, S.ProgramResult, 0,
                         S.OptCompileCycles,
                         S.SharedCodeBytes + S.PrivateCodeBytes});
      if (S.ProgramResult != Reference.at(S.TenantName))
        ++Job.Failed;
    }
    return R;
  }

  ServeConfig Config;
  unsigned Jobs = 1;
  std::vector<Workload> Programs;
  std::map<std::string, int64_t> Reference;
};

} // namespace

std::unique_ptr<BenchWorkload> perfbench::makeServeWorkload(uint64_t Seed,
                                                            bool Small) {
  return std::make_unique<ServeWorkload>(Seed, Small);
}
