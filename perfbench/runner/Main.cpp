//===- perfbench/runner/Main.cpp - End-to-end benchmark runner ------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
//
// Usage:
//   perfbench_runner --workload grid|fuzz-mix|serve --seed N --seconds S
//                    --trace 0|1 [--small]
//
// Generates the workload's programs from the seed (timed as set-up),
// computes each program's reference result on a baseline-only VM, then
// repeats the workload's job for about S seconds. With --trace 0 it
// reports the end-to-end metrics; with --trace 1 it alternates untraced
// jobs with traced passes over the same inputs and reports the
// per-layer metrics. A human summary goes to stderr; stdout ends with a
// detail line and then the result line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Exits 1 when a step failed, a repetition was not deterministic or the
// traced pass did not reproduce the untraced one; 2 on a usage error.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

/// Set-up repetitions; setup_s is their median.
constexpr unsigned SetupReps = 21;
/// Fewest untraced jobs (trace 0) or untraced/traced pairs (trace 1) a
/// run measures, however long they take.
constexpr size_t MinJobs = 3;
constexpr size_t MinPairs = 2;

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  int Trace = -1;
  bool Small = false;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  bool HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string Flag = Argv[I];
    if (Flag == "--small") {
      A.Small = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    const std::string Value = Argv[++I];
    const char *First = Value.data();
    const char *Last = Value.data() + Value.size();
    if (Flag == "--workload") {
      A.Workload = Value;
    } else if (Flag == "--seed") {
      HaveSeed = std::from_chars(First, Last, A.Seed).ptr == Last;
      if (!HaveSeed)
        return false;
    } else if (Flag == "--seconds") {
      if (std::from_chars(First, Last, A.Seconds).ptr != Last ||
          !(A.Seconds > 0))
        return false;
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        return false;
      A.Trace = Value == "1";
    } else {
      return false;
    }
  }
  return HaveSeed && A.Seconds > 0 && A.Trace >= 0 && !A.Workload.empty();
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Nearest-rank percentile \p P of \p Sorted; 0 when empty (a run whose
/// first job threw).
double percentile(const std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  size_t Rank = static_cast<size_t>(
      std::ceil(P / 100.0 * static_cast<double>(Sorted.size())));
  return Sorted[std::clamp<size_t>(Rank, 1, Sorted.size()) - 1];
}

/// The highest of a fixed ladder of percentiles that leaves at least ten
/// of \p Samples beyond it.
double tailPercentile(size_t Samples) {
  for (double P : {99.9, 99.0, 98.0, 95.0, 90.0, 75.0})
    if (static_cast<double>(Samples) * (100.0 - P) / 100.0 >= 10.0)
      return P;
  return 50.0;
}

std::string number(double V) {
  char Buf[64];
  auto R = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, R.ptr);
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

std::string metricsJson(const std::vector<Metric> &Metrics) {
  std::string Out = "{";
  for (const Metric &M : Metrics) {
    if (Out.size() > 1)
      Out += ", ";
    Out += "\"" + M.Name + "\": {\"value\": " + number(M.Value) +
           ", \"unit\": \"" + M.Unit + "\"}";
  }
  return Out + "}";
}

/// Simulated totals of one pass: the basis of Figures 4 and 5 and of the
/// compile-time claim.
struct SimTotals {
  uint64_t WallCycles = 0, CodeBytes = 0, OptCompileCycles = 0;
};

SimTotals totals(const std::vector<SimRecord> &Sim) {
  SimTotals T;
  for (const SimRecord &R : Sim) {
    T.WallCycles += R.WallCycles;
    T.CodeBytes += R.CodeBytes;
    T.OptCompileCycles += R.OptCompileCycles;
  }
  return T;
}

std::unique_ptr<BenchWorkload> makeBench(const Args &A) {
  if (A.Workload == "grid")
    return makeGridWorkload(A.Seed, A.Small);
  if (A.Workload == "fuzz-mix")
    return makeFuzzMixWorkload(A.Seed, A.Small);
  if (A.Workload == "serve")
    return makeServeWorkload(A.Seed, A.Small);
  return nullptr;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  std::unique_ptr<BenchWorkload> W;
  if (parseArgs(Argc, Argv, A))
    W = makeBench(A);
  if (!W) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload grid|fuzz-mix|serve "
                 "--seed N --seconds S --trace 0|1 [--small]\n");
    return 2;
  }

  std::vector<double> Setup;
  for (unsigned I = 0; I != SetupReps; ++I) {
    const Clock::time_point Start = Clock::now();
    W->generatePrograms();
    Setup.push_back(secondsSince(Start));
  }
  // Set-up rotated this thread over the CPUs; serve's pool must not
  // inherit the last one.
  anyCpu();
  W->computeReference();

  // Untraced jobs; with --trace 1 each is paired with a traced pass.
  std::vector<JobRun> Jobs;
  std::vector<TracedRun> Traced;
  const size_t MinRuns = A.Trace ? MinPairs : MinJobs;
  const Clock::time_point Begin = Clock::now();
  double LastRound = 0;
  while (Jobs.size() < MinRuns ||
         secondsSince(Begin) + LastRound <= A.Seconds) {
    const Clock::time_point Start = Clock::now();
    Jobs.push_back(W->runJob());
    if (A.Trace)
      Traced.push_back(W->runTraced());
    LastRound = secondsSince(Start);
  }

  uint64_t Attempted = 0, Failed = 0;
  bool Deterministic = true, Faithful = true;
  for (size_t I = 0; I != Jobs.size(); ++I) {
    Attempted += Jobs[I].Attempted;
    Failed += Jobs[I].Failed;
    Deterministic &= Jobs[I].Sim == Jobs.front().Sim;
    if (A.Trace)
      Faithful &= Traced[I].Sim == Jobs[I].Sim;
  }
  const bool Correct = Failed == 0 && Deterministic && Faithful;
  const double FailRatio =
      static_cast<double>(Failed) / static_cast<double>(Attempted);
  const SimTotals Sim =
      totals(A.Trace ? Traced.front().Sim : Jobs.front().Sim);

  std::vector<double> Walls, TracedWalls;
  for (const JobRun &J : Jobs)
    Walls.push_back(J.WallS);
  for (const TracedRun &T : Traced)
    TracedWalls.push_back(T.WallS);
  const double WallS = median(Walls);
  // Each step's median over the run's jobs. A step is the same work in
  // every job, and it lands on a different vCPU in each (nextCpu()), so
  // this keeps the host's noise out of the step distribution instead of
  // pooling it in, where the tail would track the slowest vCPU.
  const size_t NumSteps = Jobs.front().StepMs.size();
  std::vector<double> Steps;
  for (size_t I = 0; I != NumSteps; ++I) {
    std::vector<double> Samples;
    for (const JobRun &J : Jobs)
      if (J.StepMs.size() == NumSteps)
        Samples.push_back(J.StepMs[I]);
    Steps.push_back(median(Samples));
  }
  std::sort(Steps.begin(), Steps.end());
  const double TailP = tailPercentile(NumSteps);

  std::vector<Metric> Metrics;
  const double TracedWallS = A.Trace ? median(TracedWalls) : 0.0;
  if (!A.Trace) {
    const double SimMcycles = static_cast<double>(Sim.WallCycles) / 1e6;
    Metrics = {
        {"wall_s", WallS, "s"},
        {"sim_mcycles_per_s", SimMcycles / WallS, "Mcycles/s"},
        {"step_ms_p50", percentile(Steps, 50), "ms"},
        {"step_ms_tail", percentile(Steps, TailP), "ms"},
        {"setup_s", median(Setup), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"pass_ratio", 1.0 - FailRatio, "ratio"},
        {"sim_mcycles", SimMcycles, "Mcycles"},
        {"opt_code_kb", static_cast<double>(Sim.CodeBytes) / 1024.0,
         "KB"},
        {"opt_compile_mcycles",
         static_cast<double>(Sim.OptCompileCycles) / 1e6, "Mcycles"},
    };
  } else {
    for (const MetricDef &M : layerMetrics()) {
      std::vector<double> Values;
      for (const TracedRun &T : Traced) {
        auto It = T.Layers.find(M.Name);
        Values.push_back(It == T.Layers.end() ? 0.0 : It->second);
      }
      const double Value =
          std::strcmp(M.Name, "trace_overhead_pct") == 0
              ? 100.0 * (TracedWallS / WallS - 1.0)
              : median(Values);
      Metrics.push_back({M.Name, Value, M.Unit});
    }
  }

  std::fprintf(stderr, "%s seed %llu: %zu %s, %llu steps attempted, "
                       "%llu failed (fail_ratio %s)%s%s\n",
               A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
               Jobs.size(), A.Trace ? "untraced/traced pairs" : "jobs",
               static_cast<unsigned long long>(Attempted),
               static_cast<unsigned long long>(Failed),
               number(FailRatio).c_str(),
               Deterministic ? "" : "; repetitions NOT deterministic",
               Faithful ? "" : "; traced pass NOT faithful");
  std::fprintf(stderr, "untraced job wall s:");
  for (double Wall : Walls)
    std::fprintf(stderr, " %.4f", Wall);
  if (A.Trace) {
    std::fprintf(stderr, "; traced:");
    for (double Wall : TracedWalls)
      std::fprintf(stderr, " %.4f", Wall);
  }
  std::fprintf(stderr, "\n");
  if (!A.Trace)
    std::fprintf(stderr, "step_ms_tail is p%s of %zu steps\n",
                 number(TailP).c_str(), Steps.size());
  for (const Metric &M : Metrics)
    std::fprintf(stderr, "  %-28s %14.6g %s\n", M.Name.c_str(), M.Value,
                 M.Unit.c_str());

  std::printf(
      "{\"detail\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"jobs_run\": %zu, \"fail_ratio\": %s, \"tail_percentile\": %s, "
      "\"step_samples\": %zu, \"wall_s\": %s, \"traced_wall_s\": %s, "
      "\"deterministic\": %s, \"faithful\": %s, "
      "\"sim\": {\"wall_cycles\": %llu, \"code_bytes\": %llu, "
      "\"opt_compile_cycles\": %llu}}}\n",
      A.Workload.c_str(), static_cast<unsigned long long>(A.Seed), A.Trace,
      Jobs.size(), number(FailRatio).c_str(), number(TailP).c_str(),
      Steps.size(), number(WallS).c_str(), number(TracedWallS).c_str(),
      Deterministic ? "true" : "false",
      Faithful ? "true" : "false",
      static_cast<unsigned long long>(Sim.WallCycles),
      static_cast<unsigned long long>(Sim.CodeBytes),
      static_cast<unsigned long long>(Sim.OptCompileCycles));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed),
              metricsJson(Metrics).c_str());
  return Correct ? 0 : 1;
}
