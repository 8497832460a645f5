//===- perfbench/runner/Bench.h - End-to-end benchmark runner ---*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared types of the host-clock benchmark (see perfbench/README.md).
/// A benchmark workload is one job — a grid sweep, a batch of fuzz
/// scenarios or one serve — that the runner repeats untraced for the
/// end-to-end metrics and re-runs as a traced pass for the per-layer
/// metrics. Both passes return the simulated outcome of every step, so
/// the runner can prove the traced pass faithful and every repetition
/// deterministic.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_PERFBENCH_BENCH_H
#define AOCI_PERFBENCH_BENCH_H

#include "harness/Experiment.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

inline uint64_t nsBetween(Clock::time_point From, Clock::time_point To) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(To - From)
          .count());
}

/// Process CPU seconds (user + system, all threads) so far.
double processCpuSeconds();

/// Peak resident set size of this process so far, in MB.
double peakRssMb();

/// Moves the calling thread to the next of the CPUs the process started
/// with, round robin; a no-op where affinity cannot be set. Single-
/// threaded work calls it before every step and every generated program:
/// the vCPUs of a shared VM differ in speed by up to half again, for
/// minutes at a time, so a job left on one vCPU measures that vCPU.
/// Rotating spreads each job evenly over all of them, as serve's worker
/// threads are. Call anyCpu() before starting threads, which would
/// otherwise inherit a single-CPU affinity.
void nextCpu();

/// Lets the calling thread run on every CPU the process started with
/// again.
void anyCpu();

/// The simulated outcome of one step (a run, or a serve session): what
/// must be bit-identical between repetitions and between the untraced
/// and traced passes.
struct SimRecord {
  uint64_t WallCycles = 0;
  int64_t ProgramResult = 0;
  /// RunResult::OptBytesResident (0 on serve, which does not report it).
  uint64_t OptBytesResident = 0;
  uint64_t OptCompileCycles = 0;
  /// The resident code opt_code_kb sums: OptBytesResident on grid; on a
  /// bounded cache (fuzz-mix, serve) all live code, since there most runs
  /// end with no optimized code resident at all.
  uint64_t CodeBytes = 0;

  bool operator==(const SimRecord &) const = default;
};

/// One untraced execution of a workload's whole job.
struct JobRun {
  double WallS = 0;
  /// Host ms of each timed step (cell, scenario run or serve round).
  std::vector<double> StepMs;
  /// Steps (sessions on serve) attempted, and those that threw or whose
  /// program result differs from the reference.
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Simulated outcome per run (per session on serve), in job order.
  std::vector<SimRecord> Sim;
};

/// Per-layer metric values by name.
using LayerMetrics = std::map<std::string, double>;

/// One traced pass over the same inputs as the job.
struct TracedRun {
  double WallS = 0;
  std::vector<SimRecord> Sim;
  LayerMetrics Layers;
};

/// A reported metric: its name and unit.
struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// Every per-layer metric the traced pass reports, in output order.
/// A workload that cannot observe a layer reports 0 for it.
const std::vector<MetricDef> &layerMetrics();

/// One benchmark workload.
class BenchWorkload {
public:
  BenchWorkload() = default;
  BenchWorkload(const BenchWorkload &) = delete;
  BenchWorkload &operator=(const BenchWorkload &) = delete;
  virtual ~BenchWorkload() = default;

  /// Generates every distinct program of the workload once. Timed by
  /// the runner as set-up; the last call's programs are kept for
  /// computeReference().
  virtual void generatePrograms() = 0;
  /// Runs each generated program on a baseline-only VM (no sample sink,
  /// so nothing is optimized or inlined) and records its result.
  virtual void computeReference() = 0;
  virtual JobRun runJob() = 0;
  virtual TracedRun runTraced() = 0;
};

std::unique_ptr<BenchWorkload> makeGridWorkload(uint64_t Seed, bool Small);
std::unique_ptr<BenchWorkload> makeFuzzMixWorkload(uint64_t Seed,
                                                   bool Small);
std::unique_ptr<BenchWorkload> makeServeWorkload(uint64_t Seed, bool Small);

//===----------------------------------------------------------------------===//
// Runs composed from public calls (grid and fuzz-mix).
//===----------------------------------------------------------------------===//

/// The result of a program on a baseline-only VM.
int64_t referenceResult(const aoci::Workload &W);

/// The simulated record runExperiment() reports for \p R; \p LiveCode
/// selects which resident bytes CodeBytes counts.
SimRecord simRecordOf(const aoci::RunResult &R, bool LiveCode);

/// Span and counter totals of a sequence of composed runs.
class ComposedTrace {
public:
  /// Re-does runExperiment(\p Config) from public calls — build the
  /// program, construct the VM, policy and adaptive system, attach,
  /// swap in timing decorators for the SampleSink and the OsrDriver,
  /// run — with a span around each call. Covers the RunConfig fields
  /// the benchmark sets (no warm start, trace sink or trace stats).
  SimRecord run(const aoci::RunConfig &Config, bool LiveCode);

  /// Folds the recorded spans and counters into per-layer metrics.
  void fill(LayerMetrics &Out) const;

private:
  /// One span: a call into a layer, or the summed time of a hook the
  /// layer was entered through (Calls > 1). Parent indexes Spans; -1 for
  /// a run's root span.
  struct Span {
    const char *Name;
    int Parent;
    uint64_t Ns;
    uint64_t Calls;
  };
  int open(const char *Name, int Parent);
  void close(int Id, Clock::time_point Start);

  std::vector<Span> Spans;
  uint64_t Bytecodes = 0;
  aoci::ExecutionCounters Vm;
  uint64_t Evictions = 0, RecompilesAfterEvict = 0;
  uint64_t OptCompilations = 0, Wakeups = 0, CompileRequests = 0;
  uint64_t AosCycles = 0, WallCycles = 0;
  uint64_t OsrEntries = 0, Deopts = 0;
};

} // namespace perfbench

#endif // AOCI_PERFBENCH_BENCH_H
