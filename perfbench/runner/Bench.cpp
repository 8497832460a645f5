//===- perfbench/runner/Bench.cpp - Shared benchmark helpers ------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <sched.h>
#include <sys/resource.h>

using namespace aoci;
using namespace perfbench;

double perfbench::processCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) +
           1e-6 * static_cast<double>(T.tv_usec);
  };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

namespace {

/// The CPUs the process may run on, read before anything pins it.
const cpu_set_t &startCpus() {
  static const cpu_set_t Start = [] {
    cpu_set_t Set;
    if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
      CPU_ZERO(&Set);
    return Set;
  }();
  return Start;
}

} // namespace

void perfbench::nextCpu() {
  static const std::vector<int> Cpus = [] {
    std::vector<int> Out;
    for (int Cpu = 0; Cpu != CPU_SETSIZE; ++Cpu)
      if (CPU_ISSET(Cpu, &startCpus()))
        Out.push_back(Cpu);
    return Out;
  }();
  static size_t Next = 0;
  if (Cpus.size() < 2)
    return;
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cpus[Next++ % Cpus.size()], &One);
  sched_setaffinity(0, sizeof(One), &One);
}

void perfbench::anyCpu() {
  if (CPU_COUNT(&startCpus()) != 0)
    sched_setaffinity(0, sizeof(cpu_set_t), &startCpus());
}

double perfbench::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KB
}

const std::vector<MetricDef> &perfbench::layerMetrics() {
  static const std::vector<MetricDef> Metrics = {
      {"workload.build_ms", "ms"},
      {"workload.bytecodes", "count"},
      {"vm.init_ms", "ms"},
      {"vm.exec_self_ms", "ms"},
      {"vm.ns_per_instr", "ns"},
      {"vm.instructions", "count"},
      {"vm.calls", "count"},
      {"vm.inlined_calls", "count"},
      {"vm.guard_tests", "count"},
      {"vm.allocations", "count"},
      {"vm.evictions", "count"},
      {"vm.recompiles_after_evict", "count"},
      {"vm.recompile_ratio", "ratio"},
      {"core.on_sample_ms", "ms"},
      {"core.samples", "count"},
      {"core.us_per_sample", "us"},
      {"core.opt_compilations", "count"},
      {"core.wakeups", "count"},
      {"core.compile_yield", "ratio"},
      {"core.sim_aos_pct", "%"},
      {"osr.hook_ms", "ms"},
      {"osr.hook_calls", "count"},
      {"osr.entries", "count"},
      {"osr.deopts", "count"},
      {"share.hit_ratio", "ratio"},
      {"share.publishes", "count"},
      {"share.duplicate_publishes", "count"},
      {"share.evictions", "count"},
      {"harness.steps", "count"},
      {"harness.cpu_util", "ratio"},
      {"trace_overhead_pct", "%"},
  };
  return Metrics;
}

int64_t perfbench::referenceResult(const aoci::Workload &W) {
  VirtualMachine VM(W.Prog);
  for (MethodId Entry : W.Entries)
    VM.addThread(Entry);
  VM.run();
  return VM.threads().front()->Result.asInt();
}

SimRecord perfbench::simRecordOf(const RunResult &R, bool LiveCode) {
  return {R.WallCycles, R.ProgramResult, R.OptBytesResident,
          R.OptCompileCycles,
          LiveCode ? R.LiveCodeBytes : R.OptBytesResident};
}
