//===- perfbench/runner/Composed.cpp - Traced runs from public calls ------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "workload/scenario/ScenarioWorkload.h"

#include <optional>

using namespace aoci;
using namespace perfbench;

namespace {

/// Sums the host time and calls of one hook.
struct HookTimer {
  uint64_t Ns = 0;
  uint64_t Calls = 0;

  template <typename Fn> auto time(Fn &&F) {
    ++Calls;
    const Clock::time_point Start = Clock::now();
    struct Stop {
      HookTimer &T;
      Clock::time_point Start;
      ~Stop() { T.Ns += nsBetween(Start, Clock::now()); }
    } S{*this, Start};
    return F();
  }
};

/// Times every sample delivered to the adaptive system.
class TimedSampleSink final : public SampleSink {
public:
  explicit TimedSampleSink(SampleSink &Inner) : Inner(Inner) {}
  TimedSampleSink(const TimedSampleSink &) = delete;
  TimedSampleSink &operator=(const TimedSampleSink &) = delete;
  void onSample(VirtualMachine &VM, ThreadState &Thread,
                bool AtPrologue) override {
    Timer.time([&] { Inner.onSample(VM, Thread, AtPrologue); });
  }
  HookTimer Timer;

private:
  SampleSink &Inner;
};

/// Times every call into the OSR manager.
class TimedOsrDriver final : public OsrDriver {
public:
  explicit TimedOsrDriver(OsrDriver &Inner) : Inner(Inner) {}
  TimedOsrDriver(const TimedOsrDriver &) = delete;
  TimedOsrDriver &operator=(const TimedOsrDriver &) = delete;
  bool onStaleBackedge(VirtualMachine &VM, ThreadState &T) override {
    return Timer.time([&] { return Inner.onStaleBackedge(VM, T); });
  }
  void onOsrFrameReturn(VirtualMachine &VM, ThreadState &T,
                        const Frame &Done) override {
    Timer.time([&] { Inner.onOsrFrameReturn(VM, T, Done); });
  }
  bool onEvictVariant(VirtualMachine &VM, const CodeVariant &V) override {
    return Timer.time([&] { return Inner.onEvictVariant(VM, V); });
  }
  HookTimer Timer;

private:
  OsrDriver &Inner;
};

} // namespace

int ComposedTrace::open(const char *Name, int Parent) {
  Spans.push_back({Name, Parent, 0, 1});
  return static_cast<int>(Spans.size()) - 1;
}

void ComposedTrace::close(int Id, Clock::time_point Start) {
  Spans[static_cast<size_t>(Id)].Ns = nsBetween(Start, Clock::now());
}

SimRecord ComposedTrace::run(const RunConfig &Config, bool LiveCode) {
  const Clock::time_point RunStart = Clock::now();
  const int Run = open("run", -1);

  Clock::time_point Start = Clock::now();
  int Id = open("workload.build", Run);
  Workload W = Config.Scenario
                   ? makeScenarioWorkload(*Config.Scenario, Config.Params)
                   : makeWorkload(Config.WorkloadName, Config.Params);
  close(Id, Start);

  Start = Clock::now();
  Id = open("vm.init", Run);
  VirtualMachine VM(W.Prog, Config.Model);
  std::unique_ptr<ContextPolicy> Policy =
      makePolicy(Config.Policy, Config.MaxDepth);
  AdaptiveSystem Aos(VM, *Policy, Config.Aos);
  Aos.attach();
  TimedSampleSink Sink(Aos);
  VM.setSampleSink(&Sink);
  std::optional<TimedOsrDriver> Osr;
  if (OsrDriver *Inner = VM.osrDriver()) {
    Osr.emplace(*Inner);
    VM.setOsrDriver(&*Osr);
  }
  for (MethodId Entry : W.Entries)
    VM.addThread(Entry);
  close(Id, Start);

  Start = Clock::now();
  Id = open("vm.run", Run);
  VM.run();
  close(Id, Start);
  Spans.push_back({"core.on_sample", Id, Sink.Timer.Ns, Sink.Timer.Calls});
  if (Osr)
    Spans.push_back({"osr.hook", Id, Osr->Timer.Ns, Osr->Timer.Calls});
  close(Run, RunStart);

  for (MethodId M = 0; M != W.Prog.numMethods(); ++M)
    Bytecodes += W.Prog.method(M).bytecodeCount();
  const ExecutionCounters &C = VM.counters();
  Vm.InstructionsExecuted += C.InstructionsExecuted;
  Vm.CallsExecuted += C.CallsExecuted;
  Vm.InlinedCallsEntered += C.InlinedCallsEntered;
  Vm.GuardTestsExecuted += C.GuardTestsExecuted;
  Vm.Allocations += C.Allocations;
  const CodeManager &Code = VM.codeManager();
  Evictions += Code.numEvictions();
  RecompilesAfterEvict += Code.recompilesAfterEvict();
  const AosStats &S = Aos.stats();
  OptCompilations += S.OptCompilations;
  Wakeups += S.MethodOrganizerWakeups + S.DcgOrganizerWakeups +
             S.DecayWakeups + S.MissingEdgeWakeups;
  CompileRequests += S.ControllerRequests + S.MissingEdgeRequests;
  for (unsigned K = 0; K != NumAosComponents; ++K)
    AosCycles += VM.overheadMeter().cycles(static_cast<AosComponent>(K));
  WallCycles += VM.cycles();
  OsrEntries += Aos.osrStats().OsrEntries;
  Deopts += Aos.osrStats().Deopts;

  return {VM.cycles(), VM.threads().front()->Result.asInt(),
          Code.optimizedBytesResident(), Code.optCompileCycles(),
          LiveCode ? Code.liveCodeBytes() : Code.optimizedBytesResident()};
}

void ComposedTrace::fill(LayerMetrics &Out) const {
  // A layer's self time is its spans' duration minus what their child
  // spans cover.
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[static_cast<size_t>(S.Parent)] += S.Ns;
  std::map<std::string, uint64_t> SelfNs, TotalNs, Calls;
  for (size_t I = 0; I != Spans.size(); ++I) {
    SelfNs[Spans[I].Name] += Spans[I].Ns - ChildNs[I];
    TotalNs[Spans[I].Name] += Spans[I].Ns;
    Calls[Spans[I].Name] += Spans[I].Calls;
  }
  auto Ms = [](uint64_t Ns) { return static_cast<double>(Ns) / 1e6; };
  auto Ratio = [](double Num, double Den) { return Den == 0 ? 0 : Num / Den; };
  const double Instr = static_cast<double>(Vm.InstructionsExecuted);

  Out["workload.build_ms"] = Ms(TotalNs["workload.build"]);
  Out["workload.bytecodes"] = static_cast<double>(Bytecodes);
  Out["vm.init_ms"] = Ms(TotalNs["vm.init"]);
  Out["vm.exec_self_ms"] = Ms(SelfNs["vm.run"]);
  Out["vm.ns_per_instr"] =
      Ratio(static_cast<double>(SelfNs["vm.run"]), Instr);
  Out["vm.instructions"] = Instr;
  Out["vm.calls"] = static_cast<double>(Vm.CallsExecuted);
  Out["vm.inlined_calls"] = static_cast<double>(Vm.InlinedCallsEntered);
  Out["vm.guard_tests"] = static_cast<double>(Vm.GuardTestsExecuted);
  Out["vm.allocations"] = static_cast<double>(Vm.Allocations);
  Out["vm.evictions"] = static_cast<double>(Evictions);
  Out["vm.recompiles_after_evict"] =
      static_cast<double>(RecompilesAfterEvict);
  Out["vm.recompile_ratio"] = Ratio(static_cast<double>(RecompilesAfterEvict),
                                    static_cast<double>(Evictions));
  const double Samples = static_cast<double>(Calls["core.on_sample"]);
  Out["core.on_sample_ms"] = Ms(TotalNs["core.on_sample"]);
  Out["core.samples"] = Samples;
  Out["core.us_per_sample"] =
      Ratio(static_cast<double>(TotalNs["core.on_sample"]) / 1e3, Samples);
  Out["core.opt_compilations"] = static_cast<double>(OptCompilations);
  Out["core.wakeups"] = static_cast<double>(Wakeups);
  Out["core.compile_yield"] = Ratio(static_cast<double>(OptCompilations),
                                    static_cast<double>(CompileRequests));
  Out["core.sim_aos_pct"] = 100.0 * Ratio(static_cast<double>(AosCycles),
                                          static_cast<double>(WallCycles));
  Out["osr.hook_ms"] = Ms(TotalNs["osr.hook"]);
  Out["osr.hook_calls"] = static_cast<double>(Calls["osr.hook"]);
  Out["osr.entries"] = static_cast<double>(OsrEntries);
  Out["osr.deopts"] = static_cast<double>(Deopts);
  Out["harness.steps"] = static_cast<double>(Calls["run"]);
}
