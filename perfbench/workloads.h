// The three benchmark workloads and what they share.
//
// Every workload runs in its own process (memory is counted per workload),
// makes its inputs from the seed before any timer starts, and reports either
// the end-to-end metrics (untraced run) or the per-layer metrics (traced
// run). Both runs check the workload's outputs.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "comm/compiled_plan.h"
#include "graph/csr_graph.h"
#include "lib.h"
#include "topology/topology.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome-trace file written by the traced run
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricSet metrics;

  // A correctness gate: a failed check is a failed operation.
  void Check(bool ok, const std::string& what);
};

// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 3;

// Prints "# <name> = <value> <unit> (n=<samples>)": the human-readable
// report lines above the result line, under the names the metric map uses.
void Report(const std::string& name, double value, const std::string& unit, size_t samples = 1);

// Tail percentile that the loop guaranteed enough samples for.
double Tail(const std::vector<double>& samples, double p);

// The planning pipeline that DgclContext::BuildCommInfo (or
// GraphService::Create) runs, called layer by layer through public functions
// on the same inputs, each call a span. Adds every partition.*, comm.*,
// planner.* and runtime.* per-layer metric; the engine passes run at `dim`.
struct LayerPipelineSpec {
  const dgcl::CsrGraph* graph = nullptr;
  dgcl::Topology topology;
  std::string strategy;  // PlannerOptions::strategy ("auto" allowed)
  uint32_t dim = 0;
  uint32_t passes = 0;  // timed forward + backward engine passes
  uint64_t seed = 0;
};
void RunLayerPipeline(const LayerPipelineSpec& spec, Tracer& tracer, RunResult& result);

// Per-layer metrics of layers a workload does not run, reported as 0 so
// every workload prints the same metric names.
void AddUnusedGnnMetrics(MetricSet& metrics, bool keep_infer);
void AddUnusedServiceMetrics(MetricSet& metrics);

// Simulated forward + backward time (ms) of a compiled plan at `dim`.
double SimulatedAllgatherMs(const dgcl::CompiledPlan& plan, const dgcl::Topology& topology,
                            uint32_t dim);

RunResult RunFullgraphTrain(const RunArgs& args, Tracer& tracer);
RunResult RunComm16Gpu(const RunArgs& args, Tracer& tracer);
RunResult RunServeOpen(const RunArgs& args, Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
