// What the workloads share: result bookkeeping, the report lines, and the
// layer-by-layer planning pipeline of the traced run.

#include <algorithm>
#include <cstdio>

#include "comm/compiled_plan.h"
#include "comm/plan.h"
#include "comm/relation.h"
#include "common/rng.h"
#include "partition/hierarchical.h"
#include "partition/multilevel.h"
#include "runtime/allgather_engine.h"
#include "sim/network_sim.h"
#include "sim/planner_select.h"
#include "workloads.h"

namespace perfbench {

using namespace dgcl;

void RunResult::Check(bool ok, const std::string& what) {
  ++attempted;
  std::printf("# check %-60s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  if (!ok) {
    ++failed;
    correct = false;
  }
}

void Report(const std::string& name, double value, const std::string& unit, size_t samples) {
  std::printf("# %-40s = %14.6f %-6s (n=%zu)\n", name.c_str(), value, unit.c_str(), samples);
}

double Tail(const std::vector<double>& samples, double p) {
  std::optional<double> tail = TailPercentile(samples, p);
  if (!tail) {
    std::fprintf(stderr, "perfbench: p%g needs %zu samples, have %zu\n", p * 100,
                 MinSamplesForTail(p), samples.size());
    std::abort();
  }
  return *tail;
}

namespace {

// The registry strategies the pipeline times one by one. A fixed list, so the
// per-layer metric names stay the same when the registry grows.
const std::vector<std::string>& TimedStrategies() {
  static const std::vector<std::string> kNames = {"spst",  "p2p",          "swap",
                                                  "ring",  "broadcast-1d", "broadcast-1.5d"};
  return kNames;
}

}  // namespace

double SimulatedAllgatherMs(const CompiledPlan& plan, const Topology& topology, uint32_t dim) {
  NetworkSimOptions sim;
  sim.bytes_per_unit = static_cast<double>(dim) * sizeof(float);
  const double fwd = SimulateTransfer(plan, topology, sim, PassDirection::kForward).total_seconds;
  const double bwd = SimulateTransfer(plan, topology, sim, PassDirection::kBackward).total_seconds;
  return (fwd + bwd) * 1e3;
}

void RunLayerPipeline(const LayerPipelineSpec& spec, Tracer& tracer, RunResult& result) {
  MetricSet& m = result.metrics;
  const CsrGraph& graph = *spec.graph;
  const double bytes_per_unit = static_cast<double>(spec.dim) * sizeof(float);
  auto root = tracer.Open("layers");

  Partitioning partitioning;
  {
    auto span = tracer.Open("partition.PartitionForTopology");
    MultilevelPartitioner inner;
    auto p = PartitionForTopology(graph, spec.topology, inner);
    result.Check(p.ok(), "layers: PartitionForTopology");
    if (!p.ok()) {
      return;
    }
    partitioning = std::move(p).value();
  }
  CommRelation relation;
  {
    auto span = tracer.Open("comm.BuildCommRelation");
    auto r = BuildCommRelation(graph, partitioning);
    result.Check(r.ok(), "layers: BuildCommRelation");
    if (!r.ok()) {
      return;
    }
    relation = std::move(r).value();
  }
  CommClasses classes;
  {
    auto span = tracer.Open("comm.BuildCommClasses");
    classes = BuildCommClasses(relation);
  }

  PlannerOptions options;
  options.strategy = spec.strategy;
  ClassPlan class_plan;
  {
    auto span = tracer.Open("planner.PlanWithStrategy");
    auto p = PlanWithStrategy(options, classes, spec.topology, bytes_per_unit);
    result.Check(p.ok(), "layers: PlanWithStrategy(" + spec.strategy + ")");
    if (!p.ok()) {
      return;
    }
    class_plan = std::move(p).value();
  }
  // Each strategy forced once; one that cannot plan this workload is timed
  // to its failure.
  for (const std::string& name : TimedStrategies()) {
    PlannerOptions forced;
    forced.strategy = name;
    auto span = tracer.Open("planner.PlanWithStrategy." + name);
    (void)PlanWithStrategy(forced, classes, spec.topology, bytes_per_unit);
  }
  {
    auto span = tracer.Open("comm.ExpandClassPlan+ValidatePlan");
    CommPlan plan = ExpandClassPlan(class_plan, classes);
    result.Check(ValidatePlan(plan, relation, spec.topology).ok(), "layers: ValidatePlan");
  }
  CompiledPlan compiled;
  {
    auto span = tracer.Open("comm.CompilePlan");
    compiled = CompilePlan(class_plan, classes, spec.topology);
    AssignBackwardSubstages(compiled);
  }
  const uint32_t stages = compiled.num_stages;
  const size_t ops = compiled.ops.size();
  const uint64_t table_bytes = compiled.TableBytes();
  uint64_t units_per_pass = 0;
  for (const TransferOp& op : compiled.ops) {
    units_per_pass += op.vertices.size();
  }

  std::optional<AllgatherEngine> engine;
  {
    auto span = tracer.Open("runtime.AllgatherEngine::Create");
    auto e = AllgatherEngine::Create(relation, std::move(compiled), spec.topology);
    result.Check(e.ok(), "layers: AllgatherEngine::Create");
    if (!e.ok()) {
      return;
    }
    engine.emplace(std::move(e).value());
  }
  std::vector<EmbeddingMatrix> local;
  Rng rng(spec.seed);
  for (uint32_t d = 0; d < relation.num_devices; ++d) {
    EmbeddingMatrix x =
        EmbeddingMatrix::Zero(static_cast<uint32_t>(relation.local_vertices[d].size()), spec.dim);
    for (float& v : x.data) {
      v = rng.UniformFloat(-1.0f, 1.0f);
    }
    local.push_back(std::move(x));
  }
  auto connection_totals = [&] {
    uint64_t transmits = 0;
    uint64_t retries = 0;
    for (size_t i = 0; i < engine->connections().size(); ++i) {
      transmits += engine->connections().connection(i).stats().transmits;
      retries += engine->connections().connection(i).stats().retries;
    }
    return std::make_pair(transmits, retries);
  };
  const auto before = connection_totals();
  auto timed = [&tracer](const char* name, auto&& call) {
    auto span = tracer.Open(name);
    return call();
  };
  bool passes_ok = true;
  for (uint32_t i = 0; i < spec.passes && passes_ok; ++i) {
    auto slots = timed("runtime.AllgatherEngine::Forward", [&] { return engine->Forward(local); });
    passes_ok = slots.ok() && timed("runtime.AllgatherEngine::Backward", [&] {
                                return engine->Backward(*slots);
                              }).ok();
  }
  result.Check(passes_ok, "layers: engine passes");
  const auto after = connection_totals();

  const double bytes_per_pass = static_cast<double>(units_per_pass) * bytes_per_unit;
  const double fwd_ms = tracer.MedianMs("runtime.AllgatherEngine::Forward");
  uint64_t remote_rows = 0;
  size_t max_locals = 0;
  for (uint32_t d = 0; d < relation.num_devices; ++d) {
    remote_rows += relation.remote_vertices[d].size();
    max_locals = std::max(max_locals, relation.local_vertices[d].size());
  }
  const double mean_locals =
      static_cast<double>(graph.num_vertices()) / static_cast<double>(relation.num_devices);

  m.Add("partition.ms", tracer.MedianMs("partition.PartitionForTopology"), "ms");
  m.Add("partition.edge_cut", static_cast<double>(EvaluatePartition(graph, partitioning).edge_cut),
        "count");
  m.Add("partition.remote_rows", static_cast<double>(remote_rows), "count");
  m.Add("partition.imbalance", static_cast<double>(max_locals) / mean_locals, "ratio");
  m.Add("comm.relation_ms", tracer.MedianMs("comm.BuildCommRelation"), "ms");
  m.Add("comm.classes_ms", tracer.MedianMs("comm.BuildCommClasses"), "ms");
  m.Add("comm.expand_validate_ms", tracer.MedianMs("comm.ExpandClassPlan+ValidatePlan"), "ms");
  m.Add("comm.compile_ms", tracer.MedianMs("comm.CompilePlan"), "ms");
  m.Add("comm.classes", static_cast<double>(classes.classes.size()), "count");
  m.Add("comm.ops", static_cast<double>(ops), "count");
  m.Add("comm.table_bytes", static_cast<double>(table_bytes), "B");
  m.Add("planner.plan_ms", tracer.MedianMs("planner.PlanWithStrategy"), "ms");
  for (const std::string& name : TimedStrategies()) {
    m.Add("planner." + name + "_ms", tracer.MedianMs("planner.PlanWithStrategy." + name), "ms");
  }
  m.Add("planner.planned_cost_ms", class_plan.planned_cost_seconds * 1e3, "ms");
  m.Add("planner.stages", stages, "count");
  m.Add("runtime.arm_ms", tracer.MedianMs("runtime.AllgatherEngine::Create"), "ms");
  m.Add("runtime.fwd_p50_ms", fwd_ms, "ms");
  m.Add("runtime.bwd_p50_ms", tracer.MedianMs("runtime.AllgatherEngine::Backward"), "ms");
  m.Add("runtime.bytes_per_pass", bytes_per_pass, "B");
  m.Add("runtime.transmits_per_pass",
        static_cast<double>(after.first - before.first) / (2.0 * spec.passes), "count");
  m.Add("runtime.retries", static_cast<double>(after.second - before.second), "count");
  m.Add("runtime.fwd_gbps", fwd_ms > 0 ? bytes_per_pass * 8.0 / (fwd_ms * 1e-3) / 1e9 : 0.0,
        "Gbit/s");
}

void AddUnusedGnnMetrics(MetricSet& metrics, bool keep_infer) {
  metrics.Add("gnn.trainer_create_ms", 0.0, "ms");
  metrics.Add("gnn.compute_ms", 0.0, "ms");
  metrics.Add("gnn.eval_ms", 0.0, "ms");
  metrics.Add("gnn.single_device_epoch_ms", 0.0, "ms");
  if (!keep_infer) {
    metrics.Add("gnn.infer_ms", 0.0, "ms");
  }
}

void AddUnusedServiceMetrics(MetricSet& metrics) {
  for (const char* name :
       {"service.create_ms", "service.queue_p50_ms", "service.queue_p99_ms",
        "service.work_p50_ms", "service.serve_sync_ms", "service.generator_late_ms"}) {
    metrics.Add(name, 0.0, "ms");
  }
  metrics.Add("service.cache_hit_rate", 0.0, "ratio");
  for (const char* name :
       {"service.cache_hits", "service.cache_misses", "service.cache_evictions",
        "service.remote_rows_per_req", "service.fetch_messages_per_req",
        "service.fetch_coalesced_per_req", "service.steady.sent", "service.steady.ok",
        "service.steady.shed", "service.steady.unavailable", "service.steady.dropped",
        "service.overload.sent", "service.overload.ok", "service.overload.shed",
        "service.overload.unavailable", "service.overload.dropped"}) {
    metrics.Add(name, 0.0, "count");
  }
  metrics.Add("service.fetch_bytes_per_req", 0.0, "B");
  metrics.Add("service.steady.achieved_rps", 0.0, "1/s");
  metrics.Add("service.overload.achieved_rps", 0.0, "1/s");
}

}  // namespace perfbench
