// comm-16gpu: the Com-Orkut-like stand-in on the 2x8 paper topology with
// planner.strategy = "auto". BuildCommInfo, then GraphAllgather +
// GraphAllgatherBackward round trips at dim 128 through the facade. No GNN
// compute.

#include <bit>
#include <cstdio>
#include <cstring>
#include <optional>

#include "common/rng.h"
#include "dgcl/dgcl.h"
#include "graph/generators.h"
#include "topology/presets.h"
#include "workloads.h"

namespace perfbench {

using namespace dgcl;

namespace {

constexpr uint32_t kInverseScale = 64;  // 65 k vertices, 2.3 M edges
constexpr uint32_t kDevices = 16;
constexpr uint32_t kDim = 128;
constexpr double kTailP = 0.9;
// The forward pass alone is short and its p90 swings with scheduling
// hiccups of the 16 engine threads on few cores; p75 keeps 25 samples
// beyond it.
constexpr double kForwardTailP = 0.75;

bool SameRow(const float* a, const float* b) {
  return std::memcmp(a, b, kDim * sizeof(float)) == 0;
}

// Every forward slot row equals its owner's row.
bool ForwardDelivers(const DgclContext& ctx, const EmbeddingMatrix& features,
                     const std::vector<EmbeddingMatrix>& slots) {
  const CommRelation& relation = ctx.artifacts().relation;
  for (uint32_t d = 0; d < relation.num_devices; ++d) {
    for (const auto* list : {&relation.local_vertices[d], &relation.remote_vertices[d]}) {
      for (VertexId v : *list) {
        const uint32_t slot = ctx.engine().SlotOf(d, v);
        if (slot == kInvalidId || slot >= slots[d].rows ||
            !SameRow(slots[d].Row(slot), features.Row(v))) {
          return false;
        }
      }
    }
  }
  return true;
}

// Backward outputs equal a direct per-owner accumulation: the owner's own
// slot gradient plus every destination's. Gradients are small integers, so
// the sums are exact in any order.
bool BackwardAccumulates(const DgclContext& ctx, const std::vector<EmbeddingMatrix>& grads,
                         const std::vector<EmbeddingMatrix>& out) {
  const CommRelation& relation = ctx.artifacts().relation;
  std::vector<float> expected(kDim);
  for (uint32_t o = 0; o < relation.num_devices; ++o) {
    const auto& locals = relation.local_vertices[o];
    if (out[o].rows != locals.size()) {
      return false;
    }
    for (uint32_t i = 0; i < locals.size(); ++i) {
      const VertexId v = locals[i];
      const float* own = grads[o].Row(ctx.engine().SlotOf(o, v));
      expected.assign(own, own + kDim);
      for (DeviceMask mask = relation.dest_mask[v]; mask != 0; mask &= mask - 1) {
        const uint32_t d = static_cast<uint32_t>(std::countr_zero(mask));
        const float* g = grads[d].Row(ctx.engine().SlotOf(d, v));
        for (uint32_t c = 0; c < kDim; ++c) {
          expected[c] += g[c];
        }
      }
      if (!SameRow(out[o].Row(i), expected.data())) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

RunResult RunComm16Gpu(const RunArgs& args, Tracer& tracer) {
  RunResult result;
  const CsrGraph graph = MakeDataset(DatasetId::kComOrkut, kInverseScale, args.seed).graph;
  const uint32_t n = graph.num_vertices();
  EmbeddingMatrix features = EmbeddingMatrix::Zero(n, kDim);
  Rng rng(args.seed * 104729 + 3);
  for (float& x : features.data) {
    x = rng.UniformFloat(-1.0f, 1.0f);
  }
  std::printf("# comm-16gpu: %u vertices, %llu edges, %u devices, dim %u, strategy auto\n", n,
              static_cast<unsigned long long>(graph.num_edges()), kDevices, kDim);

  DgclOptions options;
  options.planner.strategy = "auto";
  options.bytes_per_unit = kDim * sizeof(float);
  std::optional<DgclContext> ctx;
  std::vector<double> setup_s;
  const int setups = args.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < setups; ++i) {
    ctx.reset();
    auto span = tracer.Open("setup");
    const auto start = Clock::now();
    bool ok = false;
    {
      auto init_span = tracer.Open("dgcl.Init");
      auto c = DgclContext::Init(BuildPaperTopology(kDevices), options);
      if (c.ok()) {
        ctx.emplace(std::move(c).value());
      }
    }
    if (ctx) {
      auto build_span = tracer.Open("dgcl.BuildCommInfo");
      ok = ctx->BuildCommInfo(graph).ok();
    }
    setup_s.push_back(MsSince(start) * 1e-3);
    result.Check(ok, "setup: Init + BuildCommInfo");
    if (!ok) {
      return result;
    }
  }
  std::printf("# auto-selected strategy: %s\n",
              ctx->artifacts().selection.selected_strategy.c_str());

  // Inputs of the round trips: the dispatched features, and slot gradients
  // of small integers.
  auto dispatched = ctx->DispatchFeatures(features);
  result.Check(dispatched.ok(), "DispatchFeatures");
  if (!dispatched.ok()) {
    return result;
  }
  const std::vector<EmbeddingMatrix> local = std::move(dispatched).value();
  std::vector<EmbeddingMatrix> grads;
  for (uint32_t d = 0; d < kDevices; ++d) {
    EmbeddingMatrix g = EmbeddingMatrix::Zero(ctx->engine().NumContractSlots(d), kDim);
    for (float& x : g.data) {
      x = static_cast<float>(static_cast<int>(rng.UniformInt(17)) - 8);
    }
    grads.push_back(std::move(g));
  }

  // Checked warm-up round trip, outside the timers.
  {
    auto gate = tracer.Open("gate");
    auto slots = ctx->GraphAllgather(local);
    result.Check(slots.ok() && ForwardDelivers(*ctx, features, *slots),
                 "forward: every slot row equals its owner's row");
    auto back = ctx->GraphAllgatherBackward(grads);
    result.Check(back.ok() && BackwardAccumulates(*ctx, grads, *back),
                 "backward: outputs equal a direct per-owner accumulation");
    if (!result.correct) {
      return result;
    }
  }

  std::vector<double> round_ms, fwd_ms, traced_ms, untraced_ms;
  const size_t min_trips = args.trace ? 20 : MinSamplesForTail(kTailP);
  const double budget_ms = (args.trace ? 0.5 : 1.0) * args.seconds * 1e3;
  const auto loop_start = Clock::now();
  for (size_t i = 0; MsSince(loop_start) < budget_ms || round_ms.size() < min_trips; ++i) {
    const bool traced = i % 2 == 1;
    const auto start = Clock::now();
    auto trip = tracer.Open("round_trip", 0, traced);
    Result<std::vector<EmbeddingMatrix>> slots = Status::Internal("not run");
    {
      auto span = tracer.Open("dgcl.GraphAllgather", 0, traced);
      slots = ctx->GraphAllgather(local);
    }
    fwd_ms.push_back(MsSince(start));
    bool ok = slots.ok();
    if (ok) {
      auto span = tracer.Open("dgcl.GraphAllgatherBackward", 0, traced);
      ok = ctx->GraphAllgatherBackward(grads).ok();
    }
    round_ms.push_back(MsSince(start));
    (traced ? traced_ms : untraced_ms).push_back(round_ms.back());
    ++result.attempted;
    if (!ok) {
      result.Check(false, "round trip");
      return result;
    }
  }

  MetricSet& m = result.metrics;
  if (!args.trace) {
    double total_ms = 0.0;
    for (double t : round_ms) {
      total_ms += t;
    }
    const double sim_ms =
        SimulatedAllgatherMs(ctx->artifacts().compiled, ctx->topology(), kDim);
    m.Add("setup_s", Median(setup_s), "s");
    m.Add("peak_rss_mb", PeakRssMb(), "MB");
    m.Add("op_p50_ms", Median(round_ms), "ms");
    m.Add("op_tail_ms", Tail(round_ms, kTailP), "ms");
    m.Add("infer_p50_ms", Median(fwd_ms), "ms");
    m.Add("infer_tail_ms", Tail(fwd_ms, kForwardTailP), "ms");
    m.Add("goodput_per_s", static_cast<double>(round_ms.size()) / (total_ms * 1e-3), "1/s");
    m.Add("sim_allgather_ms", sim_ms, "ms");
    Report("setup_s", m.Get("setup_s"), "s", setup_s.size());
    Report("peak_rss_mb", m.Get("peak_rss_mb"), "MB");
    Report("allgather_p50_ms", m.Get("op_p50_ms"), "ms", round_ms.size());
    Report("allgather_p90_ms", m.Get("op_tail_ms"), "ms", round_ms.size());
    Report("forward_p50_ms", m.Get("infer_p50_ms"), "ms", fwd_ms.size());
    Report("forward_p75_ms", m.Get("infer_tail_ms"), "ms", fwd_ms.size());
    Report("round_trips_per_s", m.Get("goodput_per_s"), "1/s", round_ms.size());
    Report("sim_allgather_ms", sim_ms, "ms");
    return result;
  }

  RunLayerPipeline({&graph, BuildPaperTopology(kDevices), "auto", kDim, 10, args.seed}, tracer,
                   result);
  AddUnusedGnnMetrics(m, /*keep_infer=*/false);
  AddUnusedServiceMetrics(m);
  m.Add("telemetry.trace_overhead", Median(traced_ms) / Median(untraced_ms) - 1.0, "ratio");
  return result;
}

}  // namespace perfbench
