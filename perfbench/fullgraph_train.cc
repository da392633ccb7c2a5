// fullgraph-train: the paper's pipeline on the dense Reddit-like stand-in.
// DgclContext::Init + BuildCommInfo (SPST) on the 4-GPU paper topology, then
// DistributedTrainer GCN epochs at feature/hidden dim 64, each followed by a
// forward-only Evaluate.

#include <cmath>
#include <cstdio>
#include <optional>

#include "common/rng.h"
#include "dgcl/dgcl.h"
#include "gnn/trainer.h"
#include "graph/generators.h"
#include "topology/presets.h"
#include "workloads.h"

namespace perfbench {

using namespace dgcl;

namespace {

constexpr uint32_t kInverseScale = 32;  // 8 k vertices, 2.8 M edges
constexpr uint32_t kDevices = 4;
constexpr uint32_t kDim = 64;
constexpr uint32_t kClasses = 8;
constexpr uint32_t kLayers = 2;
constexpr double kTailP = 0.75;
constexpr size_t kDigestEpochs = 3;

struct TrainInputs {
  CsrGraph graph;
  EmbeddingMatrix features;
  std::vector<uint32_t> labels;
  TrainerOptions trainer;
};

TrainInputs MakeInputs(uint64_t seed) {
  TrainInputs in;
  in.graph = MakeDataset(DatasetId::kReddit, kInverseScale, seed).graph;
  const uint32_t n = in.graph.num_vertices();
  Rng rng(seed * 7919 + 1);
  in.features = EmbeddingMatrix::Zero(n, kDim);
  in.labels.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    in.labels[v] = static_cast<uint32_t>(rng.UniformInt(kClasses));
    for (uint32_t c = 0; c < kDim; ++c) {
      in.features.Row(v)[c] = rng.UniformFloat(-0.5f, 0.5f);
    }
    in.features.Row(v)[in.labels[v]] += 0.8f;
  }
  in.trainer.model = GnnModel::kGcn;
  in.trainer.num_layers = kLayers;
  in.trainer.hidden_dim = kDim;
  in.trainer.weight_seed = seed;
  return in;
}

// A deployed trainer. The trainer points into the context, so it is declared
// after it and destroyed first.
struct Deployment {
  std::optional<DgclContext> ctx;
  std::optional<DistributedTrainer> trainer;
};

// Init + BuildCommInfo + DistributedTrainer::Create; `prefix` names the spans.
bool Deploy(const TrainInputs& in, uint32_t devices, const std::string& prefix, Tracer& tracer,
            Deployment& out) {
  out.trainer.reset();
  out.ctx.reset();
  DgclOptions options;
  options.bytes_per_unit = kDim * sizeof(float);
  {
    auto span = tracer.Open(prefix + "dgcl.Init");
    auto ctx = DgclContext::Init(BuildPaperTopology(devices), options);
    if (!ctx.ok()) {
      return false;
    }
    out.ctx.emplace(std::move(ctx).value());
  }
  {
    auto span = tracer.Open(prefix + "dgcl.BuildCommInfo");
    if (!out.ctx->BuildCommInfo(in.graph).ok()) {
      return false;
    }
  }
  auto span = tracer.Open(prefix + "gnn.DistributedTrainer::Create");
  auto trainer = DistributedTrainer::Create(in.graph, out.ctx->artifacts().relation,
                                            out.ctx->engine(), in.features, in.labels, kClasses,
                                            in.trainer);
  if (!trainer.ok()) {
    return false;
  }
  out.trainer.emplace(std::move(trainer).value());
  return true;
}

uint64_t LossDigest(const std::vector<double>& losses) {
  return Fnv1a(losses.data(), losses.size() * sizeof(double));
}

}  // namespace

RunResult RunFullgraphTrain(const RunArgs& args, Tracer& tracer) {
  RunResult result;
  const TrainInputs in = MakeInputs(args.seed);
  std::printf("# fullgraph-train: %u vertices, %llu edges, %u devices, dim %u\n",
              in.graph.num_vertices(), static_cast<unsigned long long>(in.graph.num_edges()),
              kDevices, kDim);

  // Set-up, repeated for a median (once when traced).
  Deployment dep;
  std::vector<double> setup_s;
  const int setups = args.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < setups; ++i) {
    auto span = tracer.Open("setup");
    const auto start = Clock::now();
    const bool ok = Deploy(in, kDevices, "", tracer, dep);
    setup_s.push_back(MsSince(start) * 1e-3);
    result.Check(ok, "setup: Init + BuildCommInfo + DistributedTrainer::Create");
    if (!ok) {
      return result;
    }
  }

  // Warm-up epoch (its loss is the first of the trajectory), then epochs
  // each followed by a forward-only Evaluate. The traced run alternates
  // traced and untraced iterations to measure the tracing overhead.
  std::vector<double> losses;
  std::vector<double> epoch_ms, eval_ms, traced_ms, untraced_ms;
  auto warm = dep.trainer->TrainEpoch();
  result.Check(warm.ok(), "warm-up TrainEpoch");
  if (!warm.ok()) {
    return result;
  }
  losses.push_back(warm->loss);
  const size_t min_epochs = args.trace ? 10 : MinSamplesForTail(kTailP);
  const double budget_ms = (args.trace ? 0.5 : 1.0) * args.seconds * 1e3;
  const auto loop_start = Clock::now();
  for (size_t i = 0; MsSince(loop_start) < budget_ms || epoch_ms.size() < min_epochs; ++i) {
    const bool traced = i % 2 == 1;
    auto start = Clock::now();
    Result<EpochResult> epoch = Status::Internal("not run");
    {
      auto span = tracer.Open("gnn.TrainEpoch", 0, traced);
      epoch = dep.trainer->TrainEpoch();
    }
    epoch_ms.push_back(MsSince(start));
    (traced ? traced_ms : untraced_ms).push_back(epoch_ms.back());
    ++result.attempted;
    if (!epoch.ok()) {
      result.Check(false, "TrainEpoch: " + epoch.status().ToString());
      return result;
    }
    losses.push_back(epoch->loss);
    start = Clock::now();
    Result<EpochResult> eval = Status::Internal("not run");
    {
      auto span = tracer.Open("gnn.Evaluate", 0, traced);
      eval = dep.trainer->Evaluate();
    }
    eval_ms.push_back(MsSince(start));
    ++result.attempted;
    if (!eval.ok()) {
      result.Check(false, "Evaluate: " + eval.status().ToString());
      return result;
    }
  }

  // Correctness gates, outside the timers.
  {
    auto gate = tracer.Open("gate");
    Deployment single;
    const bool ok = Deploy(in, 1, "gate.single_device.", tracer, single);
    result.Check(ok, "1-device deployment");
    if (ok) {
      std::vector<double> single_ms;
      double first_loss = 0.0;
      for (int e = 0; e < (args.trace ? 3 : 1); ++e) {
        const auto start = Clock::now();
        auto r = single.trainer->TrainEpoch();
        single_ms.push_back(MsSince(start));
        result.Check(r.ok(), "1-device TrainEpoch");
        if (!r.ok()) {
          break;
        }
        if (e == 0) {
          first_loss = r->loss;
        }
      }
      const double tol = 1e-5 * std::max(1.0, std::fabs(first_loss));
      result.Check(std::fabs(first_loss - losses[0]) <= tol,
                   "first-epoch loss matches the 1-device run");
      if (args.trace) {
        result.metrics.Add("gnn.single_device_epoch_ms", Median(single_ms), "ms");
      }
    }

    auto rerun = DistributedTrainer::Create(in.graph, dep.ctx->artifacts().relation,
                                            dep.ctx->engine(), in.features, in.labels, kClasses,
                                            in.trainer);
    result.Check(rerun.ok(), "second trainer");
    std::vector<double> rerun_losses;
    for (size_t e = 0; rerun.ok() && e < kDigestEpochs; ++e) {
      auto r = rerun->TrainEpoch();
      if (!r.ok()) {
        break;
      }
      rerun_losses.push_back(r->loss);
    }
    const std::vector<double> first(losses.begin(), losses.begin() + kDigestEpochs);
    std::printf("# loss-trajectory digest %016llx\n",
                static_cast<unsigned long long>(LossDigest(first)));
    result.Check(LossDigest(rerun_losses) == LossDigest(first),
                 "loss-trajectory digest identical across runs");
  }

  const double epoch_p50 = Median(epoch_ms);
  const double eval_p50 = Median(eval_ms);
  MetricSet& m = result.metrics;
  if (!args.trace) {
    double total_ms = 0.0;
    for (double t : epoch_ms) {
      total_ms += t;
    }
    const double sim_ms = SimulatedAllgatherMs(dep.ctx->artifacts().compiled,
                                               dep.ctx->topology(), kDim);
    m.Add("setup_s", Median(setup_s), "s");
    m.Add("peak_rss_mb", PeakRssMb(), "MB");
    m.Add("op_p50_ms", epoch_p50, "ms");
    m.Add("op_tail_ms", Tail(epoch_ms, kTailP), "ms");
    m.Add("infer_p50_ms", eval_p50, "ms");
    m.Add("infer_tail_ms", Tail(eval_ms, kTailP), "ms");
    m.Add("goodput_per_s", static_cast<double>(epoch_ms.size()) / (total_ms * 1e-3), "1/s");
    m.Add("sim_allgather_ms", sim_ms, "ms");
    Report("setup_s", m.Get("setup_s"), "s", setup_s.size());
    Report("peak_rss_mb", m.Get("peak_rss_mb"), "MB");
    Report("epoch_ms", epoch_p50, "ms", epoch_ms.size());
    Report("epoch_p75_ms", m.Get("op_tail_ms"), "ms", epoch_ms.size());
    Report("eval_ms", eval_p50, "ms", eval_ms.size());
    Report("eval_p75_ms", m.Get("infer_tail_ms"), "ms", eval_ms.size());
    Report("epochs_per_s", m.Get("goodput_per_s"), "1/s", epoch_ms.size());
    Report("sim_allgather_ms", sim_ms, "ms");
    return result;
  }

  RunLayerPipeline({&in.graph, BuildPaperTopology(kDevices), "spst", kDim, 10, args.seed}, tracer,
                   result);
  // One epoch runs kLayers forward and kLayers backward engine passes at dim
  // kDim; the rest of it is GNN compute.
  const double passes_ms = kLayers * (m.Get("runtime.fwd_p50_ms") + m.Get("runtime.bwd_p50_ms"));
  m.Add("gnn.trainer_create_ms", tracer.MedianMs("gnn.DistributedTrainer::Create"), "ms");
  m.Add("gnn.compute_ms", epoch_p50 - passes_ms, "ms");
  m.Add("gnn.eval_ms", eval_p50, "ms");
  m.Add("gnn.infer_ms", 0.0, "ms");
  AddUnusedServiceMetrics(m);
  m.Add("telemetry.trace_overhead", Median(traced_ms) / Median(untraced_ms) - 1.0, "ratio");
  return result;
}

}  // namespace perfbench
