#include "gnn/trainer.h"

#include <algorithm>

#include "common/ids.h"
#include "common/logging.h"
#include "telemetry/trace.h"

namespace dgcl {
namespace {

// Rows [0, n) of `m` as a copy (drops forwarded-extra slot rows).
EmbeddingMatrix TrimRows(const EmbeddingMatrix& m, uint32_t n) {
  EmbeddingMatrix out = EmbeddingMatrix::Zero(n, m.dim);
  std::copy(m.data.begin(), m.data.begin() + static_cast<size_t>(n) * m.dim, out.data.begin());
  return out;
}

// A num_slots-row slot matrix holding `acts`' local rows [0, num_compute);
// the remote rows are left zero for the caller to fill.
EmbeddingMatrix LocalRowsFirst(const EmbeddingMatrix& acts, const LocalGraph& graph) {
  EmbeddingMatrix slots = EmbeddingMatrix::Zero(graph.num_slots, acts.dim);
  std::copy(acts.data.begin(),
            acts.data.begin() + static_cast<size_t>(graph.num_compute) * acts.dim,
            slots.data.begin());
  return slots;
}

uint32_t CountLabeled(const std::vector<uint32_t>& labels) {
  uint32_t n = 0;
  for (uint32_t label : labels) {
    if (label != kInvalidId) {
      ++n;
    }
  }
  return n;
}

}  // namespace

ModelReplica ModelReplica::Create(const TrainerOptions& options, uint32_t feature_dim,
                                  uint32_t num_classes) {
  ModelReplica replica;
  Rng rng(options.weight_seed);
  replica.layers = MakeLayerStack(options.model, feature_dim, options.hidden_dim,
                                  options.num_layers, rng);
  replica.head = RandomWeights(options.hidden_dim, num_classes, rng);
  replica.head_grad = EmbeddingMatrix::Zero(options.hidden_dim, num_classes);
  return replica;
}

std::vector<EmbeddingMatrix*> ModelReplica::Grads() {
  std::vector<EmbeddingMatrix*> grads;
  for (auto& layer : layers) {
    for (EmbeddingMatrix* g : layer->Grads()) {
      grads.push_back(g);
    }
  }
  grads.push_back(&head_grad);
  return grads;
}

void ModelReplica::ZeroGrads() {
  for (EmbeddingMatrix* g : Grads()) {
    std::fill(g->data.begin(), g->data.end(), 0.0f);
  }
}

void ModelReplica::Step(float learning_rate) {
  for (auto& layer : layers) {
    layer->Step(learning_rate);
  }
  for (size_t i = 0; i < head.data.size(); ++i) {
    head.data[i] -= learning_rate * head_grad.data[i];
  }
  std::fill(head_grad.data.begin(), head_grad.data.end(), 0.0f);
}

ReplicaWeights ModelReplica::Export() {
  ReplicaWeights weights;
  weights.layers.reserve(layers.size());
  for (auto& layer : layers) {
    std::vector<EmbeddingMatrix> params;
    for (EmbeddingMatrix* p : layer->Params()) {
      params.push_back(*p);
    }
    weights.layers.push_back(std::move(params));
  }
  weights.head = head;
  return weights;
}

Status ModelReplica::Import(const ReplicaWeights& weights) {
  auto same_shape = [](const EmbeddingMatrix& a, const EmbeddingMatrix& b) {
    return a.rows == b.rows && a.dim == b.dim;
  };
  if (weights.layers.size() != layers.size()) {
    return Status::InvalidArgument("ImportReplica: layer count mismatch");
  }
  std::vector<std::vector<EmbeddingMatrix*>> params(layers.size());
  for (size_t l = 0; l < layers.size(); ++l) {
    params[l] = layers[l]->Params();
    if (params[l].size() != weights.layers[l].size()) {
      return Status::InvalidArgument("ImportReplica: param count mismatch at layer " +
                                     std::to_string(l));
    }
    for (size_t g = 0; g < params[l].size(); ++g) {
      if (!same_shape(*params[l][g], weights.layers[l][g])) {
        return Status::InvalidArgument("ImportReplica: shape mismatch at layer " +
                                       std::to_string(l));
      }
    }
  }
  if (!same_shape(head, weights.head)) {
    return Status::InvalidArgument("ImportReplica: head shape mismatch");
  }
  for (size_t l = 0; l < layers.size(); ++l) {
    for (size_t g = 0; g < params[l].size(); ++g) {
      *params[l][g] = weights.layers[l][g];
    }
  }
  head = weights.head;
  return Status::Ok();
}

Result<MiniBatchModel> MiniBatchModel::Create(uint32_t feature_dim, uint32_t num_classes,
                                              TrainerOptions options) {
  if (feature_dim == 0 || num_classes == 0 || options.num_layers == 0) {
    return Status::InvalidArgument("need feature_dim, num_classes and num_layers >= 1");
  }
  MiniBatchModel model;
  model.options_ = options;
  model.model_ = ModelReplica::Create(options, feature_dim, num_classes);
  return model;
}

Result<EpochResult> MiniBatchModel::Pass(bool train, const LocalGraph& block,
                                         const EmbeddingMatrix& inputs,
                                         const std::vector<uint32_t>& labels) {
  if (block.num_slots != block.num_compute) {
    return Status::InvalidArgument(
        "mini-batch blocks must be fully local (num_slots == num_compute); got " +
        std::to_string(block.num_slots) + " slots for " + std::to_string(block.num_compute) +
        " compute rows");
  }
  if (inputs.rows != block.num_slots || labels.size() != block.num_compute) {
    return Status::InvalidArgument("inputs/labels must cover every block row");
  }
  if (CountLabeled(labels) == 0) {
    return Status::FailedPrecondition("no labeled vertices in the block");
  }
  if (train) {
    // Clear any partial accumulations a failed earlier step left behind.
    model_.ZeroGrads();
  }
  // Fully-local forward: each layer's output rows are the next layer's slot
  // rows directly (the InferenceForward schedule, kept inline here because
  // backward needs the stack's cached activations).
  EmbeddingMatrix acts = inputs;
  for (auto& layer : model_.layers) {
    acts = layer->Forward(block, acts);
  }

  EpochResult result;
  EmbeddingMatrix logits;
  Gemm(acts, model_.head, logits);
  EmbeddingMatrix dlogits;
  result.loss = SoftmaxCrossEntropy(logits, labels, dlogits);
  result.accuracy = Accuracy(logits, labels);
  if (!train) {
    return result;
  }

  EmbeddingMatrix dw;
  GemmTransposeA(acts, dlogits, dw);
  AddInPlace(model_.head_grad, dw);
  EmbeddingMatrix dacts;
  GemmTransposeB(dlogits, model_.head, dacts);
  for (size_t l = model_.layers.size(); l-- > 0;) {
    dacts = model_.layers[l]->Backward(block, dacts);
  }
  model_.Step(options_.learning_rate);
  return result;
}

Result<EpochResult> MiniBatchModel::Step(const LocalGraph& block, const EmbeddingMatrix& inputs,
                                         const std::vector<uint32_t>& labels) {
  return Pass(/*train=*/true, block, inputs, labels);
}

Result<EpochResult> MiniBatchModel::Evaluate(const LocalGraph& block,
                                             const EmbeddingMatrix& inputs,
                                             const std::vector<uint32_t>& labels) {
  return Pass(/*train=*/false, block, inputs, labels);
}

Result<DistributedTrainer> DistributedTrainer::Create(
    const CsrGraph& graph, const CommRelation& relation, const AllgatherEngine& engine,
    const EmbeddingMatrix& features, const std::vector<uint32_t>& labels, uint32_t num_classes,
    TrainerOptions options) {
  if (features.rows != graph.num_vertices() || labels.size() != graph.num_vertices()) {
    return Status::InvalidArgument("features/labels must cover every vertex");
  }
  if (options.num_layers == 0 || num_classes == 0) {
    return Status::InvalidArgument("need at least one layer and one class");
  }
  if (options.aggregate_every_r == 0) {
    return Status::InvalidArgument(
        "aggregate_every_r must be >= 1 (1 = synchronous, r = exchange every r-th epoch)");
  }
  DistributedTrainer trainer;
  trainer.relation_ = &relation;
  trainer.engine_ = &engine;
  trainer.options_ = options;
  trainer.num_classes_ = num_classes;

  trainer.devices_.reserve(relation.num_devices);
  for (uint32_t d = 0; d < relation.num_devices; ++d) {
    DeviceState dev;
    dev.graph = BuildLocalGraph(graph, relation, d);
    const auto& locals = relation.local_vertices[d];
    dev.features = EmbeddingMatrix::Zero(static_cast<uint32_t>(locals.size()), features.dim);
    for (uint32_t i = 0; i < locals.size(); ++i) {
      std::copy(features.Row(locals[i]), features.Row(locals[i]) + features.dim,
                dev.features.Row(i));
    }
    for (VertexId v : locals) {
      dev.labels.push_back(labels[v]);
    }
    dev.model = ModelReplica::Create(options, features.dim, num_classes);
    trainer.devices_.push_back(std::move(dev));
  }
  return trainer;
}

Status DistributedTrainer::ExchangeSlots(uint32_t layer, const std::vector<EmbeddingMatrix>& acts,
                                         std::vector<EmbeddingMatrix>& slots) const {
  if (engine_->options().overlap.num_chunks <= 1) {
    std::vector<EmbeddingMatrix> exchanged;
    {
      DGCL_TSPAN1("trainer", "layer.allgather", "layer", layer);
      DGCL_ASSIGN_OR_RETURN(exchanged, engine_->Forward(acts));
    }
    for (size_t d = 0; d < devices_.size(); ++d) {
      slots[d] = TrimRows(exchanged[d], devices_[d].graph.num_slots);
    }
    return Status::Ok();
  }
  // Overlapped exchange: consume each chunk as its flag publishes — the
  // first stage of aggregation (materializing the compute-side slot matrix)
  // runs while later chunks are still on the wire, instead of after the
  // pass barrier. Each callback fires on the receiving device's pass thread
  // and writes only that device's matrix, so callbacks race neither with
  // each other nor with this thread (which blocks in Forward until every
  // pass thread has joined). Rows land via the same copies the barrier path
  // makes, so the result is bit-identical; the neighbor-sum itself still
  // runs after the pass because reassociating it per arrival order would
  // break that guarantee.
  DGCL_TSPAN1("trainer", "layer.allgather.overlap", "layer", layer);
  for (size_t d = 0; d < devices_.size(); ++d) {
    slots[d] = LocalRowsFirst(acts[d], devices_[d].graph);
  }
  auto on_chunk = [&](const ChunkArrival& a) {
    const TransferOp& op = engine_->plan().ops[a.op];
    const uint32_t num_slots = devices_[a.device].graph.num_slots;
    EmbeddingMatrix& t = slots[a.device];
    for (uint32_t i = a.row_begin; i < a.row_end; ++i) {
      const uint32_t slot = engine_->SlotOf(a.device, op.vertices[i]);
      if (slot < num_slots) {
        std::copy(a.output->Row(slot), a.output->Row(slot) + a.dim, t.Row(slot));
      }
    }
  };
  return engine_->Forward(acts, on_chunk).status();
}

Result<EpochResult> DistributedTrainer::Pass(bool train, EmbeddingMatrix* all_logits,
                                             const EpochHooks& hooks) {
  const uint32_t devices = relation_->num_devices;
  DGCL_TSPAN2("trainer", train ? "epoch.train" : "epoch.eval", "devices", devices, "layers",
              options_.num_layers);
  if (train) {
    // A previous pass that failed mid-backward may have left partial
    // parameter-gradient accumulations behind (weights are only touched by
    // the all-or-nothing synchronized step, so *they* are always clean).
    // Re-zero so a retried epoch reproduces a fresh one exactly.
    for (DeviceState& dev : devices_) {
      dev.model.ZeroGrads();
    }
  }
  std::vector<EmbeddingMatrix> acts;
  acts.reserve(devices);
  for (const DeviceState& dev : devices_) {
    acts.push_back(dev.features);
  }

  // cd-r: a training epoch is stale when it is not a multiple of r and a
  // fresh exchange has already populated the remote-row cache; it reuses the
  // cached rows and skips both directions of communication. Eval passes are
  // always fresh.
  const bool stale = train && options_.aggregate_every_r > 1 &&
                     (train_epochs_ % options_.aggregate_every_r) != 0 &&
                     !devices_[0].stale_remote.empty();

  for (uint32_t l = 0; l < options_.num_layers; ++l) {
    // Layer l's slot inputs, one num_slots-row matrix per device, come from a
    // checkpoint, the cd-r cache or a fresh exchange; every way falls
    // through to the one compute loop at the bottom. `ckpt` is looked up
    // before this pass may save layer l, so a restore only ever reads a
    // snapshot an earlier pass took.
    std::vector<EmbeddingMatrix> slots(devices);
    const EmbeddingCheckpoint* ckpt =
        (hooks.checkpoints != nullptr && hooks.restore) ? hooks.checkpoints->Find(l) : nullptr;
    if (hooks.checkpoints != nullptr && l >= 1 && hooks.checkpoints->ShouldCheckpoint(l) &&
        hooks.checkpoints->Find(l) == nullptr) {
      // Snapshot the boundary *before* attempting the allgather: if the
      // exchange below dies, the retry resumes from this very layer.
      DGCL_TSPAN1("recovery", "recovery.checkpoint.save", "layer", l);
      const uint32_t dim = devices_[0].model.layers[l]->dim_in();
      EmbeddingMatrix global =
          EmbeddingMatrix::Zero(static_cast<uint32_t>(relation_->source.size()), dim);
      for (uint32_t d = 0; d < devices; ++d) {
        const auto& locals = relation_->local_vertices[d];
        for (uint32_t i = 0; i < locals.size(); ++i) {
          std::copy(acts[d].Row(i), acts[d].Row(i) + dim, global.Row(locals[i]));
        }
      }
      hooks.checkpoints->Save(l, std::move(global));
    }
    if (ckpt != nullptr) {
      // Restore path: the activations entering this layer were snapshotted by
      // the failed pass (weights unchanged since — see ExportReplica), so the
      // slot inputs come straight from the global checkpoint and this layer's
      // allgather is skipped. Local compute still runs, keeping every layer's
      // backward cache exact.
      DGCL_TSPAN1("recovery", "recovery.restore.layer", "layer", l);
      for (uint32_t d = 0; d < devices; ++d) {
        slots[d] = EmbeddingMatrix::Zero(devices_[d].graph.num_slots, ckpt->acts.dim);
        uint32_t row = 0;
        for (VertexId v : relation_->local_vertices[d]) {
          std::copy(ckpt->acts.Row(v), ckpt->acts.Row(v) + ckpt->acts.dim, slots[d].Row(row++));
        }
        for (VertexId v : relation_->remote_vertices[d]) {
          std::copy(ckpt->acts.Row(v), ckpt->acts.Row(v) + ckpt->acts.dim, slots[d].Row(row++));
        }
      }
    } else if (stale) {
      // Stale epoch: fresh local rows plus the remote rows cached at the last
      // exchange; no communication for this layer.
      DGCL_TSPAN1("trainer", "layer.stale_reuse", "layer", l);
      for (uint32_t d = 0; d < devices; ++d) {
        const EmbeddingMatrix& cached = devices_[d].stale_remote[l];
        slots[d] = LocalRowsFirst(acts[d], devices_[d].graph);
        std::copy(cached.data.begin(), cached.data.end(),
                  slots[d].data.begin() +
                      static_cast<size_t>(devices_[d].graph.num_compute) * slots[d].dim);
      }
    } else {
      DGCL_RETURN_IF_ERROR(ExchangeSlots(l, acts, slots));
      if (train && options_.aggregate_every_r > 1) {
        // Refresh the cache the stale epochs reuse until the next exchange.
        for (uint32_t d = 0; d < devices; ++d) {
          const LocalGraph& g = devices_[d].graph;
          EmbeddingMatrix cached = EmbeddingMatrix::Zero(g.num_slots - g.num_compute, slots[d].dim);
          std::copy(slots[d].data.begin() + static_cast<size_t>(g.num_compute) * slots[d].dim,
                    slots[d].data.end(), cached.data.begin());
          devices_[d].stale_remote.resize(options_.num_layers);
          devices_[d].stale_remote[l] = std::move(cached);
        }
      }
    }
    DGCL_TSPAN1("trainer", "layer.compute", "layer", l);
    for (uint32_t d = 0; d < devices; ++d) {
      acts[d] = devices_[d].model.layers[l]->Forward(devices_[d].graph, slots[d]);
    }
  }

  // Classification head and loss.
  uint32_t total_labeled = 0;
  for (const DeviceState& dev : devices_) {
    total_labeled += CountLabeled(dev.labels);
  }
  if (total_labeled == 0) {
    return Status::FailedPrecondition("no labeled vertices");
  }

  EpochResult result;
  std::vector<EmbeddingMatrix> dlogits(devices);
  std::vector<EmbeddingMatrix> logits(devices);
  double weighted_accuracy = 0.0;
  for (uint32_t d = 0; d < devices; ++d) {
    const DeviceState& dev = devices_[d];
    Gemm(acts[d], dev.model.head, logits[d]);
    const uint32_t counted = CountLabeled(dev.labels);
    EmbeddingMatrix grad;
    const double device_loss = SoftmaxCrossEntropy(logits[d], dev.labels, grad);
    const double share = static_cast<double>(counted) / total_labeled;
    result.loss += device_loss * share;
    weighted_accuracy += Accuracy(logits[d], dev.labels) * share;
    // Rescale from per-device mean to the global mean.
    ScaleInPlace(grad, static_cast<float>(share));
    dlogits[d] = std::move(grad);
  }
  result.accuracy = weighted_accuracy;

  if (all_logits != nullptr) {
    *all_logits = EmbeddingMatrix::Zero(
        static_cast<uint32_t>(relation_->source.size()), num_classes_);
    for (uint32_t d = 0; d < devices; ++d) {
      const auto& locals = relation_->local_vertices[d];
      for (uint32_t i = 0; i < locals.size(); ++i) {
        std::copy(logits[d].Row(i), logits[d].Row(i) + num_classes_,
                  all_logits->Row(locals[i]));
      }
    }
  }
  if (!train) {
    return result;
  }

  // Backward through the head.
  std::vector<EmbeddingMatrix> dacts(devices);
  for (uint32_t d = 0; d < devices; ++d) {
    ModelReplica& model = devices_[d].model;
    EmbeddingMatrix dw;
    GemmTransposeA(acts[d], dlogits[d], dw);
    AddInPlace(model.head_grad, dw);
    GemmTransposeB(dlogits[d], model.head, dacts[d]);
  }

  // Backward through the GNN layers, routing remote gradients home.
  for (uint32_t l = options_.num_layers; l-- > 0;) {
    std::vector<EmbeddingMatrix> dslots(devices);
    {
      DGCL_TSPAN1("trainer", "layer.bwd.compute", "layer", l);
      for (uint32_t d = 0; d < devices; ++d) {
        dslots[d] = devices_[d].model.layers[l]->Backward(devices_[d].graph, dacts[d]);
      }
    }
    if (stale) {
      // cd-r: the delayed remote-gradient contributions are dropped; every
      // owner keeps the gradient its own compute produced for its local
      // rows, and no exchange runs.
      DGCL_TSPAN1("trainer", "layer.bwd.stale_local", "layer", l);
      for (uint32_t d = 0; d < devices; ++d) {
        dacts[d] = TrimRows(dslots[d], devices_[d].graph.num_compute);
      }
      continue;
    }
    DGCL_TSPAN1("trainer", "layer.bwd.allgather", "layer", l);
    DGCL_ASSIGN_OR_RETURN(dacts, engine_->Backward(dslots));
  }

  // Gradient synchronization across replicas, then step: a serial sum in
  // device order per parameter, copied back to every replica. Each device's
  // parameter gradient is a *partial sum* over its local vertices of the
  // globally-normalized loss, so the reduce is a sum, not a mean — summing
  // reproduces the single-device gradient exactly.
  DGCL_TSPAN("trainer", "grad.sync");
  std::vector<std::vector<EmbeddingMatrix*>> grads;
  grads.reserve(devices);
  for (DeviceState& dev : devices_) {
    grads.push_back(dev.model.Grads());
  }
  for (size_t g = 0; g < grads[0].size(); ++g) {
    for (uint32_t d = 1; d < devices; ++d) {
      AddInPlace(*grads[0][g], *grads[d][g]);
    }
    for (uint32_t d = 1; d < devices; ++d) {
      *grads[d][g] = *grads[0][g];
    }
  }
  for (DeviceState& dev : devices_) {
    dev.model.Step(options_.learning_rate);
  }
  return result;
}

Result<EpochResult> DistributedTrainer::TrainEpoch() { return TrainEpoch(EpochHooks{}); }

Result<EpochResult> DistributedTrainer::TrainEpoch(const EpochHooks& hooks) {
  Result<EpochResult> result = Pass(/*train=*/true, nullptr, hooks);
  if (result.ok()) {
    ++train_epochs_;  // only completed epochs advance the cd-r schedule
  }
  return result;
}

Result<EpochResult> DistributedTrainer::Evaluate() { return Pass(/*train=*/false, nullptr); }

ReplicaWeights DistributedTrainer::ExportReplica(uint32_t device) {
  DGCL_CHECK(device < devices_.size());
  return devices_[device].model.Export();
}

Status DistributedTrainer::ImportReplica(const ReplicaWeights& weights) {
  // Every replica has the same shapes, so the first Import's checks cover
  // them all: a mismatch returns before any replica is written.
  for (DeviceState& dev : devices_) {
    DGCL_RETURN_IF_ERROR(dev.model.Import(weights));
  }
  return Status::Ok();
}

Result<EmbeddingMatrix> DistributedTrainer::Logits() {
  EmbeddingMatrix logits;
  DGCL_ASSIGN_OR_RETURN(EpochResult unused, Pass(/*train=*/false, &logits));
  (void)unused;
  return logits;
}

}  // namespace dgcl
