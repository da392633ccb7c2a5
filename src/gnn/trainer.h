// Distributed full-graph GNN training (§2, §6.3).
//
// Execution per epoch, exactly the transfer-compute schedule of the paper:
// for each layer, run graphAllgather to materialize remote embeddings, do the
// graph aggregation + DNN update on local rows, and drop the remote rows
// before the next dense op. The backward pass routes remote-vertex gradients
// back to their owners through the same plan in reverse. Each device holds a
// ModelReplica; gradients are summed across replicas every step (the paper
// defers this to Horovod/DDP; GNN weights are small).
//
// Device math runs sequentially in the calling thread (the per-device model
// state is identical either way); the embedding exchange itself runs on the
// threaded AllgatherEngine with the decentralized flag protocol.

#ifndef DGCL_GNN_TRAINER_H_
#define DGCL_GNN_TRAINER_H_

#include <memory>
#include <vector>

#include "comm/relation.h"
#include "common/status.h"
#include "gnn/layers.h"
#include "gnn/local_graph.h"
#include "runtime/allgather_engine.h"
#include "runtime/recovery.h"

namespace dgcl {

struct TrainerOptions {
  GnnModel model = GnnModel::kGcn;
  uint32_t num_layers = 2;
  uint32_t hidden_dim = 16;
  float learning_rate = 0.5f;
  uint64_t weight_seed = 123;  // identical across devices (replicated model)

  // DistGNN-style cd-r delayed remote aggregation: cross-partition
  // allgathers run only every r-th training epoch; the r-1 epochs in
  // between reuse the remote slot rows cached at the last exchange (local
  // rows stay fresh) and skip the backward allgather, dropping the delayed
  // remote-gradient contributions. 1 (default) = fully synchronous — the
  // exact paper schedule. Evaluate/Logits always exchange fresh embeddings.
  uint32_t aggregate_every_r = 1;
};

struct EpochResult {
  double loss = 0.0;
  double accuracy = 0.0;
};

// One model replica's weights, keyed by (layer, param) position. Because the
// model is replicated with identical seeds and synchronized steps, any
// device's replica is *the* model — this is what survives a recovery and is
// imported into the trainer rebuilt for the surviving topology.
struct ReplicaWeights {
  std::vector<std::vector<EmbeddingMatrix>> layers;  // [layer][param]
  EmbeddingMatrix head;
};

// One replica of the trained model: the GNN layer stack, the dense
// classification head and the head's gradient. Every trainer builds its
// replicas here — MiniBatchModel holds one, DistributedTrainer one per
// device — so replicas created with equal options and dimensions start
// from bit-identical weights.
struct ModelReplica {
  // The seeded stack (MakeLayerStack), then the head, all drawn from one Rng
  // seeded with options.weight_seed.
  static ModelReplica Create(const TrainerOptions& options, uint32_t feature_dim,
                             uint32_t num_classes);

  // Every parameter gradient: each layer's Grads() in layer order, then the
  // head's. Position i is the same parameter on every replica, so gradient
  // sync sums position i across replicas.
  std::vector<EmbeddingMatrix*> Grads();
  void ZeroGrads();
  // SGD step with the accumulated gradients, then clears them.
  void Step(float learning_rate);

  ReplicaWeights Export();
  // Checks every layer's parameter count and shapes and the head's shape
  // before writing anything: on InvalidArgument the replica is unchanged.
  Status Import(const ReplicaWeights& weights);

  std::vector<std::unique_ptr<GnnLayer>> layers;
  EmbeddingMatrix head;       // [hidden_dim x num_classes]
  EmbeddingMatrix head_grad;  // same shape
};

// Optional per-epoch recovery plumbing for TrainEpoch. With `checkpoints`
// set, the trainer snapshots the global activation matrix entering layer l
// (for every l >= 1 the store elects) *before* running that layer's
// allgather — keyed by global vertex id, so the snapshot is valid under any
// post-recovery layout. With `restore` also set, layers whose boundary is
// checkpointed rebuild their slot inputs straight from the snapshot instead
// of re-running the allgather: every layer still runs its local compute (so
// the backward caches stay exact), only the communication — the expensive
// part — is skipped.
struct EpochHooks {
  EmbeddingCheckpointStore* checkpoints = nullptr;
  bool restore = false;
};

// Single-replica model for sampled mini-batch training: the same layer
// stack + classification head as DistributedTrainer, but each Step runs
// forward/backward/SGD on one fully-local sampled block (num_slots ==
// num_compute, e.g. FullLocalGraph of an induced mini-batch subgraph)
// instead of the whole partitioned graph — no allgather, no replica sync.
// Weights round-trip through the same ReplicaWeights the recovery machinery
// checkpoints, so mini-batch epochs snapshot/restore exactly like full-graph
// ones (the serving-tier MiniBatchTrainer drives this; see
// service/minibatch_trainer.h).
class MiniBatchModel {
 public:
  // The replica comes from ModelReplica::Create, as each of
  // DistributedTrainer's does, so a MiniBatchModel and a full-graph trainer
  // with equal options start from the same weights.
  static Result<MiniBatchModel> Create(uint32_t feature_dim, uint32_t num_classes,
                                       TrainerOptions options);

  // One SGD step on a sampled block. `inputs` has block.num_slots rows
  // (the sampled nodes' feature rows); `labels` has block.num_compute
  // entries, kInvalidId = unlabeled (masked). Returns loss/accuracy over
  // the block's labeled rows.
  Result<EpochResult> Step(const LocalGraph& block, const EmbeddingMatrix& inputs,
                           const std::vector<uint32_t>& labels);

  // Forward only; loss/accuracy over the block's labeled rows.
  Result<EpochResult> Evaluate(const LocalGraph& block, const EmbeddingMatrix& inputs,
                               const std::vector<uint32_t>& labels);

  // Checkpoint round trip: same shapes as DistributedTrainer's replicas.
  // ImportReplica is all-or-nothing (ModelReplica::Import).
  ReplicaWeights ExportReplica() { return model_.Export(); }
  Status ImportReplica(const ReplicaWeights& weights) { return model_.Import(weights); }

 private:
  MiniBatchModel() = default;

  Result<EpochResult> Pass(bool train, const LocalGraph& block, const EmbeddingMatrix& inputs,
                           const std::vector<uint32_t>& labels);

  TrainerOptions options_;
  ModelReplica model_;
};

class DistributedTrainer {
 public:
  // `features`: one row per global vertex. `labels`: per global vertex, in
  // [0, num_classes) or kInvalidId for unlabeled. The relation/engine define
  // the device layout; all must outlive the trainer.
  static Result<DistributedTrainer> Create(const CsrGraph& graph, const CommRelation& relation,
                                           const AllgatherEngine& engine,
                                           const EmbeddingMatrix& features,
                                           const std::vector<uint32_t>& labels,
                                           uint32_t num_classes, TrainerOptions options);

  // One full forward + backward + synchronized SGD step over all vertices.
  Result<EpochResult> TrainEpoch();

  // TrainEpoch with activation checkpoint/restore plumbing (recovery path).
  Result<EpochResult> TrainEpoch(const EpochHooks& hooks);

  // Forward only; loss/accuracy over all labeled vertices.
  Result<EpochResult> Evaluate();

  // Final-layer logits for every global vertex (row = global vertex id).
  Result<EmbeddingMatrix> Logits();

  // Snapshot of `device`'s replica weights (== every replica's: weights only
  // ever change inside a fully-completed synchronized step, so at any failure
  // point every replica still holds the epoch-start weights).
  ReplicaWeights ExportReplica(uint32_t device = 0);

  // Overwrites every replica with `weights`, all-or-nothing: on a shape
  // mismatch no replica changes.
  Status ImportReplica(const ReplicaWeights& weights);

 private:
  // Everything device d owns: its slice of the graph, features and labels,
  // its model replica, and the cd-r cache (aggregate_every_r > 1) of its
  // remote slot rows [num_compute, num_slots) per layer, taken at the last
  // fresh exchange and empty until the first one.
  struct DeviceState {
    LocalGraph graph;
    EmbeddingMatrix features;
    std::vector<uint32_t> labels;
    ModelReplica model;
    std::vector<EmbeddingMatrix> stale_remote;  // [layer]
  };

  DistributedTrainer() = default;

  // Forward to logits on every device, writing the global logits to
  // `all_logits` when it is non-null. A training pass also runs backward,
  // syncs the gradients and steps every replica.
  Result<EpochResult> Pass(bool train, EmbeddingMatrix* all_logits,
                           const EpochHooks& hooks = {});

  // Layer `layer`'s fresh exchange: allgathers `acts` and fills `slots[d]`
  // (num_slots rows) for every device.
  Status ExchangeSlots(uint32_t layer, const std::vector<EmbeddingMatrix>& acts,
                       std::vector<EmbeddingMatrix>& slots) const;

  const CommRelation* relation_ = nullptr;
  const AllgatherEngine* engine_ = nullptr;
  TrainerOptions options_;
  uint32_t num_classes_ = 0;
  std::vector<DeviceState> devices_;
  // Completed training epochs (drives the cd-r schedule).
  uint64_t train_epochs_ = 0;
};

}  // namespace dgcl

#endif  // DGCL_GNN_TRAINER_H_
