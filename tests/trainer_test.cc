#include "gnn/trainer.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/ids.h"
#include "graph/generators.h"
#include "partition/multilevel.h"
#include "planner/spst.h"
#include "topology/presets.h"

namespace dgcl {
namespace {

struct World {
  CsrGraph graph;
  Topology topo;
  CommRelation relation;
  CompiledPlan plan;
  EmbeddingMatrix features;
  std::vector<uint32_t> labels;
  uint32_t num_classes = 4;

  static World Make(uint32_t gpus, uint64_t seed) {
    World w;
    Rng rng(seed);
    // Community graph: labels = community ids, learnable by aggregation.
    w.graph = GenerateCommunityGraph(160, 4, 10.0, 0.5, rng);
    w.topo = BuildPaperTopology(gpus);
    MultilevelPartitioner metis;
    w.relation = *BuildCommRelation(w.graph, *metis.Partition(w.graph, gpus));
    SpstPlanner spst;
    w.plan = CompilePlan(*spst.Plan(w.relation, w.topo, 64), w.topo);
    AssignBackwardSubstages(w.plan);
    w.features = EmbeddingMatrix::Zero(160, 8);
    w.labels.resize(160);
    for (VertexId v = 0; v < 160; ++v) {
      const uint32_t community = std::min<uint32_t>(v / 40, 3);
      w.labels[v] = community;
      // Noisy one-hot-ish features correlated with the community.
      for (uint32_t c = 0; c < 8; ++c) {
        w.features.Row(v)[c] = rng.UniformFloat(-0.3f, 0.3f);
      }
      w.features.Row(v)[community] += 1.0f;
    }
    return w;
  }
};

TEST(TrainerTest, LossDecreasesOverEpochs) {
  World w = World::Make(4, 31);
  auto engine = AllgatherEngine::Create(w.relation, w.plan, w.topo);
  ASSERT_TRUE(engine.ok());
  TrainerOptions opts;
  opts.model = GnnModel::kGcn;
  opts.hidden_dim = 16;
  opts.learning_rate = 0.8f;
  auto trainer = DistributedTrainer::Create(w.graph, w.relation, *engine, w.features, w.labels,
                                            w.num_classes, opts);
  ASSERT_TRUE(trainer.ok());
  auto first = trainer->TrainEpoch();
  ASSERT_TRUE(first.ok());
  double loss = first->loss;
  for (int epoch = 0; epoch < 30; ++epoch) {
    auto r = trainer->TrainEpoch();
    ASSERT_TRUE(r.ok());
    loss = r->loss;
  }
  EXPECT_LT(loss, first->loss * 0.5);
  auto eval = trainer->Evaluate();
  ASSERT_TRUE(eval.ok());
  EXPECT_GT(eval->accuracy, 0.8);
}

class TrainerModelSweep : public ::testing::TestWithParam<GnnModel> {};

TEST_P(TrainerModelSweep, TrainsOnAllModels) {
  World w = World::Make(4, 37);
  auto engine = AllgatherEngine::Create(w.relation, w.plan, w.topo);
  ASSERT_TRUE(engine.ok());
  TrainerOptions opts;
  opts.model = GetParam();
  opts.hidden_dim = 16;
  opts.learning_rate =
      GetParam() == GnnModel::kGin || GetParam() == GnnModel::kGat ? 0.05f : 0.4f;
  auto trainer = DistributedTrainer::Create(w.graph, w.relation, *engine, w.features, w.labels,
                                            w.num_classes, opts);
  ASSERT_TRUE(trainer.ok());
  auto first = trainer->TrainEpoch();
  ASSERT_TRUE(first.ok());
  double loss = first->loss;
  for (int epoch = 0; epoch < 40; ++epoch) {
    auto r = trainer->TrainEpoch();
    ASSERT_TRUE(r.ok());
    loss = r->loss;
  }
  EXPECT_LT(loss, first->loss) << GnnModelName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Models, TrainerModelSweep,
                         ::testing::Values(GnnModel::kGcn, GnnModel::kCommNet, GnnModel::kGin,
                                           GnnModel::kGat),
                         [](const auto& info) { return GnnModelName(info.param); });

// The distributed-equals-single-device property: same graph, same seeds,
// 1 device vs 4 devices must produce near-identical logits and loss.
TEST(TrainerTest, DistributedMatchesSingleDevice) {
  World multi = World::Make(4, 41);

  // Single-device world over the same graph/features/labels.
  Topology topo1 = BuildPaperTopology(1);
  MultilevelPartitioner metis;
  CommRelation rel1 = *BuildCommRelation(multi.graph, *metis.Partition(multi.graph, 1));
  SpstPlanner spst;
  CompiledPlan plan1 = CompilePlan(*spst.Plan(rel1, topo1, 64), topo1);
  auto engine1 = AllgatherEngine::Create(rel1, plan1, topo1);
  auto engine4 = AllgatherEngine::Create(multi.relation, multi.plan, multi.topo);
  ASSERT_TRUE(engine1.ok());
  ASSERT_TRUE(engine4.ok());

  TrainerOptions opts;
  opts.model = GnnModel::kGcn;
  opts.hidden_dim = 12;
  opts.learning_rate = 0.3f;
  auto t1 = DistributedTrainer::Create(multi.graph, rel1, *engine1, multi.features,
                                       multi.labels, multi.num_classes, opts);
  auto t4 = DistributedTrainer::Create(multi.graph, multi.relation, *engine4, multi.features,
                                       multi.labels, multi.num_classes, opts);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t4.ok());

  for (int epoch = 0; epoch < 5; ++epoch) {
    auto r1 = t1->TrainEpoch();
    auto r4 = t4->TrainEpoch();
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r4.ok());
    EXPECT_NEAR(r1->loss, r4->loss, 1e-3 * (1.0 + std::abs(r1->loss))) << "epoch " << epoch;
  }
  auto l1 = t1->Logits();
  auto l4 = t4->Logits();
  ASSERT_TRUE(l1.ok());
  ASSERT_TRUE(l4.ok());
  ASSERT_EQ(l1->data.size(), l4->data.size());
  for (size_t i = 0; i < l1->data.size(); ++i) {
    EXPECT_NEAR(l1->data[i], l4->data[i], 5e-3) << "logit " << i;
  }
}

TEST(TrainerTest, RejectsBadInputs) {
  World w = World::Make(2, 43);
  auto engine = AllgatherEngine::Create(w.relation, w.plan, w.topo);
  ASSERT_TRUE(engine.ok());
  TrainerOptions opts;
  EmbeddingMatrix short_features = EmbeddingMatrix::Zero(10, 8);
  EXPECT_FALSE(DistributedTrainer::Create(w.graph, w.relation, *engine, short_features,
                                          w.labels, 4, opts)
                   .ok());
  opts.num_layers = 0;
  EXPECT_FALSE(
      DistributedTrainer::Create(w.graph, w.relation, *engine, w.features, w.labels, 4, opts)
          .ok());
}

// Bitwise equality of two replicas' weights.
bool SameBits(const EmbeddingMatrix& a, const EmbeddingMatrix& b) {
  return a.rows == b.rows && a.dim == b.dim && a.data.size() == b.data.size() &&
         std::memcmp(a.data.data(), b.data.data(), a.data.size() * sizeof(float)) == 0;
}

bool SameWeights(const ReplicaWeights& a, const ReplicaWeights& b) {
  if (a.layers.size() != b.layers.size() || !SameBits(a.head, b.head)) {
    return false;
  }
  for (size_t l = 0; l < a.layers.size(); ++l) {
    if (a.layers[l].size() != b.layers[l].size()) {
      return false;
    }
    for (size_t g = 0; g < a.layers[l].size(); ++g) {
      if (!SameBits(a.layers[l][g], b.layers[l][g])) {
        return false;
      }
    }
  }
  return true;
}

// `w` with every layer-0 weight shifted, so a partial import shows.
ReplicaWeights ShiftLayerZero(ReplicaWeights w) {
  for (EmbeddingMatrix& p : w.layers[0]) {
    for (float& x : p.data) {
      x += 1.0f;
    }
  }
  return w;
}

// MiniBatchModel::Create and DistributedTrainer::Create with equal options
// start from bit-identical weights on every device, and those weights are
// the seeded stack (layers in order) followed by the head from the same Rng.
TEST(ModelReplicaTest, MiniBatchModelAndEveryDeviceStartIdentical) {
  World w = World::Make(4, 83);
  auto engine = AllgatherEngine::Create(w.relation, w.plan, w.topo);
  ASSERT_TRUE(engine.ok());
  for (GnnModel model : {GnnModel::kGcn, GnnModel::kCommNet, GnnModel::kGin, GnnModel::kGat}) {
    TrainerOptions opts;
    opts.model = model;
    opts.num_layers = 3;
    opts.hidden_dim = 12;
    opts.weight_seed = 97;
    auto mini = MiniBatchModel::Create(w.features.dim, w.num_classes, opts);
    auto trainer = DistributedTrainer::Create(w.graph, w.relation, *engine, w.features, w.labels,
                                              w.num_classes, opts);
    ASSERT_TRUE(mini.ok());
    ASSERT_TRUE(trainer.ok());
    const ReplicaWeights reference = mini->ExportReplica();
    for (uint32_t d = 0; d < w.relation.num_devices; ++d) {
      EXPECT_TRUE(SameWeights(reference, trainer->ExportReplica(d)))
          << GnnModelName(model) << " device " << d;
    }

    Rng rng(opts.weight_seed);
    std::vector<std::unique_ptr<GnnLayer>> stack =
        MakeLayerStack(model, w.features.dim, opts.hidden_dim, opts.num_layers, rng);
    const EmbeddingMatrix head = RandomWeights(opts.hidden_dim, w.num_classes, rng);
    ASSERT_EQ(reference.layers.size(), stack.size());
    for (size_t l = 0; l < stack.size(); ++l) {
      const std::vector<EmbeddingMatrix*> params = stack[l]->Params();
      ASSERT_EQ(reference.layers[l].size(), params.size());
      for (size_t g = 0; g < params.size(); ++g) {
        EXPECT_TRUE(SameBits(reference.layers[l][g], *params[g]))
            << GnnModelName(model) << " layer " << l << " param " << g;
      }
    }
    EXPECT_TRUE(SameBits(reference.head, head)) << GnnModelName(model);
  }
}

// A wrong shape anywhere rejects the whole import before any weight is
// written: layer 0 (valid, but shifted) must not land when layer 1 or the
// head is malformed.
TEST(ModelReplicaTest, MiniBatchImportIsAllOrNothing) {
  TrainerOptions opts;
  opts.num_layers = 2;
  auto mini = MiniBatchModel::Create(8, 4, opts);
  ASSERT_TRUE(mini.ok());
  const ReplicaWeights before = mini->ExportReplica();

  ReplicaWeights bad_layer = ShiftLayerZero(before);
  bad_layer.layers[1][0] = EmbeddingMatrix::Zero(bad_layer.layers[1][0].rows + 1,
                                                 bad_layer.layers[1][0].dim);
  EXPECT_EQ(mini->ImportReplica(bad_layer).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(SameWeights(before, mini->ExportReplica()));

  ReplicaWeights bad_head = ShiftLayerZero(before);
  bad_head.head = EmbeddingMatrix::Zero(bad_head.head.rows, bad_head.head.dim + 1);
  EXPECT_EQ(mini->ImportReplica(bad_head).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(SameWeights(before, mini->ExportReplica()));

  const ReplicaWeights shifted = ShiftLayerZero(before);
  ASSERT_TRUE(mini->ImportReplica(shifted).ok());
  EXPECT_TRUE(SameWeights(shifted, mini->ExportReplica()));
}

TEST(ModelReplicaTest, DistributedImportIsAllOrNothing) {
  World w = World::Make(4, 89);
  auto engine = AllgatherEngine::Create(w.relation, w.plan, w.topo);
  ASSERT_TRUE(engine.ok());
  TrainerOptions opts;
  opts.num_layers = 2;
  auto trainer = DistributedTrainer::Create(w.graph, w.relation, *engine, w.features, w.labels,
                                            w.num_classes, opts);
  ASSERT_TRUE(trainer.ok());
  const ReplicaWeights before = trainer->ExportReplica();

  ReplicaWeights bad_layer = ShiftLayerZero(before);
  bad_layer.layers[1][0] = EmbeddingMatrix::Zero(bad_layer.layers[1][0].rows,
                                                 bad_layer.layers[1][0].dim + 1);
  EXPECT_EQ(trainer->ImportReplica(bad_layer).code(), StatusCode::kInvalidArgument);
  ReplicaWeights bad_head = ShiftLayerZero(before);
  bad_head.head = EmbeddingMatrix::Zero(bad_head.head.rows + 1, bad_head.head.dim);
  EXPECT_EQ(trainer->ImportReplica(bad_head).code(), StatusCode::kInvalidArgument);
  for (uint32_t d = 0; d < w.relation.num_devices; ++d) {
    EXPECT_TRUE(SameWeights(before, trainer->ExportReplica(d))) << "device " << d;
  }

  const ReplicaWeights shifted = ShiftLayerZero(before);
  ASSERT_TRUE(trainer->ImportReplica(shifted).ok());
  for (uint32_t d = 0; d < w.relation.num_devices; ++d) {
    EXPECT_TRUE(SameWeights(shifted, trainer->ExportReplica(d))) << "device " << d;
  }
}

// cd-r loss-trajectory acceptance: the DistGNN-style delayed aggregation
// must keep the model trainable for r in {1, 2, 4}. r = 1 is bit-identical
// to the synchronous schedule; r > 1 trades gradient exactness for skipped
// allgathers, so the acceptance bar is convergence, not equality.
class TrainerCdRSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(TrainerCdRSweep, LossTrajectoryStaysHealthy) {
  const uint32_t r = GetParam();
  World w = World::Make(4, 61);
  auto engine = AllgatherEngine::Create(w.relation, w.plan, w.topo);
  ASSERT_TRUE(engine.ok());
  TrainerOptions opts;
  opts.hidden_dim = 16;
  opts.learning_rate = 0.8f;
  opts.aggregate_every_r = r;
  auto trainer = DistributedTrainer::Create(w.graph, w.relation, *engine, w.features, w.labels,
                                            w.num_classes, opts);
  ASSERT_TRUE(trainer.ok());
  double first = 0.0;
  double last = 0.0;
  for (int epoch = 0; epoch < 40; ++epoch) {
    auto res = trainer->TrainEpoch();
    ASSERT_TRUE(res.ok()) << "epoch " << epoch;
    if (epoch == 0) {
      first = res->loss;
    }
    last = res->loss;
  }
  EXPECT_LT(last, first * 0.5) << "r=" << r;
  auto eval = trainer->Evaluate();  // always a fresh exchange
  ASSERT_TRUE(eval.ok());
  EXPECT_GT(eval->accuracy, 0.75) << "r=" << r;
}

INSTANTIATE_TEST_SUITE_P(StalenessFactors, TrainerCdRSweep, ::testing::Values(1u, 2u, 4u));

TEST(TrainerCdRTest, REqualsOneMatchesSynchronousExactly) {
  World w = World::Make(4, 67);
  auto engine = AllgatherEngine::Create(w.relation, w.plan, w.topo);
  ASSERT_TRUE(engine.ok());
  TrainerOptions base;
  base.hidden_dim = 12;
  base.learning_rate = 0.5f;
  TrainerOptions cd1 = base;
  cd1.aggregate_every_r = 1;
  auto a = DistributedTrainer::Create(w.graph, w.relation, *engine, w.features, w.labels,
                                      w.num_classes, base);
  auto b = DistributedTrainer::Create(w.graph, w.relation, *engine, w.features, w.labels,
                                      w.num_classes, cd1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int epoch = 0; epoch < 8; ++epoch) {
    auto ra = a->TrainEpoch();
    auto rb = b->TrainEpoch();
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    EXPECT_EQ(ra->loss, rb->loss) << "epoch " << epoch;  // same code path
  }
}

TEST(TrainerCdRTest, StaleEpochsDivergeButTrackSynchronousLoss) {
  World w = World::Make(4, 71);
  auto engine = AllgatherEngine::Create(w.relation, w.plan, w.topo);
  ASSERT_TRUE(engine.ok());
  TrainerOptions sync_opts;
  sync_opts.hidden_dim = 16;
  sync_opts.learning_rate = 0.8f;
  TrainerOptions stale_opts = sync_opts;
  stale_opts.aggregate_every_r = 2;
  auto sync = DistributedTrainer::Create(w.graph, w.relation, *engine, w.features, w.labels,
                                         w.num_classes, sync_opts);
  auto stale = DistributedTrainer::Create(w.graph, w.relation, *engine, w.features, w.labels,
                                          w.num_classes, stale_opts);
  ASSERT_TRUE(sync.ok());
  ASSERT_TRUE(stale.ok());
  double sync_loss = 0.0;
  double stale_loss = 0.0;
  for (int epoch = 0; epoch < 30; ++epoch) {
    auto rs = sync->TrainEpoch();
    auto rt = stale->TrainEpoch();
    ASSERT_TRUE(rs.ok());
    ASSERT_TRUE(rt.ok());
    sync_loss = rs->loss;
    stale_loss = rt->loss;
  }
  // Staleness costs some loss but must stay in the same convergence regime.
  EXPECT_LT(stale_loss, sync_loss + 0.5);
  EXPECT_GT(stale_loss, 0.0);
}

TEST(TrainerCdRTest, RejectsZero) {
  World w = World::Make(2, 73);
  auto engine = AllgatherEngine::Create(w.relation, w.plan, w.topo);
  ASSERT_TRUE(engine.ok());
  TrainerOptions opts;
  opts.aggregate_every_r = 0;
  EXPECT_FALSE(
      DistributedTrainer::Create(w.graph, w.relation, *engine, w.features, w.labels, 4, opts)
          .ok());
}

TEST(TrainerTest, UnlabeledVerticesAreIgnored) {
  World w = World::Make(2, 47);
  for (VertexId v = 0; v < w.graph.num_vertices(); v += 2) {
    w.labels[v] = kInvalidId;
  }
  auto engine = AllgatherEngine::Create(w.relation, w.plan, w.topo);
  ASSERT_TRUE(engine.ok());
  TrainerOptions opts;
  opts.hidden_dim = 8;
  auto trainer = DistributedTrainer::Create(w.graph, w.relation, *engine, w.features, w.labels,
                                            4, opts);
  ASSERT_TRUE(trainer.ok());
  auto r = trainer->TrainEpoch();
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->loss, 0.0);
}

}  // namespace
}  // namespace dgcl
