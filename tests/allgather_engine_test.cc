#include "runtime/allgather_engine.h"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <map>
#include <thread>
#include <tuple>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "graph/generators.h"
#include "partition/multilevel.h"
#include "planner/baselines.h"
#include "planner/spst.h"
#include "topology/presets.h"

namespace dgcl {
namespace {

struct Fixture {
  CsrGraph graph;
  Topology topo;
  Partitioning parts;
  CommRelation relation;
  CompiledPlan plan;

  static Fixture Make(uint32_t gpus, uint32_t vertices, uint64_t seed, bool use_spst) {
    Fixture f;
    Rng rng(seed);
    f.graph = GenerateErdosRenyi(vertices, vertices * 3, rng);
    f.topo = BuildPaperTopology(gpus);
    MultilevelPartitioner metis;
    f.parts = *metis.Partition(f.graph, gpus);
    f.relation = *BuildCommRelation(f.graph, f.parts);
    SpstPlanner spst;
    PeerToPeerPlanner p2p;
    Planner& planner = use_spst ? static_cast<Planner&>(spst) : static_cast<Planner&>(p2p);
    CommPlan comm_plan = *planner.Plan(f.relation, f.topo, 64);
    f.plan = CompilePlan(comm_plan, f.topo);
    AssignBackwardSubstages(f.plan);
    return f;
  }

  // Embedding value encoding: vertex v, column c -> v * 1000 + c.
  std::vector<EmbeddingMatrix> MakeLocalEmbeddings(uint32_t dim) const {
    std::vector<EmbeddingMatrix> local;
    for (uint32_t d = 0; d < relation.num_devices; ++d) {
      const auto& locals = relation.local_vertices[d];
      EmbeddingMatrix m = EmbeddingMatrix::Zero(static_cast<uint32_t>(locals.size()), dim);
      for (uint32_t i = 0; i < locals.size(); ++i) {
        for (uint32_t c = 0; c < dim; ++c) {
          m.Row(i)[c] = static_cast<float>(locals[i] * 1000 + c);
        }
      }
      local.push_back(std::move(m));
    }
    return local;
  }
};

// Slot gradients at `dim` over each device's contract slots, or over all its
// slots when `with_extras` (forwarding extras non-zero too). Every value is
// distinct per (salt, device, row, column) and non-zero, so stale or missing
// rows change the result.
std::vector<EmbeddingMatrix> MakeSlotGrads(const AllgatherEngine& engine, uint32_t devices,
                                           uint32_t dim, float salt, bool with_extras) {
  std::vector<EmbeddingMatrix> grads;
  for (uint32_t d = 0; d < devices; ++d) {
    EmbeddingMatrix g = EmbeddingMatrix::Zero(
        with_extras ? engine.NumSlots(d) : engine.NumContractSlots(d), dim);
    for (uint32_t r = 0; r < g.rows; ++r) {
      for (uint32_t c = 0; c < dim; ++c) {
        g.Row(r)[c] = salt + 0.5f * static_cast<float>(d) + 0.25f * static_cast<float>(r) +
                      0.125f * static_cast<float>(c + 1);
      }
    }
    grads.push_back(std::move(g));
  }
  return grads;
}

// Compares bit patterns, not float values: -0.0f == 0.0f and NaN != NaN
// would hide or invent differences.
::testing::AssertionResult BitwiseEqual(const std::vector<EmbeddingMatrix>& a,
                                        const std::vector<EmbeddingMatrix>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "device counts differ";
  }
  for (size_t d = 0; d < a.size(); ++d) {
    if (a[d].rows != b[d].rows || a[d].dim != b[d].dim || a[d].data.size() != b[d].data.size() ||
        std::memcmp(a[d].data.data(), b[d].data.data(), a[d].data.size() * sizeof(float)) != 0) {
      return ::testing::AssertionFailure() << "device " << d << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

class EngineSweep : public ::testing::TestWithParam<std::tuple<uint32_t, bool, uint64_t>> {};

TEST_P(EngineSweep, ForwardDeliversExactEmbeddings) {
  const auto [gpus, use_spst, seed] = GetParam();
  Fixture f = Fixture::Make(gpus, 60, seed, use_spst);
  auto engine = AllgatherEngine::Create(f.relation, f.plan, f.topo);
  ASSERT_TRUE(engine.ok());
  const uint32_t dim = 5;
  auto result = engine->Forward(f.MakeLocalEmbeddings(dim));
  ASSERT_TRUE(result.ok());
  for (uint32_t d = 0; d < f.relation.num_devices; ++d) {
    const auto& locals = f.relation.local_vertices[d];
    const auto& remotes = f.relation.remote_vertices[d];
    const EmbeddingMatrix& m = (*result)[d];
    ASSERT_GE(m.rows, locals.size() + remotes.size());
    for (uint32_t i = 0; i < locals.size(); ++i) {
      for (uint32_t c = 0; c < dim; ++c) {
        ASSERT_EQ(m.Row(i)[c], static_cast<float>(locals[i] * 1000 + c));
      }
    }
    for (uint32_t i = 0; i < remotes.size(); ++i) {
      const uint32_t row = static_cast<uint32_t>(locals.size()) + i;
      for (uint32_t c = 0; c < dim; ++c) {
        ASSERT_EQ(m.Row(row)[c], static_cast<float>(remotes[i] * 1000 + c))
            << "device " << d << " remote " << remotes[i];
      }
    }
  }
}

TEST_P(EngineSweep, BackwardAccumulatesAllContributions) {
  const auto [gpus, use_spst, seed] = GetParam();
  Fixture f = Fixture::Make(gpus, 60, seed, use_spst);
  auto engine = AllgatherEngine::Create(f.relation, f.plan, f.topo);
  ASSERT_TRUE(engine.ok());
  const uint32_t dim = 3;
  // Gradient encoding: device d contributes (d+1) for every slot it uses.
  std::vector<EmbeddingMatrix> slot_grads;
  for (uint32_t d = 0; d < f.relation.num_devices; ++d) {
    const uint32_t slots = engine->NumContractSlots(d);
    EmbeddingMatrix g = EmbeddingMatrix::Zero(slots, dim);
    for (uint32_t r = 0; r < slots; ++r) {
      for (uint32_t c = 0; c < dim; ++c) {
        g.Row(r)[c] = static_cast<float>(d + 1);
      }
    }
    slot_grads.push_back(std::move(g));
  }
  auto result = engine->Backward(slot_grads);
  ASSERT_TRUE(result.ok());
  // Expected gradient for vertex v: own device (s+1) plus sum of (d+1) over
  // destinations d of v.
  for (uint32_t d = 0; d < f.relation.num_devices; ++d) {
    const auto& locals = f.relation.local_vertices[d];
    for (uint32_t i = 0; i < locals.size(); ++i) {
      float expected = static_cast<float>(d + 1);
      DeviceMask mask = f.relation.dest_mask[locals[i]];
      while (mask != 0) {
        uint32_t dst = static_cast<uint32_t>(std::countr_zero(mask));
        mask &= mask - 1;
        expected += static_cast<float>(dst + 1);
      }
      for (uint32_t c = 0; c < dim; ++c) {
        ASSERT_EQ((*result)[d].Row(i)[c], expected)
            << "vertex " << locals[i] << " on device " << d;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, EngineSweep,
    ::testing::Combine(::testing::Values(2u, 4u, 8u, 16u), ::testing::Bool(),
                       ::testing::Values(101u, 202u)),
    [](const auto& info) {
      return "gpus" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "spst" : "p2p") + "s" +
             std::to_string(std::get<2>(info.param));
    });

TEST(AllgatherEngineTest, RepeatedPassesAreIdempotent) {
  Fixture f = Fixture::Make(4, 40, 55, true);
  auto engine = AllgatherEngine::Create(f.relation, f.plan, f.topo);
  ASSERT_TRUE(engine.ok());
  auto local = f.MakeLocalEmbeddings(4);
  auto first = engine->Forward(local);
  auto second = engine->Forward(local);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  for (uint32_t d = 0; d < f.relation.num_devices; ++d) {
    EXPECT_EQ((*first)[d].data, (*second)[d].data);
  }
}

TEST(AllgatherEngineTest, RejectsWrongRowCounts) {
  Fixture f = Fixture::Make(2, 20, 66, true);
  auto engine = AllgatherEngine::Create(f.relation, f.plan, f.topo);
  ASSERT_TRUE(engine.ok());
  auto local = f.MakeLocalEmbeddings(4);
  local[0].rows -= 1;  // corrupt
  EXPECT_FALSE(engine->Forward(local).ok());
}

TEST(AllgatherEngineTest, RejectsInconsistentDims) {
  Fixture f = Fixture::Make(2, 20, 67, true);
  auto engine = AllgatherEngine::Create(f.relation, f.plan, f.topo);
  ASSERT_TRUE(engine.ok());
  auto local = f.MakeLocalEmbeddings(4);
  local[1] = EmbeddingMatrix::Zero(local[1].rows, 8);
  EXPECT_FALSE(engine->Forward(local).ok());
}

TEST(AllgatherEngineTest, RejectsBrokenPlan) {
  Fixture f = Fixture::Make(4, 40, 68, false);
  ASSERT_FALSE(f.plan.ops.empty());
  f.plan.ops.front().vertices.pop_back();  // undelivered vertex
  EXPECT_FALSE(AllgatherEngine::Create(f.relation, f.plan, f.topo).ok());
}

TEST(AllgatherEngineTest, SlotLayoutLocalsFirst) {
  Fixture f = Fixture::Make(4, 40, 69, true);
  auto engine = AllgatherEngine::Create(f.relation, f.plan, f.topo);
  ASSERT_TRUE(engine.ok());
  for (uint32_t d = 0; d < 4; ++d) {
    const auto& locals = f.relation.local_vertices[d];
    for (uint32_t i = 0; i < locals.size(); ++i) {
      EXPECT_EQ(engine->SlotOf(d, locals[i]), i);
    }
    const auto& remotes = f.relation.remote_vertices[d];
    for (uint32_t i = 0; i < remotes.size(); ++i) {
      EXPECT_EQ(engine->SlotOf(d, remotes[i]), locals.size() + i);
    }
  }
}

// Backward reuses engine-owned slot buffers across calls. Every call must
// behave as if on a fresh engine: no rows from an earlier call (a larger dim,
// non-zero forwarding extras) and no state from a rejected call leak in.
TEST(AllgatherEngineTest, BackwardBufferReuseNeverLeaksState) {
  Fixture f = Fixture::Make(16, 120, 71, true);
  auto engine = AllgatherEngine::Create(f.relation, f.plan, f.topo);
  ASSERT_TRUE(engine.ok());
  const uint32_t n = f.relation.num_devices;
  bool has_extras = false;
  for (uint32_t d = 0; d < n; ++d) {
    has_extras |= engine->NumSlots(d) > engine->NumContractSlots(d);
  }
  ASSERT_TRUE(has_extras) << "fixture has no forwarding extras to leak";
  auto expect_fresh_result = [&](const std::vector<EmbeddingMatrix>& grads, const char* step) {
    auto reused = engine->Backward(grads);
    ASSERT_TRUE(reused.ok()) << step;
    auto fresh_engine = AllgatherEngine::Create(f.relation, f.plan, f.topo);
    ASSERT_TRUE(fresh_engine.ok());
    auto fresh = fresh_engine->Backward(grads);
    ASSERT_TRUE(fresh.ok()) << step;
    EXPECT_TRUE(BitwiseEqual(*reused, *fresh)) << step;
  };

  expect_fresh_result(MakeSlotGrads(*engine, n, 3, 1.0f, true), "dim 3, non-zero extras");
  expect_fresh_result(MakeSlotGrads(*engine, n, 5, 2.0f, false), "dim 5, contract rows");
  expect_fresh_result(MakeSlotGrads(*engine, n, 3, 3.0f, false), "dim 3, contract rows");

  std::vector<EmbeddingMatrix> bad = MakeSlotGrads(*engine, n, 3, 4.0f, false);
  bad[1] = MakeSlotGrads(*engine, n, 4, 4.0f, false)[1];
  auto rejected = engine->Backward(bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  // An empty matrix stands for all-zero gradients on that device.
  std::vector<EmbeddingMatrix> last = MakeSlotGrads(*engine, n, 2, 5.0f, false);
  last[0] = EmbeddingMatrix{};
  expect_fresh_result(last, "dim 2 after a rejected call");
}

// Concurrent callers on one engine queue on the pass lock; each result must
// equal the result of the same call made serially.
TEST(AllgatherEngineTest, ConcurrentPassesQueue) {
  Fixture f = Fixture::Make(4, 60, 72, true);
  auto engine = AllgatherEngine::Create(f.relation, f.plan, f.topo);
  ASSERT_TRUE(engine.ok());
  const uint32_t n = f.relation.num_devices;
  const auto local = f.MakeLocalEmbeddings(4);
  const std::vector<EmbeddingMatrix> grads[2] = {MakeSlotGrads(*engine, n, 3, 1.0f, false),
                                                 MakeSlotGrads(*engine, n, 5, 2.0f, true)};
  auto forward = engine->Forward(local);
  ASSERT_TRUE(forward.ok());
  std::vector<EmbeddingMatrix> backward[2];
  for (int t = 0; t < 2; ++t) {
    auto result = engine->Backward(grads[t]);
    ASSERT_TRUE(result.ok());
    backward[t] = std::move(*result);
  }

  constexpr int kIterations = 20;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 2; ++t) {
    callers.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        auto fwd = engine->Forward(local);
        if (!fwd.ok() || !BitwiseEqual(*fwd, *forward)) {
          ++mismatches;
        }
        auto bwd = engine->Backward(grads[t]);
        if (!bwd.ok() || !BitwiseEqual(*bwd, backward[t])) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& caller : callers) {
    caller.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(engine->pass_count(), 3u + 2u * 2u * kIterations);
}

// The engine fills and drains its slot buffers with ThreadPool::Shared()'s
// ParallelFor, so callers running inside tasks of that pool nest it. More
// tasks than workers share one engine at two dims with forwarding extras;
// every call must finish (the caller of a nested ParallelFor claims items
// itself) and match the same call made from the main thread on a fresh
// engine.
TEST(AllgatherEngineTest, NestedPoolCallersMatchFreshEngine) {
  Fixture f = Fixture::Make(16, 120, 71, true);
  auto engine = AllgatherEngine::Create(f.relation, f.plan, f.topo);
  ASSERT_TRUE(engine.ok());
  const uint32_t n = f.relation.num_devices;
  bool has_extras = false;
  for (uint32_t d = 0; d < n; ++d) {
    has_extras |= engine->NumSlots(d) > engine->NumContractSlots(d);
  }
  ASSERT_TRUE(has_extras) << "fixture has no forwarding extras";

  const uint32_t tasks = 2 * ThreadPool::Shared().num_threads() + 1;
  std::vector<std::vector<EmbeddingMatrix>> local(tasks), grads(tasks);
  std::vector<std::vector<EmbeddingMatrix>> want_fwd(tasks), want_bwd(tasks);
  for (uint32_t t = 0; t < tasks; ++t) {
    const uint32_t dim = t % 2 == 0 ? 3 : 5;
    local[t] = f.MakeLocalEmbeddings(dim);
    grads[t] = MakeSlotGrads(*engine, n, dim, 1.0f + static_cast<float>(t), true);
    auto fresh_fwd = AllgatherEngine::Create(f.relation, f.plan, f.topo);
    auto fresh_bwd = AllgatherEngine::Create(f.relation, f.plan, f.topo);
    ASSERT_TRUE(fresh_fwd.ok() && fresh_bwd.ok());
    auto fwd = fresh_fwd->Forward(local[t]);
    auto bwd = fresh_bwd->Backward(grads[t]);
    ASSERT_TRUE(fwd.ok() && bwd.ok());
    want_fwd[t] = std::move(*fwd);
    want_bwd[t] = std::move(*bwd);
  }

  std::vector<std::vector<EmbeddingMatrix>> got_fwd(tasks), got_bwd(tasks);
  std::vector<uint8_t> ok(tasks, 0);
  ThreadPool::Shared().ParallelFor(tasks, [&](uint64_t t) {
    auto fwd = engine->Forward(local[t]);
    auto bwd = engine->Backward(grads[t]);
    if (fwd.ok() && bwd.ok()) {
      got_fwd[t] = std::move(*fwd);
      got_bwd[t] = std::move(*bwd);
      ok[t] = 1;
    }
  });
  for (uint32_t t = 0; t < tasks; ++t) {
    ASSERT_TRUE(ok[t]) << "task " << t;
    EXPECT_TRUE(BitwiseEqual(got_fwd[t], want_fwd[t])) << "forward, task " << t;
    EXPECT_TRUE(BitwiseEqual(got_bwd[t], want_bwd[t])) << "backward, task " << t;
  }
  EXPECT_EQ(engine->pass_count(), 2u * tasks);
}

}  // namespace
}  // namespace dgcl
