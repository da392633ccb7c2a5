// Bit-determinism of SPST planning: repeated runs must produce byte-identical
// class and compiled plans, and so must runs from many threads at once
// (PlanClasses keeps all of its state local to the call).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "comm/compiled_plan.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/generators.h"
#include "partition/multilevel.h"
#include "planner/spst.h"
#include "topology/presets.h"

namespace dgcl {
namespace {

struct Workload {
  CsrGraph graph;
  Topology topo;
  CommRelation relation;
  CommClasses classes;

  static Workload Make(uint32_t gpus, uint32_t vertices, uint64_t seed) {
    Workload w;
    Rng rng(seed);
    w.graph = GenerateErdosRenyi(vertices, vertices * 3, rng);
    w.topo = BuildPaperTopology(gpus);
    MultilevelPartitioner metis;
    w.relation = *BuildCommRelation(w.graph, *metis.Partition(w.graph, gpus));
    w.classes = BuildCommClasses(w.relation);
    return w;
  }
};

// Flattens a class plan into bytes; any difference — ordering, stages,
// links, chunk ranges, even the accounted cost's bit pattern — shows up.
std::string ClassPlanBytes(const ClassPlan& plan) {
  std::string out;
  auto put = [&out](const void* p, size_t n) {
    out.append(static_cast<const char*>(p), n);
  };
  put(&plan.num_devices, sizeof(plan.num_devices));
  put(&plan.planned_cost_seconds, sizeof(plan.planned_cost_seconds));
  for (const ClassTree& tree : plan.trees) {
    put(&tree.class_id, sizeof(tree.class_id));
    put(&tree.first, sizeof(tree.first));
    put(&tree.count, sizeof(tree.count));
    for (const TreeEdge& e : tree.edges) {
      put(&e.link, sizeof(e.link));
      put(&e.stage, sizeof(e.stage));
    }
  }
  return out;
}

std::string CompiledPlanBytes(const CompiledPlan& plan) {
  std::string out;
  auto put = [&out](const void* p, size_t n) {
    out.append(static_cast<const char*>(p), n);
  };
  put(&plan.num_devices, sizeof(plan.num_devices));
  put(&plan.num_stages, sizeof(plan.num_stages));
  for (const TransferOp& op : plan.ops) {
    put(&op.link, sizeof(op.link));
    put(&op.src, sizeof(op.src));
    put(&op.dst, sizeof(op.dst));
    put(&op.stage, sizeof(op.stage));
    put(&op.substage, sizeof(op.substage));
    put(op.vertices.data(), op.vertices.size() * sizeof(VertexId));
  }
  for (const auto& idx : plan.ops_by_src) {
    put(idx.data(), idx.size() * sizeof(uint32_t));
  }
  for (const auto& idx : plan.ops_by_dst) {
    put(idx.data(), idx.size() * sizeof(uint32_t));
  }
  return out;
}

Result<ClassPlan> Plan(const Workload& w, double bytes) {
  SpstOptions opts;
  // Small chunks => many work items, each search reading the load of all
  // earlier commits.
  opts.max_class_units = 4;
  opts.min_chunks = 0;
  return SpstPlanner(opts).PlanClasses(w.classes, w.topo, bytes);
}

TEST(PlanDeterminismTest, ByteIdenticalAcrossRuns) {
  for (uint32_t gpus : {4u, 8u}) {
    Workload w = Workload::Make(gpus, 160, /*seed=*/77);
    const double bytes = 256.0;
    auto reference = Plan(w, bytes);
    ASSERT_TRUE(reference.ok());
    const std::string ref_class_bytes = ClassPlanBytes(*reference);
    const std::string ref_compiled_bytes =
        CompiledPlanBytes(CompilePlan(*reference, w.classes, w.topo));
    ASSERT_FALSE(ref_class_bytes.empty());
    for (int run = 0; run < 3; ++run) {
      auto plan = Plan(w, bytes);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      EXPECT_EQ(ClassPlanBytes(*plan), ref_class_bytes) << "plan diverged at run=" << run;
      EXPECT_EQ(CompiledPlanBytes(CompilePlan(*plan, w.classes, w.topo)), ref_compiled_bytes);
    }
  }
}

TEST(PlanDeterminismTest, ConcurrentCallersMatchMainThread) {
  Workload w = Workload::Make(8, 600, /*seed=*/78);
  const double bytes = 128.0;
  auto reference = Plan(w, bytes);
  ASSERT_TRUE(reference.ok());
  const std::string ref_class_bytes = ClassPlanBytes(*reference);
  const std::string ref_compiled_bytes =
      CompiledPlanBytes(CompilePlan(*reference, w.classes, w.topo));

  // More tasks than workers, so several callers plan at once on every worker
  // and on this thread.
  const uint32_t tasks = 2 * ThreadPool::Shared().num_threads() + 1;
  std::vector<std::string> class_bytes(tasks);
  std::vector<std::string> compiled_bytes(tasks);
  ThreadPool::Shared().ParallelFor(tasks, [&](uint64_t t) {
    auto plan = Plan(w, bytes);
    if (plan.ok()) {
      class_bytes[t] = ClassPlanBytes(*plan);
      compiled_bytes[t] = CompiledPlanBytes(CompilePlan(*plan, w.classes, w.topo));
    }
  });
  for (uint32_t t = 0; t < tasks; ++t) {
    EXPECT_EQ(class_bytes[t], ref_class_bytes) << "task " << t;
    EXPECT_EQ(compiled_bytes[t], ref_compiled_bytes) << "task " << t;
  }
}

}  // namespace
}  // namespace dgcl
