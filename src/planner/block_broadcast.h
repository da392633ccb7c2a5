// CAGNET-style block-broadcast planners ("Reducing Communication in Graph
// Neural Network Training", Tripathy et al.).
//
// CAGNET distributes the feature matrix by block rows and moves blocks with
// *broadcast* collectives instead of point-to-point sends. Mapped onto this
// repo's destination-set equivalence classes, a class (source s, mask D) is
// exactly one block-row broadcast: s must deliver the class's rows to every
// device in D. The two variants mirror the paper's 1D and 1.5D algorithms:
//
//  * broadcast-1d   — a binomial (recursive-doubling) broadcast tree over the
//    destination set: at stage k the number of devices holding the block
//    doubles, so the source injects each block once per round instead of |D|
//    times in one stage (the P2P pattern). Stage count is ceil(log2(|D|+1)),
//    per-stage source fan-out is 1 — the communication-avoiding trade: more
//    stages, far less per-stage bottleneck pressure.
//
//  * broadcast-1.5d — the replication-group variant: destinations are grouped
//    by replication group (their machine), the source sends the block once
//    to each group's leader, and leaders run the binomial broadcast inside
//    their group. Cross-group media (the NIC between machines) carry each block
//    once per group instead of once per destination — CAGNET's c-fold
//    communication reduction with c = devices per group.
//
// Both are load-oblivious: each class tree is derived from the class alone,
// and the finished plan is priced after the fact with the shared CostModel
// (ClassPlan::planned_cost_seconds via ReplayClassPlanCost).

#ifndef DGCL_PLANNER_BLOCK_BROADCAST_H_
#define DGCL_PLANNER_BLOCK_BROADCAST_H_

#include "planner/planner.h"

namespace dgcl {

struct BroadcastOptions {
  // Children a tree node may adopt per stage. 1 = binomial tree (each holder
  // forwards to one new destination per round, coverage doubles). Larger
  // values flatten the tree toward the P2P star at the cost of per-stage
  // fan-out contention.
  uint32_t fanout = 1;

  bool operator==(const BroadcastOptions&) const = default;

  Status Validate() const;
};

enum class BroadcastVariant : uint8_t { k1D, k1_5D };

class BlockBroadcastPlanner final : public Planner {
 public:
  explicit BlockBroadcastPlanner(BroadcastVariant variant, BroadcastOptions options = {})
      : variant_(variant), options_(options) {}

  Result<ClassPlan> PlanClasses(const CommClasses& classes, const Topology& topo,
                                double bytes_per_unit) override;
  std::string name() const override {
    return variant_ == BroadcastVariant::k1D ? "broadcast-1d" : "broadcast-1.5d";
  }

 private:
  BroadcastVariant variant_;
  BroadcastOptions options_;
};

}  // namespace dgcl

#endif  // DGCL_PLANNER_BLOCK_BROADCAST_H_
