// Shortest Path Spanning Tree planner — the paper's core contribution (§5.2),
// batched over destination-set equivalence classes.
//
// The seed algorithm processed one vertex at a time (in shuffled order),
// growing a communication tree rooted at the source device: every iteration
// runs a multi-source shortest-path search from the devices already in the
// tree to the uncovered destinations, using the *incremental* cost model
// blow-up as edge weights (an edge used at tree depth k is charged at stage
// k), then commits the cheapest path. Committed traffic updates the shared
// cost model, so later work items see the load created by earlier ones —
// this is what yields load balancing, fast-link preference, communication
// fusion and contention avoidance simultaneously.
//
// Batched planning exploits that every vertex of a (source, dest_mask)
// equivalence class has the same feasible trees: the work items are class
// *chunks* (bounded at max_class_units vertices) rather than vertices, each
// chunk's tree is grown once, and the chunk's weight is committed to the
// cost model in one weighted AddTransfer. Planning time drops from
// O(|V| · dijkstra) to O(#chunks · dijkstra) while the expanded per-vertex
// plan stays structurally identical in the max_class_units = 0 limit.
//
// Multi-threaded planning (num_threads != 1) keeps the serial chunk order
// but overlaps the tree searches: workers speculatively grow chunks' trees
// against snapshots of the shared cost model while a single committer
// applies results in deterministic chunk order, replay-validating any chunk
// whose snapshot drifted (and re-planning it when validation fails), so the
// output is bit-identical to the serial planner for every thread count.
// DESIGN.md §"Parallel planning" documents the scheme.

#ifndef DGCL_PLANNER_SPST_H_
#define DGCL_PLANNER_SPST_H_

#include "common/thread_pool.h"
#include "planner/cost_model.h"
#include "planner/planner.h"

namespace dgcl {

struct SpstOptions {
  // Shuffle the work-item processing order (Algorithm 1 preamble). Turning
  // this off (ablation) processes items in deterministic class order, which
  // correlates the processing order with graph locality and hurts balance.
  bool shuffle = true;
  uint64_t shuffle_seed = 1;

  // Cap on tree depth (== stage count). The paper allows |V'| - 1; deep
  // relays are never profitable on real topologies and a small cap speeds
  // planning. 0 means no cap.
  uint32_t max_tree_depth = 4;

  // Tiny per-edge cost added during path search so zero-blow-up paths still
  // prefer fewer hops (tie-breaking; keeps paths loop-free). Expressed as a
  // fraction of the time one embedding takes on the fastest connection, so
  // plans stay invariant under feature-dimension scaling (§5.1 corollary).
  double hop_epsilon_fraction = 1e-6;

  // Upper bound on the vertex units a single class tree may carry. Classes
  // larger than this are split into evenly sized chunks so skewed classes
  // still spread across parallel routes (the load-balancing behaviour of
  // per-vertex planning). 0 = one chunk per vertex, which reproduces the
  // seed per-vertex algorithm exactly (the ablation baseline).
  uint32_t max_class_units = 256;

  // Adaptive floor on work-list length: the effective chunk bound is
  // clamp(total_weight / min_chunks, 1, max_class_units), so small
  // workloads degrade gracefully toward per-vertex granularity instead of
  // quantizing all their traffic into a handful of coarse commits. Set to 0
  // to disable (use max_class_units verbatim, e.g. in chunk-size ablations).
  uint32_t min_chunks = 2048;

  // Speculation workers for parallel planning: 1 = the serial path
  // (default), 0 = hardware concurrency, T > 1 = T workers plus the calling
  // thread as committer. The produced plan is bit-identical for every value.
  uint32_t num_threads = 1;

  // Maximum cost-model drift (AddTransfer commits between a worker's
  // snapshot and the chunk's commit slot) for which replay validation is
  // attempted; chunks staler than this are re-planned outright. Purely a
  // performance knob — never affects the plan.
  uint64_t max_snapshot_staleness = 1024;

  // How many chunks ahead of the committer workers may speculate. A small
  // window keeps snapshots fresh (replay validation succeeds more often) and
  // bounds the speculative work discarded when it fails; 0 = auto
  // (2 × workers). Scheduling only — never affects the plan.
  uint64_t speculation_window = 0;

  // Serial warm-up prefix for parallel planning: this fraction of the
  // chunks (at least one chunk, only when there are enough chunks for the
  // parallel path at all) is planned and committed serially before workers
  // start speculating. Early chunks raise the stage-0 bottleneck from zero
  // on nearly every commit, so speculating on them is wasted work — their
  // replays almost always fail (see DESIGN.md §"Parallel planning"). The
  // warm-up prefix runs exactly the serial algorithm, so the plan stays
  // bit-identical for every value. 0 disables the warm-up.
  double warmup_fraction = 0.05;

  // Pool to run speculation workers on; nullptr = ThreadPool::Shared().
  // The pool only needs to exist for the duration of PlanClasses.
  ThreadPool* pool = nullptr;
};

// How the chunks of the last PlanClasses call were committed (parallel path;
// the serial path reports every chunk as exact). exact: snapshot epoch still
// current at the commit slot. replayed: snapshot drifted but replaying the
// recorded cost-model interactions against the live model reproduced every
// queried value, proving the speculative tree is what the serial planner
// would have built. replanned: drifted past max_snapshot_staleness or replay
// found a diverged value, so the chunk was planned again at its commit slot.
// Invariant: exact_commits + replay_commits + replans == chunks.
// warmup_commits counts the serial warm-up prefix (see
// SpstOptions::warmup_fraction) and is an informational subset of
// exact_commits.
struct SpstPlanStats {
  uint64_t chunks = 0;
  uint64_t exact_commits = 0;
  uint64_t replay_commits = 0;
  uint64_t replans = 0;
  uint64_t warmup_commits = 0;
};

class SpstPlanner final : public Planner {
 public:
  explicit SpstPlanner(SpstOptions options = {}) : options_(options) {}

  Result<ClassPlan> PlanClasses(const CommClasses& classes, const Topology& topo,
                                double bytes_per_unit) override;
  std::string name() const override { return "spst"; }

  // Valid after a successful PlanClasses; overwritten by the next call.
  const SpstPlanStats& last_stats() const { return stats_; }

 private:
  SpstOptions options_;
  SpstPlanStats stats_;
};

}  // namespace dgcl

#endif  // DGCL_PLANNER_SPST_H_
