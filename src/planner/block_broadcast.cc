#include "planner/block_broadcast.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>
#include <vector>

#include "planner/per_class.h"

namespace dgcl {
namespace {

std::vector<uint32_t> MaskToDevices(DeviceMask mask) {
  std::vector<uint32_t> out;
  while (mask != 0) {
    out.push_back(static_cast<uint32_t>(std::countr_zero(mask)));
    mask &= mask - 1;
  }
  return out;
}

// Appends a binomial broadcast of `dests` rooted at `root` (already in the
// tree at depth `root_depth`). Holders adopt up to `fanout` new destinations
// per round in insertion order; a node adopted in round r holds the block
// from depth parent+1 on and starts adopting in round r+1. Edge stages are
// the parent's tree depth (the plan representation's invariant), so the
// resulting tree is the binomial shape: the root ends up with O(log |dests|)
// children at stage 0 instead of the P2P star's |dests|.
Status AppendBinomial(const Topology& topo, uint32_t root, uint32_t root_depth,
                      const std::vector<uint32_t>& dests, uint32_t fanout, ClassTree& tree) {
  std::vector<std::pair<uint32_t, uint32_t>> holders;  // (device, depth)
  holders.push_back({root, root_depth});
  size_t next = 0;  // next destination to adopt
  while (next < dests.size()) {
    const size_t holders_this_round = holders.size();
    for (size_t h = 0; h < holders_this_round && next < dests.size(); ++h) {
      for (uint32_t f = 0; f < fanout && next < dests.size(); ++f) {
        const uint32_t dest = dests[next++];
        const LinkId link = topo.LinkBetween(holders[h].first, dest);
        if (link == kInvalidId) {
          return Status::FailedPrecondition("no link for broadcast hop " +
                                            std::to_string(holders[h].first) + " -> " +
                                            std::to_string(dest));
        }
        tree.edges.push_back(TreeEdge{link, holders[h].second});
        holders.push_back({dest, holders[h].second + 1});
      }
    }
  }
  return Status::Ok();
}

}  // namespace

Status BroadcastOptions::Validate() const {
  if (fanout == 0) {
    return Status::InvalidArgument("BroadcastOptions::fanout must be >= 1");
  }
  return Status::Ok();
}

Result<ClassPlan> BlockBroadcastPlanner::PlanClasses(const CommClasses& classes,
                                                     const Topology& topo,
                                                     double bytes_per_unit) {
  DGCL_RETURN_IF_ERROR(options_.Validate());
  const BroadcastVariant variant = variant_;
  const BroadcastOptions options = options_;
  return internal::PlanEachClass(
      classes, topo, bytes_per_unit, name(),
      [&topo, variant, options](const CommClass& cls, ClassTree& tree) -> Status {
        const std::vector<uint32_t> dests = MaskToDevices(cls.mask);
        if (variant == BroadcastVariant::k1D) {
          return AppendBinomial(topo, cls.source, 0, dests, options.fanout, tree);
        }
        // 1.5D: destinations grouped by machine; the block crosses the
        // inter-machine medium once per group (to the leader, the lowest
        // destination id of the group), then fans out inside the group with
        // the binomial schedule.
        auto group_of = [&topo](uint32_t device) -> uint64_t {
          return topo.device(device).machine;
        };
        const uint64_t source_group = group_of(cls.source);
        // Groups in ascending (group key, member id) order; dests is sorted.
        std::vector<std::pair<uint64_t, std::vector<uint32_t>>> groups;
        for (uint32_t dest : dests) {
          const uint64_t g = group_of(dest);
          auto it = std::find_if(groups.begin(), groups.end(),
                                 [g](const auto& e) { return e.first == g; });
          if (it == groups.end()) {
            groups.push_back({g, {dest}});
          } else {
            it->second.push_back(dest);
          }
        }
        for (auto& [group, members] : groups) {
          if (group == source_group) {
            // Intra-group destinations broadcast straight from the source.
            DGCL_RETURN_IF_ERROR(
                AppendBinomial(topo, cls.source, 0, members, options.fanout, tree));
            continue;
          }
          const uint32_t leader = members.front();
          const LinkId link = topo.LinkBetween(cls.source, leader);
          if (link == kInvalidId) {
            return Status::FailedPrecondition("no link for broadcast leader hop " +
                                              std::to_string(cls.source) + " -> " +
                                              std::to_string(leader));
          }
          tree.edges.push_back(TreeEdge{link, 0});
          const std::vector<uint32_t> rest(members.begin() + 1, members.end());
          DGCL_RETURN_IF_ERROR(AppendBinomial(topo, leader, 1, rest, options.fanout, tree));
        }
        return Status::Ok();
      });
}

}  // namespace dgcl
