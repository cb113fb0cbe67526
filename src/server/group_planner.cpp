#include "server/group_planner.h"

#include <algorithm>

#include "math/frame_optimizer.h"
#include "util/expect.h"

namespace rfid::server {

GroupPlan plan_groups(const PlannerInput& input) {
  RFID_EXPECT(input.total_tags >= 1, "need at least one tag");
  RFID_EXPECT(input.alpha > 0.0 && input.alpha < 1.0, "alpha must be in (0,1)");

  // Neither the zone count nor N - zones can wrap: both inputs may arrive
  // from a client as any u64.
  const std::uint64_t zones =
      zone_count(input.total_tags, input.max_group_size);
  RFID_EXPECT(input.total_tolerance <= input.total_tags - zones,
              "tolerance too large: every zone must be able to lose m_i + 1 tags");

  GroupPlan plan;
  plan.zones.reserve(zones);

  // Near-equal zone sizes: the first (N mod z) zones get one extra tag.
  const std::uint64_t base_size = input.total_tags / zones;
  const std::uint64_t oversized = input.total_tags % zones;

  // Proportional tolerance with exact total: floor allocation, then hand the
  // remainder to the largest zones (they shoulder theft most cheaply).
  std::vector<std::uint64_t> sizes(zones, base_size);
  for (std::uint64_t z = 0; z < oversized; ++z) ++sizes[z];
  std::vector<std::uint64_t> tolerances(zones, 0);
  std::uint64_t allocated = 0;
  for (std::uint64_t z = 0; z < zones; ++z) {
    tolerances[z] = input.total_tolerance * sizes[z] / input.total_tags;
    allocated += tolerances[z];
  }
  for (std::uint64_t z = 0; allocated < input.total_tolerance; ++z) {
    ++tolerances[z % zones];
    ++allocated;
  }

  plan.worst_zone_detection = 1.0;
  for (std::uint64_t z = 0; z < zones; ++z) {
    RFID_ENSURE(tolerances[z] + 1 <= sizes[z],
                "tolerance allocation exceeded a zone's size");
    const auto frame = math::optimize_trp_frame(sizes[z], tolerances[z],
                                                input.alpha, input.model);
    ZonePlan zone;
    zone.tags = sizes[z];
    zone.tolerance = tolerances[z];
    zone.frame_size = frame.frame_size;
    zone.detection = frame.predicted_detection;
    plan.total_slots += frame.frame_size;
    plan.worst_zone_detection =
        std::min(plan.worst_zone_detection, zone.detection);
    plan.zones.push_back(zone);
  }
  return plan;
}

namespace {

/// Hands each zone its contiguous subspan of `tags`, in plan order.
template <typename Zone, typename Make>
std::vector<Zone> split_spans(const tag::TagSet& tags, const GroupPlan& plan,
                              Make make) {
  std::uint64_t total = 0;
  for (const ZonePlan& zone : plan.zones) total += zone.tags;
  RFID_EXPECT(tags.size() == total,
              "population size does not match the plan's zone totals");
  std::vector<Zone> out;
  out.reserve(plan.zones.size());
  const std::span<const tag::Tag> all = tags.tags();
  std::size_t offset = 0;
  for (const ZonePlan& zone : plan.zones) {
    out.push_back(
        make(all.subspan(offset, static_cast<std::size_t>(zone.tags))));
    offset += static_cast<std::size_t>(zone.tags);
  }
  return out;
}

}  // namespace

std::vector<tag::TagSet> split_by_plan(const tag::TagSet& tags,
                                       const GroupPlan& plan) {
  return split_spans<tag::TagSet>(
      tags, plan, [](std::span<const tag::Tag> zone) {
        return tag::TagSet(std::vector<tag::Tag>(zone.begin(), zone.end()));
      });
}

std::vector<tag::ColumnarTagSet> split_columnar_by_plan(
    const tag::TagSet& tags, const GroupPlan& plan) {
  return split_spans<tag::ColumnarTagSet>(tags, plan,
                                          &tag::ColumnarTagSet::from_tags);
}

}  // namespace rfid::server
