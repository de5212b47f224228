#include "telemetry/timeline.hpp"

#include "common/expect.hpp"

namespace ones::telemetry {

TimelineSampler::SeriesId TimelineSampler::series(const std::string& name) {
  ONES_EXPECT_MSG(!name.empty(), "timeline series needs a name");
  auto it = by_name_.find(name);
  if (it != by_name_.end()) return it->second;
  const SeriesId id = names_.size();
  names_.push_back(name);
  by_name_.emplace(name, id);
  last_value_.push_back(0.0);
  has_value_.push_back(0);
  return id;
}

const std::string& TimelineSampler::name(SeriesId id) const {
  ONES_EXPECT_MSG(id < names_.size(), "unknown timeline series id");
  return names_[id];
}

void TimelineSampler::record(SeriesId id, double t, double value) {
  ONES_EXPECT_MSG(id < names_.size(), "unknown timeline series id");
  ONES_EXPECT_MSG(t >= last_t_ || !any_point_, "sim-time regressed in timeline");
  last_t_ = t;
  any_point_ = true;
  if (has_value_[id] && last_value_[id] == value) return;  // step unchanged
  has_value_[id] = 1;
  last_value_[id] = value;
  points_.push_back({t, id, value});
}

}  // namespace ones::telemetry
