// Fixture: R2 positive — the DRL baseline learns from what it sums, so a
// reward summed in hash order reaches its policy weights. One unannotated
// declaration and one range-for over it. Expected: two R2.
#include <unordered_map>

namespace fixture {

double episode_reward() {
  std::unordered_map<int, double> jct_by_job;
  jct_by_job[3] = 120.0;
  double sum = 0.0;
  for (const auto& [id, jct] : jct_by_job) sum -= jct;
  return sum;
}

}  // namespace fixture
