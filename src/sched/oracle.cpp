#include "sched/oracle.hpp"

#include <cmath>

#include "common/expect.hpp"
#include "common/rng.hpp"

namespace ones::sched {

ThroughputOracle::ThroughputOracle(const cluster::Topology& topology,
                                   const OracleConfig& config)
    : topology_(topology), config_(config) {}

double ThroughputOracle::noise_factor(JobId job, int workers, int batch) const {
  if (config_.noise_sigma <= 0.0) return 1.0;
  // Deterministic per-(job, config) bias: hash the tuple into a seed.
  std::uint64_t h = config_.noise_seed;
  h ^= static_cast<std::uint64_t>(job) * 0x9e3779b97f4a7c15ULL;
  h ^= static_cast<std::uint64_t>(workers) * 0xbf58476d1ce4e5b9ULL;
  h ^= static_cast<std::uint64_t>(batch) * 0x94d049bb133111ebULL;
  Rng rng(h);
  return std::exp(rng.normal(0.0, config_.noise_sigma));
}

bool ThroughputOracle::can_colocate(int workers) const {
  return workers <= topology_.gpus_per_node();
}

double ThroughputOracle::estimate_sps(const JobView& job, int workers, int batch,
                                      bool colocated) const {
  ONES_EXPECT(job.profile != nullptr);
  ONES_EXPECT(workers >= 1);
  ONES_EXPECT(batch >= workers);
  const auto& cfg = topology_.config();
  cluster::LinkProfile link =
      colocated ? cluster::LinkProfile{cfg.intra_node_bw_Bps, cfg.intra_node_latency_s}
                : cluster::LinkProfile{cfg.inter_node_bw_Bps, cfg.inter_node_latency_s};
  const double x = model::throughput_even_sps(*job.profile, batch, workers, link);
  return x * noise_factor(job.spec.id, workers, batch);
}

double ThroughputOracle::estimate_placed_sps(const JobView& job,
                                             const model::PlacedJob& placed) const {
  ONES_EXPECT(job.profile != nullptr);
  return model::throughput_sps(*job.profile, placed) *
         noise_factor(job.spec.id, placed.workers(), placed.global_batch);
}

}  // namespace ones::sched
