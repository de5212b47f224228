// Shared identifier types.
#pragma once

#include <cstdint>

namespace ones {

/// Identifies a submitted job; assigned sequentially by the workload trace.
/// Dense: a simulated trace of N jobs uses exactly the ids 0..N-1 (the
/// simulation driver checks this), so per-job tables are vectors indexed by
/// JobId.
using JobId = std::int64_t;
inline constexpr JobId kInvalidJob = -1;

/// Identifies a GPU device; dense in [0, total_gpus).
using GpuId = int;

/// Identifies a server node; dense in [0, num_nodes).
using NodeId = int;

}  // namespace ones
