// Shared command-line parsing for orchestrated benches:
//   --threads=N     worker threads (default: hardware concurrency)
//   --seeds=K       trace seeds per configuration (default: 1)
//   --no-cache      bypass the on-disk result cache
//   --cache-dir=P   cache directory (default: .ones-cache)
//   --trace-dir=P   write a structured trace per executed run (off by default)
//   --metrics-dir=P write metrics exports per executed run (off by default)
//   --prof-dir=P    write host-time profiles per executed run (off by default)
//   --bench-json=P  machine-readable bench results file (default: BENCH_<name>.json)
//   --no-bench-json skip the bench results file
//   --no-progress   silence the stderr progress reporter
//   --help          print usage and exit
//
// Unknown flags print usage to stderr and exit(2) so a typo never silently
// runs a 45-minute sweep with default settings.
#pragma once

#include <functional>

#include "exp/orchestrator.hpp"

namespace ones::exp {

struct BenchOptions {
  GridOptions grid;
  /// Seeds swept per grid configuration: base_seed .. base_seed + seeds - 1.
  int seeds = 1;
  /// Canonical machine-readable results file (bench::BenchReport). Empty —
  /// the default — means `BENCH_<bench name>.json` in the working directory.
  std::string bench_json;
  /// `--no-bench-json` turns the results file off entirely.
  bool write_bench_json = true;
};

/// Number of worker threads to default to (hardware concurrency, >= 1).
int default_threads();

/// Parse bench flags; exits the process on --help (0) or bad usage (2).
/// `--trace-dir`/`--metrics-dir`/`--prof-dir` are validated up front via
/// `validate_output_dirs`, so an unwritable path fails in milliseconds
/// instead of after the first executed run.
BenchOptions parse_bench_cli(int argc, char** argv);

/// Like the two-argument overload, but a bench can claim extra flags of its
/// own: `extra` is tried on every argument the shared parser does not
/// recognize (return true = consumed), and `extra_usage` (nullable) is
/// appended verbatim to the usage text. Used by fig17_scalability for
/// `--scale=...`; other benches keep the strict unknown-flag exit(2).
BenchOptions parse_bench_cli(int argc, char** argv,
                             const std::function<bool(const char*)>& extra,
                             const char* extra_usage);

/// If `arg` is `--trace-dir=P`, `--metrics-dir=P` or `--prof-dir=P`, store P
/// in `grid` and return true. For tools with their own flags (quickstart).
bool parse_output_dir_flag(const char* arg, GridOptions& grid);

/// Ensure each of `grid`'s three instrument output dirs that is set exists
/// (creating it if needed) and is writable, by creating and removing a probe
/// file. On failure prints "<prog>: <flag>: ..." to stderr and exits(2).
void validate_output_dirs(const GridOptions& grid, const char* prog);

}  // namespace ones::exp
