#include "exp/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <thread>

namespace ones::exp {

namespace {

void print_usage(std::FILE* out, const char* prog, const char* extra_usage) {
  std::fprintf(out,
               "usage: %s [--threads=N] [--seeds=K] [--no-cache] [--cache-dir=PATH]\n"
               "          [--trace-dir=PATH] [--metrics-dir=PATH] [--prof-dir=PATH]\n"
               "          [--bench-json=PATH] [--no-bench-json] [--no-progress] [--help]\n"
               "  --threads=N     worker threads (default: hardware concurrency, %d)\n"
               "  --seeds=K       trace seeds per configuration (default: 1)\n"
               "  --no-cache      bypass the on-disk result cache\n"
               "  --cache-dir=P   cache directory (default: .ones-cache)\n"
               "  --trace-dir=P   write JSONL + Chrome traces per executed run\n"
               "  --metrics-dir=P write timeline CSV + Prometheus + JSON metrics per executed run\n"
               "  --prof-dir=P    write host-time span profiles per executed run\n"
               "  --bench-json=P  machine-readable results file (default: BENCH_<name>.json)\n"
               "  --no-bench-json skip the machine-readable results file\n"
               "  --no-progress   silence the stderr progress/ETA reporter\n",
               prog, default_threads());
  if (extra_usage != nullptr) std::fputs(extra_usage, out);
}

/// The instrument output-dir flags, parsed and validated from this one table.
struct OutputDirFlag {
  const char* flag;
  std::string GridOptions::*dir;
};
constexpr OutputDirFlag kOutputDirFlags[] = {
    {"--trace-dir", &GridOptions::trace_dir},
    {"--metrics-dir", &GridOptions::metrics_dir},
    {"--prof-dir", &GridOptions::prof_dir},
};

/// Parse the integer value of "--flag=V"; exits on malformed or < min.
int parse_int_value(const char* arg, const char* value, int min, const char* prog) {
  char* end = nullptr;
  const long v = std::strtol(value, &end, 10);
  if (*value == '\0' || *end != '\0' || v < min) {
    std::fprintf(stderr, "%s: bad value in '%s' (need an integer >= %d)\n", prog, arg,
                 min);
    std::exit(2);
  }
  return static_cast<int>(v);
}

}  // namespace

int default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

BenchOptions parse_bench_cli(int argc, char** argv) {
  return parse_bench_cli(argc, argv, nullptr, nullptr);
}

BenchOptions parse_bench_cli(int argc, char** argv,
                             const std::function<bool(const char*)>& extra,
                             const char* extra_usage) {
  BenchOptions opt;
  opt.grid.threads = default_threads();
  const char* prog = argc > 0 ? argv[0] : "bench";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      print_usage(stdout, prog, extra_usage);
      std::exit(0);
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      opt.grid.threads = parse_int_value(arg, arg + 10, 1, prog);
    } else if (std::strncmp(arg, "--seeds=", 8) == 0) {
      opt.seeds = parse_int_value(arg, arg + 8, 1, prog);
    } else if (std::strcmp(arg, "--no-cache") == 0) {
      opt.grid.use_cache = false;
    } else if (std::strncmp(arg, "--cache-dir=", 12) == 0) {
      opt.grid.cache_dir = arg + 12;
    } else if (parse_output_dir_flag(arg, opt.grid)) {
      // one of the instrument output dirs
    } else if (std::strncmp(arg, "--bench-json=", 13) == 0) {
      opt.bench_json = arg + 13;
    } else if (std::strcmp(arg, "--no-bench-json") == 0) {
      opt.write_bench_json = false;
    } else if (std::strcmp(arg, "--no-progress") == 0) {
      opt.grid.progress = false;
    } else if (extra && extra(arg)) {
      // consumed by the bench's own flag handler
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", prog, arg);
      print_usage(stderr, prog, extra_usage);
      std::exit(2);
    }
  }
  validate_output_dirs(opt.grid, prog);
  return opt;
}

bool parse_output_dir_flag(const char* arg, GridOptions& grid) {
  for (const OutputDirFlag& f : kOutputDirFlags) {
    const std::size_t n = std::strlen(f.flag);
    if (std::strncmp(arg, f.flag, n) == 0 && arg[n] == '=') {
      grid.*f.dir = arg + n + 1;
      return true;
    }
  }
  return false;
}

void validate_output_dirs(const GridOptions& grid, const char* prog) {
  namespace fs = std::filesystem;
  for (const OutputDirFlag& f : kOutputDirFlags) {
    const std::string& dir = grid.*f.dir;
    if (dir.empty()) continue;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
      std::fprintf(stderr, "%s: %s: cannot create directory '%s': %s\n", prog, f.flag,
                   dir.c_str(), ec.message().c_str());
      std::exit(2);
    }
    if (!fs::is_directory(dir, ec) || ec) {
      std::fprintf(stderr, "%s: %s: '%s' is not a directory\n", prog, f.flag, dir.c_str());
      std::exit(2);
    }
    const fs::path probe = fs::path(dir) / ".write-probe";
    {
      std::ofstream out(probe, std::ios::binary | std::ios::trunc);
      out << "probe";
      if (!out.good()) {
        std::fprintf(stderr, "%s: %s: directory '%s' is not writable\n", prog, f.flag,
                     dir.c_str());
        std::exit(2);
      }
    }
    fs::remove(probe, ec);  // best-effort cleanup; a stale probe is harmless
  }
}

}  // namespace ones::exp
