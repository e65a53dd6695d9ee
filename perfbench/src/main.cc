// Benchmark runner. Usage:
//
//   perfbench_run --workload <discover-long|discover-wide|service-mixed>
//                 --seed N --seconds S --trace <0|1> [--work-dir DIR]
//                 [--counts-dir DIR] [--corrupt-expected]
//
// Prints human-readable lines, then as its last line one JSON object with
// the keys correct, attempted, failed and metrics. Exits 1 when any output
// check failed, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--corrupt-expected") {
      options->corrupt_expected = true;
      continue;
    }
    if ((v = value()) == nullptr) return false;
    if (arg == "--workload") {
      options->workload = v;
    } else if (arg == "--seed") {
      options->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      options->seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      options->trace = std::string(v) == "1";
    } else if (arg == "--work-dir") {
      options->work_dir = v;
    } else if (arg == "--counts-dir") {
      options->counts_dir = v;
    } else {
      return false;
    }
  }
  return options->seconds > 0 &&
         (options->workload == "discover-long" ||
          options->workload == "discover-wide" ||
          options->workload == "service-mixed");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: %s --workload <discover-long|discover-wide|"
                 "service-mixed> --seed N --seconds S --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  // The warm loads must be served from the binary table cache.
  unsetenv("HYFD_TABLE_CACHE");
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);

  perfbench::RunResult result;
  try {
    result = options.workload == "service-mixed"
                 ? perfbench::RunService(options)
                 : perfbench::RunDiscover(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", result.ToJson().c_str());
  std::fflush(stdout);
  return result.correct && result.failed == 0 ? 0 : 1;
}
