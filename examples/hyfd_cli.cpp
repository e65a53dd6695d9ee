// hyfd_cli — command-line front end for the whole library: run any of the
// eight discovery algorithms (or UCC / approximate discovery) on a CSV file
// and print or save the result.
//
//   $ ./hyfd_cli --input=data.csv [--algo=hyfd] [--delimiter=,]
//                [--no-header] [--null-unequal] [--tl=SECONDS]
//                [--output=fds.txt] [--uccs] [--g3=ERROR] [--stats]
//
// Without --input, a built-in demo table is profiled.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "baselines/registry.h"
#include "core/hyfd.h"
#include "core/hyucc.h"
#include "data/csv.h"
#include "fd/approximate.h"
#include "fd/io.h"
#include "util/timer.h"

namespace {

constexpr const char* kDemo =
    "emp_id,name,dept,dept_head,salary_band\n"
    "1,ada,eng,grace,senior\n"
    "2,bob,eng,grace,junior\n"
    "3,cyd,sales,ada,senior\n"
    "4,dan,sales,ada,junior\n"
    "5,eve,eng,grace,senior\n";

struct Options {
  std::string input;
  std::string output;
  std::string algo = "hyfd";
  hyfd::CsvOptions csv;
  hyfd::NullSemantics nulls = hyfd::NullSemantics::kNullEqualsNull;
  double time_limit = 0;
  double g3 = -1;
  bool uccs = false;
  bool stats = false;
};

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* name) -> const char* {
      std::string prefix = std::string("--") + name + "=";
      if (arg.rfind(prefix, 0) == 0) return argv[i] + prefix.size();
      return nullptr;
    };
    if (const char* v = value("input")) {
      opt->input = v;
    } else if (const char* v = value("output")) {
      opt->output = v;
    } else if (const char* v = value("algo")) {
      opt->algo = v;
    } else if (const char* v = value("delimiter")) {
      opt->csv.delimiter = v[0];
    } else if (const char* v = value("null-token")) {
      opt->csv.null_token = v;
    } else if (const char* v = value("tl")) {
      opt->time_limit = std::atof(v);
    } else if (const char* v = value("g3")) {
      opt->g3 = std::atof(v);
    } else if (arg == "--no-header") {
      opt->csv.has_header = false;
    } else if (arg == "--null-unequal") {
      opt->nulls = hyfd::NullSemantics::kNullUnequal;
    } else if (arg == "--uccs") {
      opt->uccs = true;
    } else if (arg == "--stats") {
      opt->stats = true;
    } else if (arg == "--help") {
      return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: hyfd_cli [--input=FILE.csv] [--algo=hyfd|tane|fun|fd_mine|dfd|\n"
      "                depminer|fastfds|fdep] [--delimiter=C] [--no-header]\n"
      "                [--null-token=S] [--null-unequal] [--tl=SECONDS]\n"
      "                [--output=FILE] [--uccs] [--g3=ERROR] [--stats]\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hyfd;
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    PrintUsage();
    return 2;
  }

  Relation relation;
  try {
    relation = opt.input.empty() ? ReadCsvString(kDemo, opt.csv)
                                 : ReadCsvFile(opt.input, opt.csv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error reading input: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "loaded %zu rows x %d columns\n", relation.num_rows(),
               relation.num_columns());

  Timer timer;
  if (opt.uccs) {
    HyUccConfig config;
    config.null_semantics = opt.nulls;
    HyUcc algo(config);
    auto uccs = algo.Discover(relation);
    std::printf("# %zu minimal unique column combinations\n", uccs.size());
    for (const auto& ucc : uccs) {
      std::printf("%s\n", ucc.ToString(relation.schema().names()).c_str());
    }
    if (opt.stats) {
      const RunReport& report = algo.report();
      const auto counter = [&](const char* name) {
        return static_cast<size_t>(report.FindCounter(name).value_or(0));
      };
      std::fprintf(stderr, "%.3fs, %zu comparisons, %zu validations\n",
                   timer.ElapsedSeconds(), counter("hyucc.comparisons"),
                   counter("hyucc.validations"));
    }
    return 0;
  }

  FDSet fds;
  try {
    if (opt.g3 >= 0) {
      fds = DiscoverApproximateFds(relation, opt.g3, opt.nulls);
    } else if (opt.algo == "hyfd") {
      HyFdConfig config;
      config.null_semantics = opt.nulls;
      HyFd algo(config);
      fds = algo.Discover(relation);
      if (opt.stats) {
        const RunReport& report = algo.report();
        const auto counter = [&](const char* name) {
          return static_cast<size_t>(report.FindCounter(name).value_or(0));
        };
        std::fprintf(stderr,
                     "%.3fs | %zu comparisons, %zu non-FDs, %zu validations, "
                     "%zu phase switches\n",
                     timer.ElapsedSeconds(), counter("hyfd.comparisons"),
                     counter("hyfd.non_fds"), counter("hyfd.validations"),
                     counter("hyfd.phase_switches"));
      }
    } else {
      AlgoOptions options;
      options.null_semantics = opt.nulls;
      options.deadline_seconds = opt.time_limit;
      fds = FindAlgorithm(opt.algo).run(relation, options);
    }
  } catch (const TimeoutError&) {
    std::fprintf(stderr, "time limit of %.1fs exceeded\n", opt.time_limit);
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (opt.stats && opt.algo != "hyfd") {
    std::fprintf(stderr, "%.3fs\n", timer.ElapsedSeconds());
  }

  std::string text = "# " + std::to_string(fds.size()) +
                     " minimal functional dependencies\n" +
                     SerializeFds(fds, relation.schema());
  if (opt.output.empty()) {
    std::fputs(text.c_str(), stdout);
  } else {
    std::ofstream out(opt.output);
    out << text;
    std::fprintf(stderr, "wrote %zu FDs to %s\n", fds.size(), opt.output.c_str());
  }
  return 0;
}
