// Quickstart: discover all minimal functional dependencies of a small
// relation with HyFD's default (paper) configuration.
//
//   $ ./quickstart

#include <cstdio>

#include "core/hyfd.h"
#include "data/relation.h"

int main() {
  using namespace hyfd;

  // A toy address table. By construction: zipcode -> city, and the id column
  // is a key.
  Relation relation = Relation::FromStringRows(
      Schema({"id", "firstname", "zipcode", "city"}),
      {
          {"1", "alice", "14482", "potsdam"},
          {"2", "bob", "14482", "potsdam"},
          {"3", "carol", "10115", "berlin"},
          {"4", "alice", "10115", "berlin"},
          {"5", "dave", "20095", "hamburg"},
      });

  HyFd algorithm;  // defaults: null = null, 1% efficiency threshold
  FDSet fds = algorithm.Discover(relation);

  std::printf("Discovered %zu minimal functional dependencies:\n", fds.size());
  for (const std::string& fd : fds.ToStrings(relation.schema().names())) {
    std::printf("  %s\n", fd.c_str());
  }

  // Every count of the run lives in its report's counters.
  const RunReport& report = algorithm.report();
  const auto counter = [&](const char* name) {
    return static_cast<size_t>(report.FindCounter(name).value_or(0));
  };
  std::printf(
      "\nRun stats: %zu record comparisons, %zu candidate validations, "
      "%zu phase switch(es)\n",
      counter("hyfd.comparisons"), counter("hyfd.validations"),
      counter("hyfd.phase_switches"));
  return 0;
}
