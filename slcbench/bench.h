// Shared types of the repository benchmark (see slcbench/NOTES.md).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace slcbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  ///< where a traced run writes its spans ("" = nowhere)
};

/// What one run measured. Metric names and units are fixed by the tables in
/// main.cpp; a workload only fills values.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  std::map<std::string, std::string> meta;

  /// Records a correctness failure (printed to stderr) when `ok` is false.
  void check(bool ok, const std::string& what);
};

Result run_paper_sweep(const Options& opt, Tracer& tracer);
Result run_serve(const Options& opt, Tracer& tracer);

double median(std::vector<double> v);

}  // namespace slcbench
