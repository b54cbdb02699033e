// Sample statistics, machine-readable output and the two-commit comparison of the
// end-to-end benchmark.

#ifndef PERSONA_BENCH_E2E_REPORT_H_
#define PERSONA_BENCH_E2E_REPORT_H_

#include <map>
#include <string>
#include <vector>

#include "src/util/json.h"
#include "src/util/result.h"

namespace persona::bench_e2e {

struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};

// Quartiles as Python's statistics.quantiles(values, n=4) computes them (its default
// "exclusive" method); one sample is its own quartiles, none gives zeros.
Quartiles ComputeQuartiles(std::vector<double> values);
double Median(std::vector<double> values);
// Linear-interpolated percentile, `pct` in [0, 100].
double Percentile(std::vector<double> values, double pct);

// One metric of one run: the reported value and the per-job samples behind it
// (empty for run-level measurements such as peak memory).
struct Metric {
  std::string unit;
  double value = 0;
  std::vector<double> samples;
};
using MetricMap = std::map<std::string, Metric>;

// A metric declared in BENCHMARK.json. `bound` is negative for per-layer metrics.
struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;  // "higher" or "lower"
  double bound = -1;
  bool end_to_end = false;
};
Result<std::vector<MetricSpec>> LoadMetricSpecs(const std::string& benchmark_json_path);

// {"name": {"value": v, "unit": u}, ...}: the shape of the result line's "metrics".
json::Value MetricsToResultJson(const MetricMap& metrics);
// Full record: value, unit, sample count, quartiles and the samples themselves.
json::Value MetricsToDetailJson(const MetricMap& metrics);

// Appends `run` to the {"runs": [...]} document at `path`, creating it if needed.
Status AppendRunToFile(const std::string& path, json::Value run);

// Compares two --json files run for run (the i-th untraced run of a workload in one
// file pairs with the i-th in the other) over every end-to-end metric in `specs`,
// printing one row per workload and metric. Verdicts:
//   improved   >= 10 pairs, the change wins >= 9/10 of them, and the medians differ
//              by more than the parent's interquartile range;
//   regressed  the change's median is worse than the parent's by more than the
//              bound and by more than the parent's interquartile range;
//   unresolved the parent's spread is wider than the bound and not every change run
//              beats every parent run, or a move past the bound is inside the spread;
//   unchanged  otherwise.
// Returns 1 when any metric regressed, else 0.
int CompareRunFiles(const std::string& parent_path, const std::string& change_path,
                    const std::vector<MetricSpec>& specs);

}  // namespace persona::bench_e2e

#endif  // PERSONA_BENCH_E2E_REPORT_H_
