#include "bench_e2e/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "src/util/file_util.h"
#include "src/util/string_util.h"

namespace persona::bench_e2e {

Quartiles ComputeQuartiles(std::vector<double> values) {
  if (values.empty()) {
    return {};
  }
  if (values.size() == 1) {
    return {values[0], values[0], values[0]};
  }
  std::sort(values.begin(), values.end());
  const int64_t n = 4;
  const int64_t ld = static_cast<int64_t>(values.size());
  const int64_t m = ld + 1;
  double q[3];
  for (int64_t i = 1; i < n; ++i) {
    const int64_t j = std::clamp<int64_t>(i * m / n, 1, ld - 1);
    const int64_t delta = i * m - j * n;
    q[i - 1] = (values[static_cast<size_t>(j - 1)] * static_cast<double>(n - delta) +
                values[static_cast<size_t>(j)] * static_cast<double>(delta)) /
               static_cast<double>(n);
  }
  return {q[0], q[1], q[2]};
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50); }

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = pct / 100 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Result<std::vector<MetricSpec>> LoadMetricSpecs(const std::string& benchmark_json_path) {
  PERSONA_ASSIGN_OR_RETURN(std::string text, ReadFileToString(benchmark_json_path));
  PERSONA_ASSIGN_OR_RETURN(json::Value doc, json::Parse(text));
  std::vector<MetricSpec> specs;
  for (const char* section : {"end_to_end", "per_layer"}) {
    PERSONA_ASSIGN_OR_RETURN(const json::Array* entries, doc.GetArray(section));
    for (const json::Value& entry : *entries) {
      MetricSpec spec;
      spec.end_to_end = std::string_view(section) == "end_to_end";
      PERSONA_ASSIGN_OR_RETURN(spec.name, entry.GetString("name"));
      PERSONA_ASSIGN_OR_RETURN(spec.unit, entry.GetString("unit"));
      PERSONA_ASSIGN_OR_RETURN(spec.better, entry.GetString("better"));
      if (spec.end_to_end) {
        PERSONA_ASSIGN_OR_RETURN(const json::Value* bound, entry.Get("bound"));
        if (!bound->is_number()) {
          return InvalidArgumentError(StrFormat("metric '%s': bound is not a number",
                                                spec.name.c_str()));
        }
        spec.bound = bound->as_number();
      }
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

json::Value MetricsToResultJson(const MetricMap& metrics) {
  json::Object out;
  for (const auto& [name, metric] : metrics) {
    json::Object entry;
    entry["value"] = json::Value(metric.value);
    entry["unit"] = json::Value(metric.unit);
    out[name] = json::Value(std::move(entry));
  }
  return json::Value(std::move(out));
}

json::Value MetricsToDetailJson(const MetricMap& metrics) {
  json::Object out;
  for (const auto& [name, metric] : metrics) {
    const Quartiles q = ComputeQuartiles(metric.samples);
    json::Array samples;
    for (double sample : metric.samples) {
      samples.emplace_back(sample);
    }
    json::Object entry;
    entry["value"] = json::Value(metric.value);
    entry["unit"] = json::Value(metric.unit);
    entry["n"] = json::Value(static_cast<int64_t>(metric.samples.size()));
    entry["q1"] = json::Value(q.q1);
    entry["median"] = json::Value(q.median);
    entry["q3"] = json::Value(q.q3);
    entry["samples"] = json::Value(std::move(samples));
    out[name] = json::Value(std::move(entry));
  }
  return json::Value(std::move(out));
}

Status AppendRunToFile(const std::string& path, json::Value run) {
  json::Value doc = json::Value(json::Object{{"runs", json::Value(json::Array{})}});
  if (FileExists(path)) {
    PERSONA_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
    PERSONA_ASSIGN_OR_RETURN(doc, json::Parse(text));
    PERSONA_RETURN_IF_ERROR(doc.GetArray("runs").status());
  }
  doc.as_object()["runs"].as_array().push_back(std::move(run));
  return WriteFileAtomic(path, doc.Dump(1) + "\n");
}

namespace {

// Untraced-run values of one metric per workload, in file order.
using RunValues = std::map<std::string, std::map<std::string, std::vector<double>>>;

Result<RunValues> LoadRunValues(const std::string& path) {
  PERSONA_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  PERSONA_ASSIGN_OR_RETURN(json::Value doc, json::Parse(text));
  PERSONA_ASSIGN_OR_RETURN(const json::Array* runs, doc.GetArray("runs"));
  RunValues values;
  for (const json::Value& run : *runs) {
    PERSONA_ASSIGN_OR_RETURN(int64_t traced, run.GetInt("trace"));
    if (traced != 0) {
      continue;
    }
    PERSONA_ASSIGN_OR_RETURN(std::string workload, run.GetString("workload"));
    PERSONA_ASSIGN_OR_RETURN(const json::Object* metrics, run.GetObject("metrics"));
    for (const auto& [name, entry] : *metrics) {
      PERSONA_ASSIGN_OR_RETURN(const json::Value* value, entry.Get("value"));
      values[workload][name].push_back(value->as_number());
    }
  }
  return values;
}

}  // namespace

int CompareRunFiles(const std::string& parent_path, const std::string& change_path,
                    const std::vector<MetricSpec>& specs) {
  auto parent = LoadRunValues(parent_path);
  auto change = LoadRunValues(change_path);
  if (!parent.ok() || !change.ok()) {
    std::fprintf(stderr, "compare: %s\n",
                 (parent.ok() ? change.status() : parent.status()).ToString().c_str());
    return 2;
  }
  std::printf("%-14s %-14s %12s %12s %12s %12s %6s %6s  %s\n", "workload", "metric",
              "parent_p50", "parent_iqr", "change_p50", "change_iqr", "pairs", "wins",
              "verdict");
  bool regressed = false;
  for (const auto& [workload, parent_metrics] : *parent) {
    for (const MetricSpec& spec : specs) {
      if (!spec.end_to_end) {
        continue;
      }
      const auto p_it = parent_metrics.find(spec.name);
      const auto w_it = change->find(workload);
      if (p_it == parent_metrics.end() || w_it == change->end() ||
          !w_it->second.contains(spec.name)) {
        std::printf("%-14s %-14s missing on one side\n", workload.c_str(), spec.name.c_str());
        continue;
      }
      const std::vector<double>& p = p_it->second;
      const std::vector<double>& c = w_it->second.at(spec.name);
      const double sign = spec.better == "higher" ? 1.0 : -1.0;
      const size_t pairs = std::min(p.size(), c.size());
      size_t wins = 0;
      for (size_t i = 0; i < pairs; ++i) {
        wins += sign * (c[i] - p[i]) > 0 ? 1 : 0;
      }
      bool every_better = true;
      for (double cv : c) {
        for (double pv : p) {
          every_better = every_better && sign * (cv - pv) > 0;
        }
      }
      const Quartiles pq = ComputeQuartiles(p);
      const Quartiles cq = ComputeQuartiles(c);
      const double spread = pq.q3 - pq.q1;
      const double gain = sign * (cq.median - pq.median);  // > 0: change is better
      const double allowed = spec.bound * std::fabs(pq.median);

      const char* verdict = "unchanged";
      if (pairs >= 10 && static_cast<double>(wins) >= 0.9 * static_cast<double>(pairs) &&
          gain > spread) {
        verdict = "improved";
      } else if (-gain > allowed) {
        verdict = -gain > spread ? "regressed" : "unresolved";
      } else if (spread > allowed && !every_better) {
        verdict = "unresolved";
      }
      regressed = regressed || std::string_view(verdict) == "regressed";
      std::printf("%-14s %-14s %12.5g %12.5g %12.5g %12.5g %6zu %6zu  %s\n",
                  workload.c_str(), spec.name.c_str(), pq.median, spread, cq.median,
                  cq.q3 - cq.q1, pairs, wins, verdict);
    }
  }
  return regressed ? 1 : 0;
}

}  // namespace persona::bench_e2e
