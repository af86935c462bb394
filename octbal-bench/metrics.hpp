#pragma once
/// \file metrics.hpp
/// \brief Sample bookkeeping and the result printer of the octbal
/// benchmark: every metric is a list of samples whose median is reported,
/// next to its unit and sample count.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace octbal::bench {

/// A metric the benchmark reports: its name and unit exactly as
/// BENCHMARK.json declares them.
struct MetricDef {
  std::string name;
  std::string unit;
};

/// The end-to-end metrics (printed with --trace 0).
const std::vector<MetricDef>& end_to_end_metrics();
/// The per-layer metrics (printed with --trace 1).
const std::vector<MetricDef>& per_layer_metrics();

/// Named sample lists.
class Samples {
 public:
  void add(const std::string& name, double v) { s_[name].push_back(v); }
  void add_all(const Samples& o);
  /// Median of the samples of \p name (0 when there are none).
  double median(const std::string& name) const;
  const std::map<std::string, std::vector<double>>& all() const { return s_; }

 private:
  std::map<std::string, std::vector<double>> s_;
};

double median(std::vector<double> v);

/// Operations checked and failures found.  Every failure message goes to
/// stderr as it is recorded.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Count one checked operation; a false \p ok is a failure.
  void expect(bool ok, const std::string& what);
};

/// Self time per span name (a span's duration minus the parts covered by
/// its direct children on the same thread), summed over all spans.
std::map<std::string, double> span_self_seconds(
    const std::vector<obs::TraceEvent>& events);

/// Total duration of the spans named \p name.
double span_total_seconds(const std::vector<obs::TraceEvent>& events,
                          const std::string& name);

/// Print the table of \p defs (median, unit, sample count, min, max) and,
/// as the last line, the JSON result.  Returns the process exit code.
/// A metric that is not finite, or (when \p required) is zero or has no
/// sample, is a defect of the benchmark and fails the run.
int emit_result(const std::vector<MetricDef>& defs, const Samples& s,
                bool required, Checks checks);

}  // namespace octbal::bench
