#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace octbal::bench {

namespace {

/// Span names whose self time the traced pass reports: the spans the
/// library opens on the new-configuration pipelines, then the benchmark's
/// own spans around each public call (prefix "call.").
const char* const kSpanNames[] = {
    "balance",          "local_balance",     "build_queries",
    "notify",           "notify_dc",         "notify_round",
    "exchange_queries", "post_queries",      "recv_queries",
    "response",         "recv_responses",    "local_rebalance",
    "deliver",          "ghost",             "ghost_candidates",
    "ghost_filter",     "enumerate_nodes",   "assign_node_owners",
    "node_owner_sync",  "delta_balance",     "call.balance",
    "call.ghost",       "call.gather",       "call.enumerate_nodes",
    "call.assign_node_owners",               "call.front_refine",
    "call.delta_balance",                    "call.repartition",
    "call.front_coarsen",
};

const char* const kMemTags[] = {
    "sort_scratch",  "linearize",    "hash_slots",      "insulation",
    "seeds",         "forest_leaves", "comm_mailbox",   "flight_recorder",
    "dirty_log",     "region_cover", "balance_staging", "repartition",
    "ghost",         "other",
};

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

// Unit "model_s": seconds of the α–β model (comm/stats.hpp), a
// deterministic function of the traffic, not a measured time.
const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"op_s", "s"},
      {"balance_s", "s"},
      {"setup_s", "s"},
      {"peak_bytes_per_leaf", "B"},
      {"max_rss_mb", "MB"},
      {"comm_msgs", "count"},
      {"comm_bytes", "B"},
      {"modeled_comm_s", "model_s"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"forest.balance.local_s", "s"},
        {"forest.balance.notify_s", "s"},
        {"forest.balance.query_response_s", "s"},
        {"forest.balance.rebalance_s", "s"},
        {"forest.balance.barrier_s", "s"},
        {"forest.balance.queries", "count"},
        {"forest.balance.response_items", "count"},
        {"forest.balance.leaves_created", "count"},
        {"forest.balance.response_yield", "ratio"},
        {"forest.balance.owner_cmp_per_lookup", "ratio"},
        {"forest.balance.owner_cache_hit_ratio", "ratio"},
        {"forest.balance.peak_bytes", "B"},
        {"forest.ghost_s", "s"},
        {"forest.ghost.entries", "count"},
        {"forest.gather_s", "s"},
        {"forest.nodes.enumerate_s", "s"},
        {"forest.nodes.owners_s", "s"},
        {"forest.nodes.count", "count"},
        {"forest.nodes.shared", "count"},
        {"forest.mesh_s", "s"},
        {"forest.delta_s", "s"},
        {"forest.delta.dirty", "count"},
        {"forest.delta.region", "count"},
        {"forest.delta.constraints", "count"},
        {"forest.delta.created", "count"},
        {"forest.delta.rounds", "count"},
        {"forest.delta.peak_bytes", "B"},
        {"forest.repartition_s", "s"},
        {"forest.repartition.moved", "count"},
        {"forest.repartition.migration_bytes", "B"},
        {"forest.refine_s", "s"},
        {"forest.coarsen_s", "s"},
        {"core.subtree_s", "s"},
        {"core.subtree.hash_queries", "count"},
        {"core.subtree.probes_per_query", "ratio"},
        {"core.sort_s", "s"},
        {"core.sort.passes", "count"},
        {"core.linearize_s", "s"},
        {"core.complete_s", "s"},
        {"core.search_s", "s"},
        {"core.search.points", "count"},
        {"core.seeds_s", "s"},
        {"core.seeds.pairs", "count"},
        {"core.seeds.count", "count"},
        {"comm.rounds", "count"},
        {"comm.slack_s", "model_s"},
        {"comm.notify_replay_s", "s"},
        {"comm.notify.rounds", "count"},
        {"comm.notify.msgs", "count"},
        {"comm.notify.bytes", "B"},
        {"comm.ranges_replay_s", "s"},
        {"obs.trace_overhead", "ratio"},
        {"obs.balance_unattributed", "ratio"},
        {"par.speedup", "ratio"},
        {"par.balance_1thread_s", "s"},
        {"workload.refine_s", "s"},
        {"workload.partition_s", "s"},
        {"error_rate", "ratio"},
    };
    for (const char* tag : kMemTags) {
      d.push_back({std::string("mem.") + tag + ".peak_bytes", "B"});
    }
    for (const char* span : kSpanNames) {
      d.push_back({std::string("span.") + span + ".self_s", "s"});
    }
    return d;
  }();
  return defs;
}

void Samples::add_all(const Samples& o) {
  for (const auto& [name, v] : o.s_) {
    auto& mine = s_[name];
    mine.insert(mine.end(), v.begin(), v.end());
  }
}

double Samples::median(const std::string& name) const {
  const auto it = s_.find(name);
  return it == s_.end() ? 0.0 : bench::median(it->second);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void Checks::expect(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "octbal-bench: check failed: %s\n", what.c_str());
  }
}

std::map<std::string, double> span_self_seconds(
    const std::vector<obs::TraceEvent>& events) {
  // Spans of one thread nest; visit them in (begin, longest first) order
  // with a stack of open ancestors, charging each span to its parent.
  std::vector<const obs::TraceEvent*> ev;
  for (const auto& e : events) ev.push_back(&e);
  std::sort(ev.begin(), ev.end(), [](const auto* a, const auto* b) {
    if (a->tid != b->tid) return a->tid < b->tid;
    if (a->begin_ns != b->begin_ns) return a->begin_ns < b->begin_ns;
    return a->end_ns > b->end_ns;
  });
  std::vector<std::int64_t> self(ev.size());
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < ev.size(); ++i) {
    while (!open.empty() && (ev[open.back()]->tid != ev[i]->tid ||
                             ev[open.back()]->end_ns <= ev[i]->begin_ns)) {
      open.pop_back();
    }
    self[i] = ev[i]->end_ns - ev[i]->begin_ns;
    if (!open.empty()) self[open.back()] -= self[i];
    open.push_back(i);
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < ev.size(); ++i) {
    out[ev[i]->name] += 1e-9 * static_cast<double>(self[i]);
  }
  return out;
}

double span_total_seconds(const std::vector<obs::TraceEvent>& events,
                          const std::string& name) {
  double total = 0;
  for (const auto& e : events) {
    if (name == e.name) total += 1e-9 * static_cast<double>(e.end_ns - e.begin_ns);
  }
  return total;
}

int emit_result(const std::vector<MetricDef>& defs, const Samples& s,
                bool required, Checks checks) {
  for (const auto& d : defs) {
    const double v = s.median(d.name);
    if (!std::isfinite(v) || (required && v == 0.0)) {
      ++checks.attempted;
      ++checks.failed;
      std::fprintf(stderr, "octbal-bench: metric %s was not measured\n",
                   d.name.c_str());
    }
  }
  std::printf("%-42s %16s %-6s %5s %14s %14s\n", "metric", "median", "unit",
              "n", "min", "max");
  for (const auto& d : defs) {
    const auto it = s.all().find(d.name);
    const std::size_t n = it == s.all().end() ? 0 : it->second.size();
    double lo = 0, hi = 0;
    if (n > 0) {
      lo = *std::min_element(it->second.begin(), it->second.end());
      hi = *std::max_element(it->second.begin(), it->second.end());
    }
    std::printf("%-42s %16.8g %-6s %5zu %14.8g %14.8g\n", d.name.c_str(),
                s.median(d.name), d.unit.c_str(), n, lo, hi);
  }
  std::string json = "{\"correct\": ";
  json += checks.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks.attempted);
  json += ", \"failed\": " + std::to_string(checks.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const double v = s.median(defs[i].name);
    if (i > 0) json += ", ";
    json += "\"" + defs[i].name + "\": {\"value\": " +
            fmt(std::isfinite(v) ? v : 0.0) + ", \"unit\": \"" +
            defs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace octbal::bench
