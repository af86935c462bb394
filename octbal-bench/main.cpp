/// \file main.cpp
/// \brief octbal_bench: repeated wall-clock benchmark of the new-config
/// balance, mesh and churn pipelines, with per-layer metrics.
///
///   octbal_bench --workload fractal|icesheet|churn --seed N --seconds S
///                --trace 0|1
///
/// Every run builds its workload repeatedly (setup_s is the median),
/// runs one discarded warm-up operation, then times operations on one
/// thread for S seconds (at least kMinOps), each on a fresh copy of the
/// input made outside the timers.  Each timed result must equal the warm-up's
/// exactly (leaf digest, leaves out, msgs, bytes, accounted peak); after
/// the timing the warm-up's result is validated once by the slow oracles.
///
/// --trace 0 prints the end-to-end metrics.  --trace 1 prints the
/// per-layer ones: the medians of the layer figures over the timed loop,
/// then untraced and traced passes at one thread (self time per span,
/// tracing overhead), passes on a pool of kParThreads (its speed-up over
/// one thread), then the core and comm replays.  The last line of stdout is the JSON result; the exit
/// code is 1 when any check failed, 2 on bad arguments.

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <thread>

#include "metrics.hpp"
#include "obs/trace.hpp"
#include "replay.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

using namespace octbal;
using namespace octbal::bench;

namespace {

/// Threads that run the simulated ranks in the timed loop.  One: every
/// BSP round ends in a barrier that waits for the slowest pool thread, so
/// on a host whose cores other processes share, a larger pool measures how
/// many cores those processes leave free (a 4-thread icesheet balance()
/// runs 65-80% slower beside two or three busy neighbours; one thread does
/// not slow down).
constexpr int kTimedThreads = 1;
/// Pool size of the --trace 1 passes behind par.speedup, clamped to the
/// core count.
constexpr int kParThreads = 4;
/// Set-up runs at least kSetupReps times and for at least kSetupSeconds,
/// so that a cheap set-up still gives a steady median.
constexpr int kSetupReps = 3;
constexpr double kSetupSeconds = 1.0;
constexpr int kMinOps = 5;
/// Untraced/traced one-thread operation pairs in a --trace 1 run.
constexpr int kSerialReps = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  long seconds = 0;
  long trace = -1;
};

bool parse_uint(const char* s, unsigned long long max, unsigned long long& v) {
  if (*s < '0' || *s > '9') return false;
  char* end = nullptr;
  errno = 0;
  v = std::strtoull(s, &end, 10);
  return errno == 0 && *end == '\0' && v <= max;
}

bool parse_args(int argc, char** argv, Args& a) {
  bool seen[4] = {false, false, false, false};
  if (argc % 2 != 1) return false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    unsigned long long v = 0;
    if (flag == "--workload") {
      a.workload = val;
      seen[0] = true;
    } else if (flag == "--seed" && parse_uint(val, ~0ull, v)) {
      a.seed = v;
      seen[1] = true;
    } else if (flag == "--seconds" && parse_uint(val, 3600, v) && v >= 1) {
      a.seconds = static_cast<long>(v);
      seen[2] = true;
    } else if (flag == "--trace" && parse_uint(val, 1, v)) {
      a.trace = static_cast<long>(v);
      seen[3] = true;
    } else {
      return false;
    }
  }
  return seen[0] && seen[1] && seen[2] && seen[3];
}

double max_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB on Linux
}

bool same_result(const OpResult& a, const OpResult& b) {
  return a.ok && b.ok && a.digest == b.digest && a.leaves_out == b.leaves_out &&
         a.comm.messages == b.comm.messages && a.comm.bytes == b.comm.bytes &&
         a.mem.peak_bytes == b.mem.peak_bytes;
}

void print_memory(const OpResult& r) {
  auto tags = r.mem.tags;
  std::sort(tags.begin(), tags.end(),
            [](const auto& x, const auto& y) { return x.total > y.total; });
  std::printf("memory: accounted peak %llu B; top tags:",
              static_cast<unsigned long long>(r.mem.peak_bytes));
  for (std::size_t i = 0; i < tags.size() && i < 3; ++i) {
    std::printf(" %s=%llu", obs::mem_tag_name(tags[i].tag),
                static_cast<unsigned long long>(tags[i].total));
  }
  std::printf("\n");
}

/// The timed loop: operations on fresh copies of \p input for at least
/// \p seconds and kMinOps operations, each checked against \p ref.
void timed_loop(const Workload& w, const Forest<3>& input, const OpResult& ref,
                long seconds, Samples& e2e, Samples& layers, Checks& checks) {
  Timer wall;
  for (int n = 1; n <= kMinOps || wall.seconds() < seconds; ++n) {
    const OpResult r = w.run(input);
    checks.expect(same_result(r, ref),
                  "operation " + std::to_string(n) + " differs from warm-up");
    e2e.add("op_s", r.op_s);
    e2e.add("balance_s", r.balance_s);
    e2e.add("comm_msgs", static_cast<double>(r.comm.messages));
    e2e.add("comm_bytes", static_cast<double>(r.comm.bytes));
    e2e.add("modeled_comm_s", r.modeled_comm_s);
    e2e.add("peak_bytes_per_leaf", static_cast<double>(r.mem.peak_bytes) /
                                       static_cast<double>(r.leaves_out));
    layers.add_all(r.layers);
  }
}

/// One-thread passes, after the timed loop: kSerialReps pairs of an
/// untraced and a traced operation (in-memory sink), alternating so that
/// neither side gets the warmer machine.  Records the span self times, the
/// tracing overhead, and the one-thread balance time that par.speedup
/// divides.
double serial_passes(const Workload& w, const Forest<3>& input,
                     const OpResult& ref, Samples& layers, Checks& checks) {
  std::vector<double> untraced, traced;
  std::map<std::string, double> spans;  // last traced pass, for the report
  for (int i = 0; i < kSerialReps; ++i) {
    const OpResult plain = w.run(input);
    checks.expect(same_result(plain, ref), "one-thread operation differs");
    untraced.push_back(plain.balance_s);

    obs::trace_begin("");
    const OpResult r = w.run(input);
    const auto events = obs::trace_snapshot();
    obs::trace_end();
    checks.expect(same_result(r, ref), "traced operation differs");
    traced.push_back(r.balance_s);
    spans = span_self_seconds(events);
    for (const auto& [name, secs] : spans) {
      layers.add("span." + name + ".self_s", secs);
    }
    const double call = span_total_seconds(events, w.balance_call_span());
    const auto self_of = [&](const char* name) {
      const auto it = spans.find(name);
      return it == spans.end() ? 0.0 : it->second;
    };
    layers.add("obs.balance_unattributed",
               call > 0 ? (self_of(w.balance_call_span()) +
                           self_of(w.balance_lib_span())) /
                              call
                        : 0.0);
  }

  // A span the library gained after BENCHMARK.json was written is shown
  // here; the result line carries only the declared metrics.
  for (const auto& d : per_layer_metrics()) {
    if (d.name.rfind("span.", 0) == 0) {
      spans.erase(d.name.substr(5, d.name.size() - 5 - 7));
    }
  }
  for (const auto& [name, secs] : spans) {
    std::printf("undeclared span %s: self %.6g s\n", name.c_str(), secs);
  }
  const double one = median(untraced);
  layers.add("par.balance_1thread_s", one);
  layers.add("obs.trace_overhead", median(traced) / one);
  return one;
}

/// Pool passes: a discarded warm-up, then kSerialReps operations on a pool
/// of \p threads.  Records the pool's speed-up over \p one_thread_s.
void pool_passes(const Workload& w, const Forest<3>& input,
                 const OpResult& ref, int threads, double one_thread_s,
                 Samples& layers, Checks& checks) {
  par::set_num_threads(threads);
  checks.expect(same_result(w.run(input), ref), "pool warm-up differs");
  std::vector<double> pooled;
  for (int i = 0; i < kSerialReps; ++i) {
    const OpResult r = w.run(input);
    checks.expect(same_result(r, ref), "pool operation differs");
    pooled.push_back(r.balance_s);
  }
  par::set_num_threads(kTimedThreads);
  layers.add("par.speedup", one_thread_s / median(pooled));
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: octbal_bench --workload fractal|icesheet|churn "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const auto w = make_workload(a.workload, a.seed);
  if (!w) {
    std::fprintf(stderr, "octbal_bench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  const int par_threads =
      std::max(1, std::min<int>(kParThreads, static_cast<int>(hw)));
  par::set_num_threads(kTimedThreads);
  std::printf("workload %s, seed %llu%s, P=%d simulated ranks on "
              "%d thread(s), %ld s timed, trace %ld\n",
              w->name().c_str(), static_cast<unsigned long long>(a.seed),
              w->name() == "fractal" ? " (ignored: deterministic input)" : "",
              w->ranks(), kTimedThreads, a.seconds, a.trace);

  Samples e2e, layers;
  Checks checks;
  std::optional<Setup> setup;
  const Timer setup_wall;
  for (int i = 0; i < kSetupReps || setup_wall.seconds() < kSetupSeconds;
       ++i) {
    setup.reset();
    Timer t;
    setup.emplace(w->setup(layers));
    e2e.add("setup_s", t.seconds());
  }
  const OpResult ref = w->run(setup->input);
  checks.expect(ref.ok, "warm-up operation output checks");
  std::printf("leaves: %llu unbalanced, %llu operation input, %llu out\n",
              static_cast<unsigned long long>(
                  setup->unbalanced.global_num_octants()),
              static_cast<unsigned long long>(setup->input.global_num_octants()),
              static_cast<unsigned long long>(ref.leaves_out));
  print_memory(ref);

  timed_loop(*w, setup->input, ref, a.seconds, e2e, layers, checks);
  if (a.trace == 0) {
    e2e.add("max_rss_mb", max_rss_mb());
  } else {
    const double one = serial_passes(*w, setup->input, ref, layers, checks);
    pool_passes(*w, setup->input, ref, par_threads, one, layers, checks);
    core_replay(setup->unbalanced, ref.out, a.seed, layers, checks);
    comm_replay(ref.balance_rounds.empty() ? setup->balance_rounds
                                           : ref.balance_rounds,
                w->ranks(), layers, checks);
  }
  w->validate(*setup, ref, checks);

  if (a.trace == 0) {
    return emit_result(end_to_end_metrics(), e2e, true, checks);
  }
  layers.add("error_rate", static_cast<double>(checks.failed) /
                               static_cast<double>(checks.attempted));
  return emit_result(per_layer_metrics(), layers, false, checks);
}
