#pragma once
/// \file workloads.hpp
/// \brief The three benchmark workloads.  Each builds its input forest
/// from a seed, runs one timed operation on a copy of it through the
/// public forest/ API, and validates a result with the slow oracles.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "comm/simcomm.hpp"
#include "forest/forest.hpp"
#include "metrics.hpp"
#include "obs/mem.hpp"

namespace octbal::bench {

/// What set-up leaves behind.
struct Setup {
  Forest<3> input;       ///< the forest every timed operation starts from
  Forest<3> unbalanced;  ///< its leaves before any balance (core replay)
  /// Round matrices of the balance() that set-up ran (churn only; the
  /// other workloads take them from their own operation).
  std::vector<SimComm::Round> balance_rounds;
};

/// One timed operation and everything measured about it.
struct OpResult {
  /// Starts as a copy of the operation's input; the operation works on it.
  explicit OpResult(const Forest<3>& input) : out(input) {}

  Forest<3> out;
  double op_s = 0;       ///< wall time of the whole operation
  double balance_s = 0;  ///< wall time of its balance call(s)
  std::uint64_t leaves_out = 0;
  CommStats comm;        ///< all traffic of the operation
  double modeled_comm_s = 0;
  obs::MemSnapshot mem;  ///< the operation's memory session
  /// Round matrices of the operation's balance() (empty for churn).
  std::vector<SimComm::Round> balance_rounds;
  /// Digest of the per-rank leaf arrays and markers, plus the exact
  /// outputs of any mesh step.
  std::uint64_t digest = 0;
  bool ok = true;        ///< the cheap per-operation output checks passed
  Samples layers;        ///< one sample per per-layer metric it feeds
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string name() const = 0;
  virtual int ranks() const = 0;
  /// Build the input; records workload.* layer samples.
  virtual Setup setup(Samples& layers) const = 0;
  /// One operation on a copy of \p input, inside its own MemSession.
  /// The copy is made outside the timers.
  virtual OpResult run(const Forest<3>& input) const = 0;
  /// Oracle validation of \p ref, a result of run(s.input).
  virtual void validate(const Setup& s, const OpResult& ref,
                        Checks& checks) const = 0;
  /// Name of the span around the workload's balance call and of the
  /// library span directly inside it.
  virtual const char* balance_call_span() const { return "call.balance"; }
  virtual const char* balance_lib_span() const { return "balance"; }
};

/// "fractal", "icesheet" or "churn", its inputs made from \p seed;
/// nullptr for any other name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

/// Digest of the per-rank leaf arrays and partition markers.
std::uint64_t forest_digest(const Forest<3>& f);

}  // namespace octbal::bench
