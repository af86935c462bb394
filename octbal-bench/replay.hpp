#pragma once
/// \file replay.hpp
/// \brief Layer replays: the core kernels and the pattern reversal timed
/// on inputs rebuilt from a workload's own forests and rounds.

#include <cstdint>
#include <vector>

#include "comm/simcomm.hpp"
#include "forest/forest.hpp"
#include "metrics.hpp"

namespace octbal::bench {

/// Time the core kernels the balance pipeline uses on \p unbalanced (the
/// pre-balance leaves) and \p balanced (a balanced result of the same
/// input), recording core.* samples.  \p seed shuffles the sort input.
void core_replay(const Forest<3>& unbalanced, const Forest<3>& balanced,
                 std::uint64_t seed, Samples& layers, Checks& checks);

/// Rebuild the receiver lists of the query round in \p rounds (phase
/// "balance/queries") and time notify(kNotify) and notify_ranges on them,
/// recording comm.* samples.
void comm_replay(const std::vector<SimComm::Round>& rounds, int ranks,
                 Samples& layers, Checks& checks);

}  // namespace octbal::bench
