// Layer probes: each one times a fixed amount of work through one layer's
// public API (kernel fibers and scheduler, bus, paged memory, DRCF,
// campaign journal and result cache, service codec) and reports host time
// per operation. Access sizes follow the workloads: 64-word bursts and
// 64-word configuration contexts, as in the DSE and fault-point models.
// Only the traced run calls them.
#pragma once

#include <string>

#include "campaign/campaign.hpp"
#include "common.hpp"

namespace perfbench {

/// Runs every probe `reps` times and stores the median of each under its
/// metric name. `scratch_dir` receives the journal and cache files the
/// campaign probes write; `sample` is a representative job record from the
/// workload (what the journal, cache and codec probes serialise).
void run_layer_probes(const std::string& scratch_dir,
                      const adriatic::campaign::JobStats& sample, int reps,
                      Metrics& out);

}  // namespace perfbench
