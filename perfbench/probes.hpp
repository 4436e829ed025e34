#pragma once
// Layer probes: each times one library call in isolation, at the exact shapes
// read from the live workload (model dimension d, batch, layer shapes, Shapley
// player count, wire frame size, agent count, execution width), so the probe
// can be set beside the in-situ phase time it explains.

#include <map>
#include <string>

#include "workloads.hpp"

namespace perfbench {

/// Probe name -> value, in the per-layer metric units (see README.md).
/// Probes whose layer does not run on the workload report 0.
std::map<std::string, double> run_probes(Built& b, const Workload& w, SpanRecorder* spans);

}  // namespace perfbench
