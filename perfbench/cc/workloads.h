/**
 * @file
 * The benchmark's workloads (perfbench/README.md). Each fills @p out
 * with the metrics of its mode (end-to-end, or per-layer when
 * args.trace is set) and counts every checked output.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "common.h"

namespace perfbench {

/** Cold kernel x machine sweeps, serial and parallel. */
void runSweepCold(const Args &args, Result &out);
/** Open-loop mixed traffic against an in-process server. */
void runServeMix(const Args &args, Result &out);
/** Coupled 4-CPU shared-memory analyses. */
void runMpCoupled(const Args &args, Result &out);

/** Untimed load before measuring, so every CPU is awake. */
constexpr double kWarmUpS = 1.0;

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
