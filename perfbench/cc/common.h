/**
 * @file
 * Shared plumbing of the repository benchmark (perfbench/README.md):
 * command-line arguments, the result every workload fills, timing and
 * statistics helpers, and the isolation objects (an empty fault plan
 * and a private metrics registry) passed to every library entry point.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "faults/fault_injection.h"
#include "obs/metrics.h"

namespace perfbench {

/** Parsed command line of one benchmark run. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its Chrome trace. */
    std::string outDir = ".bench_out";
};

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * What a workload hands back. @ref metrics are the machine-read ones
 * (end-to-end without tracing, per-layer with it); @ref notes are
 * printed above the JSON line for a human reader: the counterpart
 * metrics of the other mode, exact simulated counts, and context.
 */
struct Result
{
    uint64_t attempted = 0;
    /** Failed, refused or wrong operations; any makes the run exit 3. */
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<Metric> notes;
    /** What failed, the first 20 of it, printed above the report. */
    std::vector<std::string> errors;

    void metric(const std::string &name, double value,
                const std::string &unit);
    void note(const std::string &name, double value,
              const std::string &unit);
    /** Record a failed, refused or wrong operation. */
    void fail(const std::string &what);
    /** Record one checked operation and whether it was right. */
    void check(bool ok, const std::string &what);
    /** No failed operation: a refused or lost reply counts too. */
    bool correct() const { return failed == 0; }

    /**
     * Every end-to-end metric: the workload's four timings and peak
     * memory, then the paper errors (paperError()).
     */
    void endToEnd(double setup_s, double throughput_per_s,
                  double latency_p50_ms, double latency_tail_ms,
                  double peak_rss_mb);
};

/**
 * Isolation of every run: a private registry and an injector with an
 * empty plan, so neither a MACS_FAULTS plan in the environment nor the
 * process-global registry can change what the benchmark measures.
 */
struct Isolation
{
    macs::obs::Registry registry;
    macs::faults::FaultInjector faults{macs::faults::FaultPlan{}, &registry};
};

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Linear-interpolated quantile @p q in [0, 1]; 0 for empty input. */
double quantile(std::vector<double> values, double q);
inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** One timed sample: when it happened (s into the run) and its value. */
struct Sample
{
    double t = 0.0;
    double v = 0.0;
};

/**
 * Median, over consecutive @p slice_s-second slices of the run, of the
 * @p q-quantile of the samples in each slice.
 */
double slicedQuantile(const std::vector<Sample> &samples, double slice_s,
                      double q);

/** Peak resident set of this process in MB (getrusage). */
double peakRssMb();
/** CPU seconds of all threads of this process so far. */
double processCpuSeconds();
/** min(4, hardware threads): the `macs sweep` default worker count. */
size_t parallelWorkers();

/** Time from main() entry; the first set-up is measured from here. */
Clock::time_point processStart();

/** Paper errors over the ten LFKs on the c240 column (Tables 4/5). */
struct PaperError
{
    double tpPct = 0.0;   ///< mean |t_p - paper t_p| / paper t_p
    double macsPct = 0.0; ///< the same for t_MACS
};

/**
 * Mean relative error of model::analyzeKernel on the ten LFKs on the
 * c240 machine against lfk::paperReference(). Deterministic: a
 * speed-only change must leave it unchanged.
 */
PaperError paperError();

/**
 * Print the notes, the metrics and the final JSON line, with the
 * metrics in the order the workload reported them. perfbench/run.py
 * checks that line against BENCHMARK.json, orders it as the file does
 * and adds the per-layer metrics a workload never measures as 0.
 */
void printResult(const Args &args, const Result &result);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
