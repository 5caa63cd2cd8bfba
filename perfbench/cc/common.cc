#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "lfk/kernels.h"
#include "lfk/paper_reference.h"

namespace perfbench {

void
Result::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics.push_back({name, value, unit});
}

void
Result::note(const std::string &name, double value,
             const std::string &unit)
{
    notes.push_back({name, value, unit});
}

void
Result::endToEnd(double setup_s, double throughput_per_s,
                 double latency_p50_ms, double latency_tail_ms,
                 double peak_rss_mb)
{
    PaperError paper = paperError();
    metric("setup_s", setup_s, "s");
    metric("throughput_per_s", throughput_per_s, "1/s");
    metric("latency_p50_ms", latency_p50_ms, "ms");
    metric("latency_tail_ms", latency_tail_ms, "ms");
    metric("peak_rss_mb", peak_rss_mb, "MB");
    metric("paper_tp_err_pct", paper.tpPct, "%");
    metric("paper_macs_err_pct", paper.macsPct, "%");
}

void
Result::fail(const std::string &what)
{
    ++attempted;
    ++failed;
    if (errors.size() < 20)
        errors.push_back(what);
}

void
Result::check(bool ok, const std::string &what)
{
    if (ok)
        ++attempted;
    else
        fail(what);
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

double
slicedQuantile(const std::vector<Sample> &samples, double slice_s, double q)
{
    if (samples.empty())
        return 0.0;
    double span = 0.0;
    for (const Sample &s : samples)
        span = std::max(span, s.t);
    // Whole slices only; the remainder joins the last one.
    size_t slices = std::max<size_t>(1, static_cast<size_t>(span / slice_s));
    std::vector<std::vector<double>> groups(slices);
    for (const Sample &s : samples)
        groups[std::min(slices - 1, static_cast<size_t>(s.t / slice_s))]
            .push_back(s.v);
    std::vector<double> per_slice;
    for (std::vector<double> &g : groups)
        if (!g.empty())
            per_slice.push_back(quantile(std::move(g), q));
    return median(std::move(per_slice));
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
processCpuSeconds()
{
    timespec ts = {};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) / 1e9;
}

size_t
parallelWorkers()
{
    return std::min<size_t>(4,
                            std::max(1u,
                                     std::thread::hardware_concurrency()));
}

Clock::time_point
processStart()
{
    static const Clock::time_point start = Clock::now();
    return start;
}

PaperError
paperError()
{
    const auto &ref = macs::lfk::paperReference();
    const macs::machine::MachineConfig c240 =
        macs::machine::MachineConfig::convexC240();
    PaperError e;
    double n = 0.0;
    for (int id : macs::lfk::lfkIds()) {
        macs::model::KernelAnalysis a = macs::model::analyzeKernel(
            macs::lfk::toKernelCase(macs::lfk::makeKernel(id)), c240);
        const macs::lfk::PaperReference &p = ref.at(id);
        e.tpPct += std::abs(a.tP - p.tpCpl) / p.tpCpl;
        e.macsPct += std::abs(a.macs.cpl - p.macsCpl) / p.macsCpl;
        n += 1.0;
    }
    e.tpPct *= 100.0 / n;
    e.macsPct *= 100.0 / n;
    return e;
}

namespace {

void
printLine(const Metric &m)
{
    std::printf("  %-28s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

} // namespace

void
printResult(const Args &args, const Result &result)
{
    const std::vector<Metric> &metrics = result.metrics;
    std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    for (const std::string &e : result.errors)
        std::printf("FAILED: %s\n", e.c_str());
    std::printf("context:\n");
    for (const Metric &m : result.notes)
        printLine(m);
    double error_ratio =
        result.attempted > 0
            ? static_cast<double>(result.failed) /
                  static_cast<double>(result.attempted)
            : 0.0;
    printLine({"error_ratio", error_ratio, "ratio"});
    std::printf("%s metrics:\n", args.trace ? "per-layer" : "end-to-end");
    for (const Metric &m : metrics)
        printLine(m);

    std::string json = "{\"correct\": ";
    json += result.correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(result.attempted);
    json += ", \"failed\": " + std::to_string(result.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        double v = std::isfinite(m.value) ? m.value : 0.0;
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

} // namespace perfbench
