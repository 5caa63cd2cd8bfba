/**
 * @file
 * Span recorder of the traced run (perfbench/README.md, "Traced run").
 *
 * Spans are recorded from the benchmark's own code around calls into
 * the library's public functions: name, start, end, parent span, and
 * the cell or request id. They stay in memory and are written at exit
 * as Chrome trace-event JSON. A disabled recorder reads no clock and
 * stores nothing, so the same code path serves the untraced run.
 *
 * The recorder is not thread-safe: every traced call of a workload is
 * made from its main thread.
 */

#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct Span
{
    const char *name = "";
    int64_t startNs = 0; ///< since the recorder's epoch
    int64_t endNs = 0;
    int32_t parent = -1; ///< index of the enclosing span, or -1
    int64_t id = 0;      ///< cell or request id
};

/** Total time and count of one span name. */
struct SpanTotal
{
    double us = 0.0;
    uint64_t count = 0;

    double meanUs() const
    {
        return count ? us / static_cast<double>(count) : 0.0;
    }
};

class Tracer
{
  public:
    Tracer(bool enabled, Clock::time_point epoch);

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span; returns its index, or -1 when disabled. */
    int32_t begin(const char *name, int64_t id);
    /** Close the span @p index opened by begin(). */
    void end(int32_t index);
    /** Record a span timed by the caller (no parent). */
    void record(const char *name, Clock::time_point start,
                Clock::time_point end, int64_t id);
    /** Rename span @p index, e.g. once its outcome is known. */
    void rename(int32_t index, const char *name);

    /** RAII span. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name, int64_t id)
            : tracer_(tracer), index_(tracer.begin(name, id))
        {
        }
        ~Scope() { tracer_.end(index_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        int32_t index_;
    };

    /** Sum of durations and count per span name. */
    std::map<std::string, SpanTotal> totals() const;

    /** Durations of every span called @p name, in microseconds. */
    std::vector<double> durationsUs(const std::string &name) const;

    /**
     * Write the spans to `<args.outDir>/trace-<workload>-<seed>.json`
     * as Chrome trace-event JSON (chrome://tracing or Perfetto): the
     * first kMaxTraceEvents in recording order, with the number
     * recorded in `otherData`. Reports the path, or the failure on
     * stderr; a trace that cannot be written does not fail the run.
     */
    void write(const Args &args) const;

  private:
    int64_t sinceEpochNs(Clock::time_point t) const;

    bool enabled_;
    Clock::time_point epoch_;
    int32_t open_ = -1;
    std::vector<Span> spans_;
};

/** Spans written to a trace file at most (all stay in the totals). */
constexpr size_t kMaxTraceEvents = 20000;

} // namespace perfbench

#endif // PERFBENCH_TRACER_H
