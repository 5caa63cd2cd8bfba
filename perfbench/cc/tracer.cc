#include "tracer.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

Tracer::Tracer(bool enabled, Clock::time_point epoch)
    : enabled_(enabled), epoch_(epoch)
{
}

int64_t
Tracer::sinceEpochNs(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
}

int32_t
Tracer::begin(const char *name, int64_t id)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = open_;
    s.id = id;
    s.startNs = sinceEpochNs(Clock::now());
    spans_.push_back(s);
    open_ = static_cast<int32_t>(spans_.size() - 1);
    return open_;
}

void
Tracer::end(int32_t index)
{
    if (index < 0)
        return;
    Span &s = spans_[static_cast<size_t>(index)];
    s.endNs = sinceEpochNs(Clock::now());
    open_ = s.parent;
}

void
Tracer::record(const char *name, Clock::time_point start,
               Clock::time_point end, int64_t id)
{
    if (!enabled_)
        return;
    Span s;
    s.name = name;
    s.id = id;
    s.startNs = sinceEpochNs(start);
    s.endNs = sinceEpochNs(end);
    spans_.push_back(s);
}

void
Tracer::rename(int32_t index, const char *name)
{
    if (index >= 0)
        spans_[static_cast<size_t>(index)].name = name;
}

std::map<std::string, SpanTotal>
Tracer::totals() const
{
    std::map<std::string, SpanTotal> out;
    for (const Span &s : spans_) {
        SpanTotal &t = out[s.name];
        t.us += static_cast<double>(s.endNs - s.startNs) / 1e3;
        ++t.count;
    }
    return out;
}

std::vector<double>
Tracer::durationsUs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (name == s.name)
            out.push_back(static_cast<double>(s.endNs - s.startNs) /
                          1e3);
    return out;
}

void
Tracer::write(const Args &args) const
{
    std::string path = args.outDir + "/trace-" + args.workload + "-" +
                       std::to_string(args.seed) + ".json";
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    size_t written = std::min(spans_.size(), kMaxTraceEvents);
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < written; ++i) {
        const Span &s = spans_[i];
        const char *parent =
            s.parent >= 0 ? spans_[static_cast<size_t>(s.parent)].name : "";
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"cat\": \"perfbench\", "
                     "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                     "\"pid\": 1, \"tid\": 1, \"args\": {\"id\": %lld, "
                     "\"span\": %zu, \"parent\": %d, \"parent_name\": "
                     "\"%s\"}}",
                     i ? ",\n" : "", s.name,
                     static_cast<double>(s.startNs) / 1e3,
                     static_cast<double>(s.endNs - s.startNs) / 1e3,
                     static_cast<long long>(s.id), i, s.parent, parent);
    }
    std::fprintf(f,
                 "\n], \"displayTimeUnit\": \"ms\", \"otherData\": "
                 "{\"spans_recorded\": %zu, \"spans_written\": %zu}}\n",
                 spans_.size(), written);
    if (std::fclose(f) == 0)
        std::printf("trace: %s\n", path.c_str());
    else
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

} // namespace perfbench
