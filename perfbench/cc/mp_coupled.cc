/**
 * @file
 * mp_coupled: a seeded sequence of pipeline::runMpAnalysis requests on
 * the coupled engine with four CPUs, over the independent, lockstep
 * and strip mixes of the hand-coded and DSL-compiled LFKs. It is the
 * only workload that runs sim/mp, the reference simulator tier, and
 * four host threads coupled under one commit mutex. Every report must
 * equal the one computed at set-up, and 4 x LFK1 independent must land
 * in the paper's 56-64 ns/access band.
 *
 * The run measures whole passes over the request pool, so its mix of
 * cheap and costly requests is the same for every seed.
 *
 * Its latencies and set-up time are process CPU time. The four
 * coupled threads hand the commit mutex to each other constantly, and
 * on a shared virtual machine every hand-off waits for a sleeping
 * virtual CPU to wake, so per-request wall time swings from run to
 * run. The gated rate is wall-clock, each request timed by its best
 * pass, so a change that makes the threads wait for each other longer
 * still shows.
 */

#include "gen.h"
#include "tracer.h"
#include "workloads.h"

#include "lfk/mp_workload.h"
#include "pipeline/mp_report.h"
#include "sim/mp/coupled.h"
#include "support/strings.h"

namespace perfbench {

using namespace macs;

namespace {

constexpr int kCpus = 4;
/** Passes over the pool the sequence holds; the run wraps around. */
constexpr size_t kPasses = 8;
/**
 * Set-ups timed per run (each runs the whole pool); setup_s is their
 * median.
 */
constexpr int kSetupReps = 3;
/**
 * The tail is p90: a run holds a few passes over a pool of 26
 * requests, too few samples for p99.
 */
constexpr double kTailQuantile = 0.90;
constexpr double kPaperBandLowNs = 56.0;
constexpr double kPaperBandHighNs = 64.0;

struct MpSetup
{
    MpPlan plan;
    std::vector<pipeline::MpRequest> requests;
    std::vector<pipeline::MpAnalysis> expected;
    std::vector<std::string> expectedJson;
};

pipeline::MpRequest
requestOf(const MpSpec &spec)
{
    pipeline::MpRequest r;
    r.kernelId = spec.kernelId;
    r.mix = spec.mix;
    r.cpus = kCpus;
    r.engine = pipeline::MpEngine::Coupled;
    return r;
}

MpSetup
setUp(uint64_t seed)
{
    MpSetup s;
    s.plan = generateMpPlan(seed, kPasses);
    for (const MpSpec &spec : s.plan.pool) {
        s.requests.push_back(requestOf(spec));
        s.expected.push_back(pipeline::runMpAnalysis(s.requests.back()));
        s.expectedJson.push_back(pipeline::renderMpJson(s.expected.back()));
    }
    return s;
}

/**
 * Run and check sequence entries in whole passes over the pool until
 * @p budget_s has passed; @p op runs entry k with id @p id.
 */
/** Every analysis of a run: which request, and its wall and CPU time. */
struct Ops
{
    std::vector<uint32_t> kind;
    std::vector<double> wallMs;
    std::vector<double> cpuMs;

    /**
     * Per pool request, its least time in @p ms over the run's passes: the
     * best of a few repetitions, which host interference inflates
     * least.
     */
    std::vector<double>
    bestOf(size_t pool, const std::vector<double> &ms) const
    {
        std::vector<double> best(pool, 0.0);
        for (size_t i = 0; i < kind.size(); ++i)
            if (best[kind[i]] == 0.0 || ms[i] < best[kind[i]])
                best[kind[i]] = ms[i];
        return best;
    }
};

template <typename Op>
double
runPasses(const MpSetup &s, size_t &cursor, double budget_s, Op op)
{
    Clock::time_point t0 = Clock::now();
    do {
        uint32_t k = s.plan.sequence[cursor % s.plan.sequence.size()];
        op(k, static_cast<int64_t>(cursor++));
    } while (secondsSince(t0) < budget_s ||
             cursor % s.plan.pool.size() != 0);
    return secondsSince(t0);
}

} // namespace

void
runMpCoupled(const Args &args, Result &out)
{
    Clock::time_point epoch = processStart();
    Tracer tracer(false, epoch);

    // Set-up runs every request of the pool once, which also warms
    // every CPU before the timed passes.
    std::vector<double> setups, setup_cpu;
    MpSetup s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        Clock::time_point t0 = rep == 0 ? epoch : Clock::now();
        double c0 = rep == 0 ? 0.0 : processCpuSeconds();
        s = setUp(args.seed);
        setups.push_back(secondsSince(t0));
        setup_cpu.push_back(processCpuSeconds() - c0);
    }
    out.check(serialize(s.plan) == serialize(generateMpPlan(args.seed,
                                                            kPasses)),
              "mp request generator is not deterministic for one seed");
    const pipeline::MpAnalysis &anchor = s.expected.front();
    out.check(anchor.kernelId == 1 &&
                  anchor.mix == lfk::MpMix::Independent &&
                  anchor.meanPerAccessNs >= kPaperBandLowNs &&
                  anchor.meanPerAccessNs <= kPaperBandHighNs,
              format("4 x LFK1 independent: %.2f ns/access, outside the "
                     "paper's %.0f-%.0f ns band",
                     anchor.meanPerAccessNs, kPaperBandLowNs,
                     kPaperBandHighNs));
    double collisions = 0.0, makespan = 0.0;
    for (const pipeline::MpAnalysis &a : s.expected) {
        collisions += static_cast<double>(a.collisions);
        makespan += a.makespanCycles;
    }

    // One analysis as a client of `macs mp` or /v1/multicpu sees it,
    // timed in wall time and in process CPU time.
    auto analyze = [&](Ops &ops) {
        return [&](uint32_t k, int64_t id) {
            Clock::time_point a = Clock::now();
            double c = processCpuSeconds();
            pipeline::MpAnalysis analysis;
            {
                Tracer::Scope span(tracer, "mp.analysis", id);
                analysis = pipeline::runMpAnalysis(s.requests[k]);
            }
            std::string json;
            {
                Tracer::Scope span(tracer, "pipeline.render", id);
                json = pipeline::renderMpJson(analysis);
            }
            ops.kind.push_back(k);
            ops.wallMs.push_back(
                std::chrono::duration<double, std::milli>(Clock::now() - a)
                    .count());
            ops.cpuMs.push_back(1e3 * (processCpuSeconds() - c));
            out.check(json == s.expectedJson[k],
                      format("mp request %lld (%s) differs from set-up",
                             static_cast<long long>(id),
                             pipeline::mpCacheKey(s.requests[k]).c_str()));
        };
    };

    size_t cursor = 0;
    Ops ops;
    double cpu0 = processCpuSeconds();
    double elapsed_s =
        runPasses(s, cursor, args.trace ? 0.4 * args.seconds : args.seconds,
                  analyze(ops));
    double cpu_s = processCpuSeconds() - cpu0;
    double runs = static_cast<double>(ops.kind.size());
    std::vector<double> best = ops.bestOf(s.plan.pool.size(), ops.cpuMs);
    // Wall-clock analyses per second of one pass, each request timed by
    // its best pass: whether the four threads run or wait for each
    // other shows here, and not in CPU time.
    std::vector<double> best_wall = ops.bestOf(s.plan.pool.size(),
                                               ops.wallMs);
    double best_wall_s = 0.0;
    for (double ms : best_wall)
        best_wall_s += ms / 1e3;
    const double best_wall_rate =
        static_cast<double>(best_wall.size()) / best_wall_s;

    out.note("setup_s", median(setups), "s");
    out.note("setup_cpu_s", median(setup_cpu), "s");
    out.note("mp_runs_per_s", runs / elapsed_s, "runs/s");
    out.note("mp_runs_per_cpu_s", runs / cpu_s, "runs/s");
    out.note("mp_runs_per_s_best_pass", best_wall_rate, "runs/s");
    out.note("latency_p50_ms", quantile(ops.wallMs, 0.5), "ms");
    out.note("latency_p90_ms", quantile(ops.wallMs, kTailQuantile), "ms");
    out.note("cpu_p50_ms", quantile(ops.cpuMs, 0.5), "ms");
    out.note("cpu_p90_ms", quantile(ops.cpuMs, kTailQuantile), "ms");
    out.note("runs", runs, "count");
    out.note("distinct_requests", static_cast<double>(s.plan.pool.size()),
             "count");
    out.note("lfk1_independent_ns_per_access", anchor.meanPerAccessNs, "ns");
    out.note("mp.collisions", collisions, "count");
    out.note("mp.makespan_cycles", makespan, "cycles");
    out.note("host_cpu_per_wall", cpu_s / elapsed_s, "ratio");

    if (!args.trace) {
        out.endToEnd(median(setup_cpu), best_wall_rate,
                     quantile(best, 0.5), quantile(best, kTailQuantile),
                     peakRssMb());
        return;
    }

    // Traced: one pass with a span around each analysis, then one pass
    // replaying the two sim/mp calls an analysis makes.
    tracer.setEnabled(true);
    Ops traced;
    (void)runPasses(s, cursor, 0.0, analyze(traced));

    double coupled_cpu = 0.0, coupled_wall = 0.0;
    const machine::MachineConfig cfg = machine::MachineConfig::convexC240();
    (void)runPasses(s, cursor, 0.0, [&](uint32_t k, int64_t id) {
        const pipeline::MpRequest &req = s.requests[k];
        lfk::MpWorkload w;
        {
            Tracer::Scope span(tracer, "mp.workload", id);
            w = lfk::buildMpWorkload(req.kernelId, req.mix, kCpus);
        }
        double c0 = processCpuSeconds();
        Clock::time_point w0 = Clock::now();
        sim::mp::CoupledResult res;
        {
            Tracer::Scope span(tracer, "mp.coupled", id);
            res = sim::mp::runCoupled(w.jobs, cfg, {});
        }
        coupled_wall += secondsSince(w0);
        coupled_cpu += processCpuSeconds() - c0;
        uint64_t hits = 0;
        for (const sim::mp::CoupledCpuResult &c : res.cpus)
            hits += c.shared.collisions;
        out.check(res.makespanCycles == s.expected[k].makespanCycles &&
                      hits == s.expected[k].collisions,
                  format("replayed coupled run %lld differs from set-up",
                         static_cast<long long>(id)));
    });

    std::map<std::string, SpanTotal> t = tracer.totals();
    out.metric("pipeline.render_us", t["pipeline.render"].meanUs(), "us");
    out.metric("mp.workload_us", t["mp.workload"].meanUs(), "us");
    out.metric("mp.coupled_us", t["mp.coupled"].meanUs(), "us");
    out.metric("mp.host_cpu_util", coupled_cpu / (coupled_wall * kCpus),
               "ratio");
    out.metric("mp.collisions", collisions, "count");
    out.metric("mp.makespan_cycles", makespan, "cycles");
    out.metric("trace.overhead_pct",
               100.0 * (median(traced.cpuMs) / median(ops.cpuMs) - 1.0), "%");

    tracer.write(args);
}

} // namespace perfbench
