/**
 * @file
 * sweep_cold: the ten paper LFKs plus seeded random DSL kernels,
 * crossed with eight machines (the five shipped .machine files and
 * three synthesized bank variants). Every repetition runs on a fresh
 * BatchEngine, so no cell is a cache hit: this is the analysis cell
 * end to end (lfk, compiler, macs, sim, pipeline) with no server work.
 *
 * Untraced, each repetition sweeps once with one worker and once with
 * min(4, nproc) workers. Traced, the engine runs give the pipeline
 * figures and a replay of every cell, with spans around each library
 * call that model::analyzeKernel makes, gives the layer breakdown;
 * each replayed analysis must be bit-identical to the engine's.
 */

#include <fstream>
#include <memory>
#include <optional>
#include <sstream>

#include "gen.h"
#include "tracer.h"
#include "workloads.h"

#include "machine/machine_file.h"
#include "macs/ax_transform.h"
#include "macs/bounds.h"
#include "macs/macs_bound.h"
#include "macs/workload.h"
#include "pipeline/checkpoint.h"
#include "pipeline/sweep.h"
#include "server/kernel_source.h"
#include "support/diag.h"
#include "support/strings.h"

namespace perfbench {

using namespace macs;

namespace {

/**
 * A DSL kernel's cells are memory-bound (kernelFromLoopSource gives
 * each array 64K words, zeroed per simulator) and swing most with
 * neighbours' memory traffic; three keep them a fifth of the grid.
 */
constexpr size_t kDslKernels = 3;
constexpr const char *kMachineDir = "machines";
constexpr const char *kGoldenPath = "tests/golden/sweep_machines_all.json";
constexpr const char *kSynthesized = "<synthesized>";

struct SweepSetup
{
    pipeline::SweepRequest request;
    /** Runs the reference sweep; every timed sweep gets a fresh one. */
    std::unique_ptr<pipeline::BatchEngine> engine;
};

std::unique_ptr<pipeline::BatchEngine>
makeEngine(size_t workers, Isolation &iso)
{
    pipeline::EngineOptions opt;
    opt.workers = workers;
    opt.metrics = &iso.registry;
    opt.faults = &iso.faults;
    return std::make_unique<pipeline::BatchEngine>(opt);
}

/** Machine files, kernels, seeded DSL inputs, the reference engine. */
SweepSetup
setUp(uint64_t seed, Isolation &iso, Tracer &tracer)
{
    SweepSetup s;
    Diagnostics diags;
    for (const std::string &path :
         machine::listMachineFiles(kMachineDir, diags)) {
        machine::MachineFile mf;
        if (!machine::loadMachineFile(path, mf, diags))
            break;
        s.request.machines.push_back(
            {mf.name, mf.description, path, mf.config});
    }
    if (diags.hasErrors() || s.request.machines.size() != 5)
        fatal("sweep_cold needs the five shipped machine files under ",
              kMachineDir, "/: ", diags.render());
    for (int banks : {8, 16, 128})
        s.request.machines.push_back(
            {format("c240-%dbank-synth", banks),
             format("synthesized %d-bank variant", banks), kSynthesized,
             machine::MachineConfig::withBanks(banks)});

    for (int id : lfk::lfkIds())
        s.request.kernels.push_back(
            lfk::toKernelCase(lfk::makeKernel(id)));
    int64_t n = 0;
    for (const LoopSpec &l : generateLoops(subSeed(seed, 10), kDslKernels)) {
        model::KernelCase kc;
        Tracer::Scope span(tracer, "compiler.compile", n++);
        if (!server::kernelFromLoopSource(l.source, l.label, l.trip, kc,
                                          diags))
            fatal("generated loop does not compile: ", diags.render());
        s.request.kernels.push_back(std::move(kc));
    }

    s.engine = makeEngine(1, iso);
    return s;
}

/** The LFK x shipped-machine sub-grid of @p full, as `macs sweep`. */
pipeline::SweepResult
goldenSubGrid(const pipeline::SweepResult &full, size_t lfk_count)
{
    pipeline::SweepResult sub;
    std::vector<size_t> cols;
    for (size_t m = 0; m < full.machines.size(); ++m)
        if (full.machines[m].source != kSynthesized) {
            cols.push_back(m);
            sub.machines.push_back(full.machines[m]);
        }
    for (size_t k = 0; k < lfk_count; ++k) {
        sub.kernelNames.push_back(full.kernelNames[k]);
        std::vector<pipeline::JobResult> row;
        for (size_t m : cols)
            row.push_back(full.cells[k][m]);
        sub.cells.push_back(std::move(row));
    }
    return sub;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

size_t
cellCount(const pipeline::SweepResult &r)
{
    return r.machines.size() * r.kernelNames.size();
}

/** One sweep on a fresh engine; returns cells per second. */
double
timedSweep(const pipeline::SweepRequest &request,
           pipeline::BatchEngine &engine, pipeline::SweepResult &out)
{
    Clock::time_point t0 = Clock::now();
    out = pipeline::runSweep(request, engine);
    double secs = secondsSince(t0);
    return static_cast<double>(cellCount(out)) / secs;
}

/** Every cell ok, and the rendered matrix equal to @p want. */
void
checkSweep(const pipeline::SweepResult &r, const std::string &want,
           const char *what, Result &out)
{
    for (const auto &row : r.cells)
        for (const pipeline::JobResult &c : row)
            out.check(c.ok(), format("%s cell %s/%s failed: %s", what,
                                     c.label.c_str(),
                                     c.configName.c_str(),
                                     c.error.c_str()));
    out.check(pipeline::renderSweepJson(r) == want,
              format("%s sweep JSON differs from the first serial sweep",
                     what));
}

/** Sum of the simulated cycles of every cell (full + A + X). */
double
gridCycles(const pipeline::SweepResult &r)
{
    double cycles = 0.0;
    for (const auto &row : r.cells)
        for (const pipeline::JobResult &c : row)
            if (c.ok())
                cycles += c.analysis->fullStats.cycles +
                          c.analysis->aStats.cycles +
                          c.analysis->xStats.cycles;
    return cycles;
}

/** Layer totals of one traced replay of a whole grid. */
struct ReplayTotals
{
    double instructions = 0.0;
    double cells = 0.0;
};

/**
 * Replay model::analyzeKernel for one cell with a span around each
 * library call, and return the analysis it assembles.
 */
model::KernelAnalysis
replayCell(const pipeline::BatchJob &job, int64_t id, Tracer &tr,
           ReplayTotals &totals)
{
    Tracer::Scope cell(tr, "pipeline.cell", id);
    {
        Tracer::Scope span(tr, "pipeline.key", id);
        (void)pipeline::BatchEngine::keyOf(job);
    }
    const model::KernelCase &kernel = job.kernel;
    const machine::MachineConfig &cfg = job.config;
    model::KernelAnalysis a;
    a.name = kernel.name;
    a.ma = kernel.ma;
    a.sourceFlopsPerPoint = kernel.sourceFlopsPerPoint;
    a.points = kernel.points;
    {
        Tracer::Scope span(tr, "macs.bounds", id);
        auto body = kernel.program.innerLoop();
        a.mac = model::countAssembly(body);
        a.maBound = model::pipeBound(kernel.ma);
        a.macBound = model::pipeBound(a.mac);
        a.macs = model::evaluateMacs(body, cfg, cfg.maxVectorLength);
        a.macsFOnly =
            model::evaluateMacsFOnly(body, cfg, cfg.maxVectorLength);
        a.macsMOnly =
            model::evaluateMacsMOnly(body, cfg, cfg.maxVectorLength);
    }
    isa::Program a_prog, x_prog;
    {
        Tracer::Scope span(tr, "macs.ax", id);
        a_prog = model::makeAProcess(kernel.program);
        x_prog = model::makeXProcess(kernel.program);
    }
    auto simulate = [&](const isa::Program &prog, const char *run_name) {
        std::optional<sim::Simulator> simulator;
        {
            Tracer::Scope span(tr, "sim.predecode", id);
            simulator.emplace(cfg, prog, job.options);
        }
        if (kernel.setup) {
            Tracer::Scope span(tr, "lfk.input", id);
            kernel.setup(*simulator);
        }
        Tracer::Scope span(tr, run_name, id);
        sim::RunStats stats = simulator->run();
        totals.instructions += static_cast<double>(stats.instructions);
        return stats;
    };
    a.fullStats = simulate(kernel.program, "sim.run_full");
    a.aStats = simulate(a_prog, "sim.run_a");
    a.xStats = simulate(x_prog, "sim.run_x");
    double points = static_cast<double>(kernel.points);
    a.tP = a.fullStats.cycles / points;
    a.tA = a.aStats.cycles / points;
    a.tX = a.xStats.cycles / points;
    totals.cells += 1.0;
    return a;
}

/** Jobs of the grid in the engine's row-major, name-sorted order. */
std::vector<pipeline::BatchJob>
gridJobs(const pipeline::SweepRequest &request,
         const pipeline::SweepResult &reference)
{
    std::vector<pipeline::BatchJob> jobs;
    for (const model::KernelCase &kernel : request.kernels)
        for (const pipeline::SweepMachine &m : reference.machines) {
            pipeline::BatchJob job;
            job.label = kernel.name;
            job.configName = m.name;
            job.kernel = kernel;
            job.config = m.config;
            job.options = request.options;
            jobs.push_back(std::move(job));
        }
    return jobs;
}

} // namespace

void
runSweepCold(const Args &args, Result &out)
{
    Isolation iso;
    Clock::time_point epoch = processStart();
    Tracer tracer(args.trace, epoch);

    // Set-up: once from process start, then once more in every timed
    // repetition, so its median spans the whole run like the other
    // figures and is not at the mercy of the host's first moments.
    std::vector<double> setups;
    SweepSetup s = setUp(args.seed, iso, tracer);
    setups.push_back(secondsSince(epoch));
    auto timed_setup = [&] {
        Clock::time_point t0 = Clock::now();
        (void)setUp(args.seed, iso, tracer);
        setups.push_back(secondsSince(t0));
    };
    out.check(serialize(generateLoops(subSeed(args.seed, 10),
                                      kDslKernels)) ==
                  serialize(generateLoops(subSeed(args.seed, 10),
                                          kDslKernels)),
              "DSL generator is not deterministic for one seed");

    const pipeline::SweepRequest &request = s.request;
    const size_t lfk_count = lfk::lfkIds().size();

    // Reference: the first serial sweep. Its bytes pin every later
    // sweep at either worker count.
    pipeline::SweepResult reference;
    (void)timedSweep(request, *s.engine, reference);
    std::string reference_json = pipeline::renderSweepJson(reference);
    checkSweep(reference, reference_json, "reference", out);
    out.check(pipeline::renderSweepJson(goldenSubGrid(
                  reference, lfk_count)) == readFile(kGoldenPath),
              format("LFK x shipped-machine sub-grid differs from %s",
                     kGoldenPath));
    double grid_cycles = gridCycles(reference);
    // Peak memory of the set-up and one serial sweep. The parallel
    // sweeps that follow leave the process peak to which of glibc's
    // per-thread arenas kept which freed memory images: it moved
    // between 31 and 39 MB from run to run of the same seed.
    const double serial_peak_mb = peakRssMb();
    const double cells = static_cast<double>(cellCount(reference));

    // Untimed warm-up: idle virtual CPUs wake slowly, and the first
    // parallel sweeps of a process would otherwise measure that.
    for (Clock::time_point w0 = Clock::now(); secondsSince(w0) < kWarmUpS;) {
        pipeline::SweepResult r;
        (void)timedSweep(request, *makeEngine(parallelWorkers(), iso), r);
    }

    std::vector<double> serial_rates, parallel_rates, compute_us,
        queue_wait_us, worker_util;
    std::vector<Sample> cell_ms; // serial cell times, by rep start
    // Each cell's least serial time over the repetitions: every
    // repetition does the same cold work, so the best of a few hundred
    // is what host interference inflates least.
    std::vector<double> best_cell_ms(static_cast<size_t>(cells), 0.0);
    std::vector<double> serial_wall_us_per_cell;
    Clock::time_point start = Clock::now();
    // Untraced: the whole budget on engine sweeps. Traced: 40% on
    // engine sweeps, the rest on the span replay.
    double engine_budget = args.seconds * (args.trace ? 0.4 : 1.0);
    do {
        timed_setup();
        auto serial = makeEngine(1, iso);
        auto parallel = makeEngine(parallelWorkers(), iso);
        pipeline::SweepResult r;
        double t = secondsSince(start);
        double rate = timedSweep(request, *serial, r);
        serial_rates.push_back(rate);
        serial_wall_us_per_cell.push_back(1e6 / rate);
        size_t i = 0;
        for (const auto &row : r.cells)
            for (const pipeline::JobResult &c : row) {
                double ms = c.timing.totalUs / 1e3;
                cell_ms.push_back({t, ms});
                compute_us.push_back(c.timing.computeUs);
                double &best = best_cell_ms[i++];
                if (best == 0.0 || ms < best)
                    best = ms;
            }
        checkSweep(r, reference_json, "serial", out);

        rate = timedSweep(request, *parallel, r);
        parallel_rates.push_back(rate);
        queue_wait_us.push_back(r.stats.queueWaitUs / cells);
        worker_util.push_back(
            r.stats.computeUs /
            (r.stats.wallUs * static_cast<double>(r.stats.workers)));
        checkSweep(r, reference_json, "parallel", out);
    } while (secondsSince(start) < engine_budget);

    double serial_cps = median(serial_rates);
    // The gated rate is the best parallel repetition: every repetition
    // does the same cold work, and the best of a few hundred needs
    // only one quiet moment of a shared host, where a run's median
    // moved by 17% of itself from run to run.
    double parallel_best_cps = quantile(parallel_rates, 1.0);
    out.note("setup_s", median(setups), "s");
    out.note("setup_reps", static_cast<double>(setups.size()), "count");
    out.note("cells_per_s_serial", serial_cps, "cells/s");
    out.note("cells_per_s_serial_best", quantile(serial_rates, 1.0),
             "cells/s");
    out.note("cells_per_s_parallel", median(parallel_rates), "cells/s");
    out.note("cells_per_s_parallel_best", parallel_best_cps, "cells/s");
    out.note("cell_p50_ms", slicedQuantile(cell_ms, 1.0, 0.5), "ms");
    out.note("cell_p99_ms", slicedQuantile(cell_ms, 1.0, 0.99), "ms");
    out.note("parallel_workers", static_cast<double>(parallelWorkers()),
             "count");
    out.note("grid_cells", cells, "count");
    out.note("sweeps_per_worker_count",
             static_cast<double>(serial_rates.size()), "count");
    out.note("cell_samples", static_cast<double>(cell_ms.size()), "count");
    out.note("sim.cycles", grid_cycles, "cycles");
    out.note("peak_rss_mb_process", peakRssMb(), "MB");

    if (!args.trace) {
        // Latencies: each cell's best serial time over the repetitions.
        out.endToEnd(median(setups), parallel_best_cps,
                     quantile(best_cell_ms, 0.5),
                     quantile(best_cell_ms, 0.99), serial_peak_mb);
        return;
    }

    // Traced replay of every cell, grid after grid, until the budget.
    std::vector<pipeline::BatchJob> jobs = gridJobs(request, reference);
    ReplayTotals totals;
    int64_t id = 0;
    do {
        for (size_t j = 0; j < jobs.size(); ++j) {
            model::KernelAnalysis a = replayCell(jobs[j], id++, tracer,
                                                 totals);
            const pipeline::JobResult &want =
                reference.cells[j / reference.machines.size()]
                               [j % reference.machines.size()];
            out.check(want.ok() &&
                          pipeline::serializeAnalysis(a) ==
                              pipeline::serializeAnalysis(*want.analysis),
                      format("traced replay of %s/%s is not bit-identical "
                             "to model::analyzeKernel",
                             want.label.c_str(), want.configName.c_str()));
        }
        Tracer::Scope span(tracer, "pipeline.render", id);
        (void)pipeline::renderSweepJson(reference);
    } while (secondsSince(start) < args.seconds);

    std::map<std::string, SpanTotal> t = tracer.totals();
    auto per_cell = [&](const char *name) {
        return t[name].us / totals.cells;
    };
    double layer_us = 0.0;
    for (const char *name :
         {"pipeline.key", "macs.bounds", "macs.ax", "sim.predecode",
          "lfk.input", "sim.run_full", "sim.run_a", "sim.run_x"})
        layer_us += per_cell(name);
    double run_us = per_cell("sim.run_full") + per_cell("sim.run_a") +
                    per_cell("sim.run_x");
    // The traced run's serial rate: cells over the time inside the
    // traced cells (the bit-identity checks between them excluded).
    double traced_cps = 1e6 / per_cell("pipeline.cell");

    out.metric("lfk.input_us", per_cell("lfk.input"), "us");
    out.metric("compiler.compile_us", t["compiler.compile"].meanUs(), "us");
    out.metric("macs.bounds_us", per_cell("macs.bounds"), "us");
    out.metric("macs.ax_us", per_cell("macs.ax"), "us");
    out.metric("sim.predecode_us", per_cell("sim.predecode"), "us");
    out.metric("sim.run_full_us", per_cell("sim.run_full"), "us");
    out.metric("sim.run_a_us", per_cell("sim.run_a"), "us");
    out.metric("sim.run_x_us", per_cell("sim.run_x"), "us");
    out.metric("sim.minstr_per_s",
               totals.instructions / totals.cells / run_us, "Minstr/s");
    out.metric("sim.cycles", grid_cycles, "cycles");
    out.metric("pipeline.key_us", per_cell("pipeline.key"), "us");
    out.metric("pipeline.cell_p50_us", quantile(compute_us, 0.5), "us");
    out.metric("pipeline.cell_p99_us", quantile(compute_us, 0.99), "us");
    out.metric("pipeline.unattributed_us",
               median(serial_wall_us_per_cell) - layer_us, "us");
    out.metric("pipeline.queue_wait_us", median(queue_wait_us), "us");
    out.metric("pipeline.worker_util", median(worker_util), "ratio");
    out.metric("pipeline.serial_cells_per_s", quantile(serial_rates, 1.0),
               "cells/s");
    out.metric("pipeline.render_us", t["pipeline.render"].meanUs(), "us");
    out.metric("trace.overhead_pct",
               100.0 * (serial_cps / traced_cps - 1.0), "%");
    out.note("traced_cells_per_s_serial", traced_cps, "cells/s");
    out.note("traced_cells", totals.cells, "count");

    tracer.write(args);
}

} // namespace perfbench
