/**
 * @file
 * Seeded input generators of the benchmark. Every workload input is a
 * pure function of the --seed argument; the program under test only
 * ever sees what these produce. serialize*() renders an input set as
 * bytes so a run can check that one seed yields identical inputs.
 */

#ifndef PERFBENCH_GEN_H
#define PERFBENCH_GEN_H

#include <cstdint>
#include <string>
#include <vector>

#include "lfk/mp_workload.h"

namespace perfbench {

/** splitmix64: small, fast, and identical on every platform. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform integer in [0, n). */
    int
    below(int n)
    {
        return static_cast<int>(next() % static_cast<uint64_t>(n));
    }

    /** Uniform double in [0, 1). */
    double
    unit()
    {
        return static_cast<double>(next() >> 11) /
               static_cast<double>(1ULL << 53);
    }

  private:
    uint64_t state_;
};

/** Stream @p stream of seed @p seed: independent generators per use. */
uint64_t subSeed(uint64_t seed, uint64_t stream);

/** One loop-DSL kernel as a client would send it. */
struct LoopSpec
{
    std::string label;
    std::string source;
    long trip = 0;
};

/**
 * @p count random DSL loops, modelled on the differential fuzzer's
 * generator (tests/fuzz_differential_test.cc): two statements of
 * three operations over five arrays and three scalars, every
 * expression anchored on an array reference, sum reductions included,
 * trip count 512. No statement reads an array the loop writes, so
 * every loop vectorizes; every loop names all five arrays, so every
 * loop's memory image has the same size.
 */
std::vector<LoopSpec> generateLoops(uint64_t seed, size_t count);
std::string serialize(const std::vector<LoopSpec> &loops);

/** Zipf(s) sampler over ranks 0..n-1 (rank 0 most popular). */
class Zipf
{
  public:
    Zipf(size_t n, double s);
    size_t draw(Rng &rng) const;

  private:
    std::vector<double> cdf_;
};

/** One analysis job of the serving mix. */
struct ServeJob
{
    int lfkId = 0;   ///< LFK kernel id, or 0 for a DSL loop
    int loop = -1;   ///< index into ServeMix::loops when lfkId == 0
    std::string variant;
    int vl = 0;      ///< 0 keeps the machine's vector length
};

/**
 * The serving workload: a job space, a pool of multi-job batches, and
 * the request schedule. Schedule entry r < jobs.size() is a
 * /v1/analyze of jobs[r]; a larger r is a /v1/batch of
 * batches[r - jobs.size()], whose member jobs share one variant and
 * vector length. Jobs and batch members are drawn by seeded Zipf
 * draws over a fixed popularity ranking of the job space, which is
 * laid out variant-major, then vector length, then kernel.
 */
struct ServeMix
{
    std::vector<LoopSpec> loops;
    std::vector<ServeJob> jobs;
    std::vector<std::vector<uint32_t>> batches;
    std::vector<uint32_t> schedule;
};

ServeMix generateServeMix(uint64_t seed, size_t requests);
std::string serialize(const ServeMix &mix);

/** One multi-CPU analysis request of the mp workload. */
struct MpSpec
{
    int kernelId = 1;
    macs::lfk::MpMix mix = macs::lfk::MpMix::Independent;
};

/**
 * Every distinct 4-CPU request over the hand-coded and DSL-compiled
 * LFKs and the three mixes (strip only on DSL kernels), and the seeded
 * order the run sends them in: @p passes seeded permutations of the
 * pool, back to back, so every pass costs the same whatever the seed.
 * The pool starts with 4 x LFK1 independent, the paper's 56-64
 * ns/access anchor.
 */
struct MpPlan
{
    std::vector<MpSpec> pool;
    std::vector<uint32_t> sequence;
};

MpPlan generateMpPlan(uint64_t seed, size_t passes);
std::string serialize(const MpPlan &plan);

} // namespace perfbench

#endif // PERFBENCH_GEN_H
