#include "gen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "lfk/kernels.h"
#include "server/kernel_source.h"

namespace perfbench {

uint64_t
subSeed(uint64_t seed, uint64_t stream)
{
    Rng rng(seed ^ (0x6a09e667f3bcc909ULL * (stream + 1)));
    return rng.next();
}

namespace {

const char *const kArrays[] = {"aa", "bb", "cc", "dd", "ee"};
const char *const kScalars[] = {"p1", "p2", "p3"};
// Fixed sizes keep every loop about equally costly, so a run's cost
// varies little from seed to seed; the seed picks operands and
// operators.
constexpr int kStatements = 2;
constexpr int kOpsPerExpr = 3;

/** Arrays a loop may read: those none of its statements writes. */
using ArraySet = std::vector<const char *>;

const char *
pick(Rng &rng, const ArraySet &arrays)
{
    return arrays[static_cast<size_t>(
        rng.below(static_cast<int>(arrays.size())))];
}

std::string
arrayRef(const char *name, long coef, long offset)
{
    std::string idx = coef == 1 ? "k" : std::to_string(coef) + "*k";
    if (offset > 0)
        idx += "+" + std::to_string(offset);
    return std::string(name) + "(" + idx + ")";
}

/** Array reference (common), scalar, or literal. */
std::string
randomLeaf(Rng &rng, const ArraySet &reads)
{
    int pick_kind = rng.below(10);
    if (pick_kind < 6) {
        const char *name = pick(rng, reads);
        long coef = rng.below(4) == 0 ? 2 : 1;
        long offset = rng.below(6);
        return arrayRef(name, coef, offset);
    }
    if (pick_kind < 9)
        return kScalars[rng.below(3)];
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", 0.25 + 0.25 * rng.below(8));
    return buf;
}

/**
 * An expression anchored on an array reference and grown by binary
 * operations with a leaf, so every subexpression is vector-anchored
 * (the code generator rejects loop-invariant subtrees).
 */
std::string
randomExpr(Rng &rng, const ArraySet &reads)
{
    std::string e = arrayRef(pick(rng, reads), 1, rng.below(6));
    for (int i = 0; i < kOpsPerExpr; ++i) {
        std::string leaf = randomLeaf(rng, reads);
        switch (rng.below(8)) {
          case 0:
            e = "(-" + e + ")";
            break;
          case 1:
          case 2:
            e = "(" + e + " + " + leaf + ")";
            break;
          case 3:
            e = "(" + leaf + " + " + e + ")";
            break;
          case 4:
          case 5:
            e = "(" + e + "*" + leaf + ")";
            break;
          case 6:
            e = "(" + e + " - " + leaf + ")";
            break;
          default:
            e = "(" + e + "/" + kScalars[rng.below(3)] + ")";
            break;
        }
    }
    return e;
}

/**
 * kStatements statements. Each array statement writes its own array
 * and no statement reads a written one, so the loop has no
 * loop-carried dependence and always vectorizes.
 */
std::string
randomLoopSource(Rng &rng)
{
    ArraySet reads(std::begin(kArrays), std::end(kArrays));
    std::vector<const char *> dsts;
    for (int i = 0; i < kStatements; ++i) {
        if (rng.below(5) == 0) {
            dsts.push_back(nullptr); // sum reduction into acc
            continue;
        }
        size_t at = static_cast<size_t>(
            rng.below(static_cast<int>(reads.size())));
        dsts.push_back(reads[at]);
        reads.erase(reads.begin() + static_cast<long>(at));
    }
    std::string out = "DO k\n";
    for (const char *dst : dsts) {
        if (dst == nullptr)
            out += "  acc = (acc + " + randomExpr(rng, reads) + ")\n";
        else
            out += "  " + arrayRef(dst, 1, rng.below(3)) + " = " +
                   randomExpr(rng, reads) + "\n";
    }
    return out + "END\n";
}

} // namespace

std::vector<LoopSpec>
generateLoops(uint64_t seed, size_t count)
{
    constexpr long kTrip = 512;
    Rng rng(seed);
    std::vector<LoopSpec> loops;
    while (loops.size() < count) {
        LoopSpec l;
        l.label = "dsl" + std::to_string(loops.size());
        l.source = randomLoopSource(rng);
        l.trip = kTrip;
        // Keep only loops that name all five arrays, so every loop's
        // memory image has the same size (kernelFromLoopSource gives
        // each named array 64K words) and a run's memory and cost do
        // not vary with the seed; and only loops the service accepts,
        // so no request of the benchmark fails.
        bool all_arrays = true;
        for (const char *name : kArrays)
            all_arrays = all_arrays &&
                         l.source.find(std::string(name) + "(") !=
                             std::string::npos;
        macs::model::KernelCase kc;
        macs::Diagnostics diags;
        if (all_arrays &&
            macs::server::kernelFromLoopSource(l.source, l.label, l.trip,
                                               kc, diags))
            loops.push_back(std::move(l));
    }
    return loops;
}

Zipf::Zipf(size_t n, double s)
{
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
        cdf_.push_back(sum);
    }
    for (double &c : cdf_)
        c /= sum;
}

size_t
Zipf::draw(Rng &rng) const
{
    double u = rng.unit();
    size_t i = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(i, cdf_.size() - 1);
}

namespace {

/** Seeded Fisher-Yates permutation of 0..n-1. */
std::vector<uint32_t>
permutation(Rng &rng, size_t n)
{
    std::vector<uint32_t> p(n);
    for (size_t i = 0; i < n; ++i)
        p[i] = static_cast<uint32_t>(i);
    for (size_t i = n; i > 1; --i)
        std::swap(p[i - 1], p[static_cast<size_t>(
                                rng.below(static_cast<int>(i)))]);
    return p;
}

} // namespace

ServeMix
generateServeMix(uint64_t seed, size_t requests)
{
    constexpr size_t kLoops = 12;
    constexpr size_t kBatches = 32;
    constexpr size_t kBatchJobs = 3;
    constexpr uint64_t kRankingSeed = 0x5eed;
    constexpr double kBatchShare = 0.15;
    constexpr double kZipfS = 1.0;
    static const char *const kVariants[] = {
        "baseline", "no-bubbles", "no-refresh", "no-chaining",
        "no-scalar-cache"};
    static const int kVls[] = {0, 32, 64, 100};

    ServeMix mix;
    mix.loops = generateLoops(subSeed(seed, 1), kLoops);
    for (const char *variant : kVariants) {
        for (int vl : kVls) {
            for (int id : macs::lfk::lfkIds())
                mix.jobs.push_back({id, -1, variant, vl});
            for (size_t l = 0; l < kLoops; ++l)
                mix.jobs.push_back({0, static_cast<int>(l), variant, vl});
        }
    }

    // The popularity ranking is the same for every seed, so which jobs
    // are hot (and what a hit or a miss costs) does not vary with it;
    // the seed draws the loops, the batches and the request sequence.
    Rng ranking(kRankingSeed);
    std::vector<uint32_t> rank = permutation(ranking, mix.jobs.size());
    Rng rng(subSeed(seed, 2));
    Zipf zipf(mix.jobs.size(), kZipfS);
    // A batch shares one variant and vector length (the service
    // crosses every kernel of a batch with them): members after the
    // first keep their drawn kernel but take the first's machine.
    const size_t sources = macs::lfk::lfkIds().size() + kLoops;
    for (size_t b = 0; b < kBatches; ++b) {
        uint32_t first = rank[zipf.draw(rng)];
        uint32_t machine = first - first % static_cast<uint32_t>(sources);
        std::vector<uint32_t> members = {first};
        for (size_t n = 1; n < kBatchJobs; ++n)
            members.push_back(machine +
                              rank[zipf.draw(rng)] %
                                  static_cast<uint32_t>(sources));
        mix.batches.push_back(std::move(members));
    }
    for (size_t r = 0; r < requests; ++r) {
        if (rng.unit() < kBatchShare)
            mix.schedule.push_back(static_cast<uint32_t>(
                mix.jobs.size() + static_cast<size_t>(rng.below(
                                      static_cast<int>(kBatches)))));
        else
            mix.schedule.push_back(rank[zipf.draw(rng)]);
    }
    return mix;
}

std::string
serialize(const std::vector<LoopSpec> &loops)
{
    std::string out;
    for (const LoopSpec &l : loops)
        out += l.label + " trip=" + std::to_string(l.trip) + "\n" +
               l.source;
    return out;
}

std::string
serialize(const ServeMix &mix)
{
    std::string out = serialize(mix.loops);
    for (const ServeJob &j : mix.jobs)
        out += "job " + std::to_string(j.lfkId) + " " +
               std::to_string(j.loop) + " " + j.variant + " " +
               std::to_string(j.vl) + "\n";
    for (const auto &b : mix.batches) {
        out += "batch";
        for (uint32_t m : b)
            out += " " + std::to_string(m);
        out += "\n";
    }
    out += "schedule";
    for (uint32_t r : mix.schedule)
        out += " " + std::to_string(r);
    return out + "\n";
}

MpPlan
generateMpPlan(uint64_t seed, size_t passes)
{
    using macs::lfk::MpMix;
    static const int kDslIds[] = {1, 3, 7, 8, 9, 12};
    MpPlan plan;
    plan.pool.push_back({1, MpMix::Independent});
    for (int id : macs::lfk::lfkIds()) {
        if (id != 1)
            plan.pool.push_back({id, MpMix::Independent});
        plan.pool.push_back({id, MpMix::LockStep});
    }
    for (int id : kDslIds)
        plan.pool.push_back({id, MpMix::Strip});

    Rng rng(seed);
    for (size_t p = 0; p < passes; ++p)
        for (uint32_t i : permutation(rng, plan.pool.size()))
            plan.sequence.push_back(i);
    return plan;
}

std::string
serialize(const MpPlan &plan)
{
    std::string out;
    for (const MpSpec &s : plan.pool)
        out += "mp " + std::to_string(s.kernelId) + " " +
               macs::lfk::mpMixName(s.mix) + "\n";
    out += "sequence";
    for (uint32_t i : plan.sequence)
        out += " " + std::to_string(i);
    return out + "\n";
}

} // namespace perfbench
