/**
 * @file
 * Entry point of the repository benchmark (perfbench/README.md):
 *
 *   macs_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--out-dir DIR]
 *
 * Runs one workload, checks every output, and prints the metrics of
 * its mode with the final line one JSON object. Exit status: 0 when
 * every output was right, 3 when any was wrong, 1 on a usage error,
 * 2 when the workload could not run at all.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "macs_perfbench: %s\nusage: macs_perfbench --workload "
                 "sweep_cold|serve_mix|mp_coupled --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n",
                 why);
    return 1;
}

bool
parseNumber(const char *text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text, &end);
    return end != text && *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    (void)perfbench::processStart();
    perfbench::Args args;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        double num = 0.0;
        if (a == "--workload") {
            args.workload = v;
        } else if (a == "--seed" && parseNumber(v, num) && num >= 0) {
            args.seed = static_cast<uint64_t>(num);
        } else if (a == "--seconds" && parseNumber(v, num) && num > 0 &&
                   num <= 120) {
            args.seconds = num;
        } else if (a == "--trace" && (!std::strcmp(v, "0") ||
                                      !std::strcmp(v, "1"))) {
            args.trace = v[0] == '1';
        } else if (a == "--out-dir") {
            args.outDir = v;
        } else {
            return usage(("bad argument " + a + " " + v).c_str());
        }
    }

    perfbench::Result result;
    try {
        if (args.workload == "sweep_cold")
            perfbench::runSweepCold(args, result);
        else if (args.workload == "serve_mix")
            perfbench::runServeMix(args, result);
        else if (args.workload == "mp_coupled")
            perfbench::runMpCoupled(args, result);
        else
            return usage(("unknown workload '" + args.workload + "'")
                             .c_str());
        perfbench::printResult(args, result);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "macs_perfbench: %s: %s\n",
                     args.workload.c_str(), e.what());
        return 2;
    }
    return result.correct() ? 0 : 3;
}
