/**
 * @file
 * The benchmark's workloads and its measurement loop.
 *
 * A workload loads its inputs once (the timed set-up), then runs
 * whole rounds of the same operations until the run's time is spent.
 * Each operation makes the public calls the matching dnasim verb
 * makes, and writes no files. Outputs are checked after each round,
 * outside the timed window, by the checks in checks.hh.
 */

#ifndef E2EBENCH_WORKLOADS_HH
#define E2EBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace e2e
{

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Write @p workload's inputs for @p seed into directory @p dir. */
void generateInputs(const std::string &workload, uint64_t seed,
                    const std::string &dir);

struct RunConfig
{
    std::string workload;
    std::string dir; ///< where generateInputs() wrote the inputs
    double seconds = 10.0;
    bool trace = false;
    /// CLOCK_MONOTONIC at process start, in ns: set-up is timed
    /// from there.
    uint64_t t0_ns = 0;
    /// Where a traced run writes its spans (empty: nowhere).
    std::string trace_out;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunReport
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    /// Correctness checks that failed, one line each.
    std::vector<std::string> check_failures;
};

/**
 * Run @p config.workload: the end-to-end metrics untraced, or with
 * config.trace the per-layer metrics from a traced run.
 */
RunReport runWorkload(const RunConfig &config);

/** CLOCK_MONOTONIC in nanoseconds. */
uint64_t monotonicNs();

} // namespace e2e

#endif // E2EBENCH_WORKLOADS_HH
