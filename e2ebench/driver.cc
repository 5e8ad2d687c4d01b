/**
 * @file
 * e2ebench: the end-to-end benchmark driver.
 *
 *   e2ebench gen --workload W --seed S --dir D
 *       write workload W's inputs for seed S into directory D
 *   e2ebench run --workload W --dir D --seconds N --trace 0|1
 *                --threads T [--t0-ns NS] [--trace-out FILE]
 *       load the inputs from D, run for N seconds, and print one JSON
 *       result as the last line of standard output
 *
 * run.py builds the driver and runs both steps; README.md describes
 * the workloads and the metrics.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "par/thread_pool.hh"
#include "workloads.hh"

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "e2ebench: " << why
              << "\nusage: e2ebench gen --workload W --seed S --dir D\n"
                 "       e2ebench run --workload W --dir D --seconds N "
                 "--trace 0|1 --threads T [--t0-ns NS] "
                 "[--trace-out FILE]\n";
    std::exit(2);
}

void
printResult(const e2e::RunReport &report)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                report.check_failures.empty() ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));
    for (size_t i = 0; i < report.metrics.size(); ++i) {
        const auto &m = report.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage("missing command");
    const std::string command = argv[1];
    std::map<std::string, std::string> opt;
    for (int i = 2; i < argc; i += 2) {
        const std::string key = argv[i];
        if (!key.starts_with("--") || i + 1 >= argc)
            usage("bad argument '" + key + "'");
        opt[key.substr(2)] = argv[i + 1];
    }
    auto need = [&](const std::string &key) {
        auto it = opt.find(key);
        if (it == opt.end())
            usage("missing --" + key);
        return it->second;
    };

    try {
        if (command == "gen") {
            e2e::generateInputs(need("workload"),
                                std::stoull(need("seed"), nullptr, 0),
                                need("dir"));
            return 0;
        }
        if (command != "run")
            usage("unknown command '" + command + "'");

        e2e::RunConfig config;
        config.workload = need("workload");
        config.dir = need("dir");
        config.seconds = std::stod(need("seconds"));
        config.trace = need("trace") == "1";
        config.t0_ns = opt.count("t0-ns") ? std::stoull(opt["t0-ns"])
                                          : e2e::monotonicNs();
        config.trace_out = opt.count("trace-out") ? opt["trace-out"] : "";
        dnasim::par::setThreads(std::stoul(need("threads")));

        const e2e::RunReport report = e2e::runWorkload(config);
        for (const auto &failure : report.check_failures)
            std::cerr << "e2ebench: check failed: " << failure << "\n";
        printResult(report);
        return report.check_failures.empty() ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "e2ebench: " << e.what() << "\n";
        return 1;
    }
}
