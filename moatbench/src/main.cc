/**
 * @file
 * moatbench: the benchmark harness run.py launches, one process per workload.
 *
 *   moatbench setup|measure|trace|fill|digest --workload W --seed S
 *             --seconds T --state DIR [--tiny]
 *   moatbench info
 *
 * `info` prints the build's fingerprint (compiler, build type,
 * hardware threads) as one JSON line.
 */

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "workloads.hh"

namespace
{

int
usage()
{
    std::cerr << "usage: moatbench setup|measure|trace|fill|digest "
                 "--workload W --seed S --seconds T --state DIR [--tiny]\n"
                 "       moatbench info\n";
    return 2;
}

} // namespace

const std::vector<std::string> &
moatbench::workloadNames()
{
    static const std::vector<std::string> names = {
        "suite-cold", "matrix-eth", "serve-warm", "coattack-mix"};
    return names;
}

int
main(int argc, char **argv)
{
    using namespace moatbench;
    if (argc < 2)
        return usage();
    const std::string mode = argv[1];
    if (mode == "info") {
        std::cout << "{\"compiler\":\"" << MOATBENCH_COMPILER
                  << "\",\"build_type\":\"" << MOATBENCH_BUILD_TYPE
                  << "\",\"hardware_threads\":"
                  << std::thread::hardware_concurrency() << "}"
                  << std::endl;
        return 0;
    }
    Options o;
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--tiny") {
            o.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage();
        const std::string value = argv[++i];
        if (flag == "--workload")
            o.workload = value;
        else if (flag == "--seed")
            o.seed = std::stoull(value);
        else if (flag == "--seconds")
            o.seconds = std::stod(value);
        else if (flag == "--state")
            o.state = value;
        else
            return usage();
    }
    bool known = false;
    for (const auto &name : workloadNames())
        known = known || name == o.workload;
    if (!known || o.state.empty() || !(o.seconds > 0.0)) {
        std::cerr << "moatbench: unknown workload '" << o.workload
                  << "', or missing --state/--seconds\n";
        return 2;
    }
    const bool serve = o.workload == "serve-warm";
    try {
        if (mode == "setup")
            return serve ? setupServe(o) : setupBatch(o);
        if (mode == "measure")
            return serve ? measureServe(o) : measureBatch(o);
        if (mode == "trace")
            return serve ? tracedServe(o) : tracedBatch(o);
        if (mode == "fill" && serve)
            return fillServe(o);
        if (mode == "digest")
            return serve ? digestServe(o) : digestBatch(o);
    } catch (const std::exception &e) {
        std::cerr << "moatbench: " << e.what() << "\n";
        return 1;
    }
    return usage();
}
