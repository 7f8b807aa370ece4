/**
 * @file
 * Replay-loop throughput bench: demand activations per second of
 * simulator wall time.
 *
 * Replays the same Table-4 workload traces through the sim::System hot
 * path (ring-buffer in-flight state, sticky ALERT flag, pre-decoded
 * coordinates, sealed kind dispatch) and reports acts/sec for two
 * shapes:
 *
 *  - optimized: one sub-channel;
 *  - system x2: the full 2-sub-channel system (twice the traffic
 *    through one merged event loop).
 *
 * The rates are a trajectory record, not a gate: moatbench's
 * end-to-end metrics guard replay speed from change to change.
 */

#include <chrono>
#include <iostream>

#include "bench_util.hh"
#include "mitigation/registry.hh"
#include "sim/system.hh"

using namespace moatsim;

namespace
{

subchannel::SubChannelConfig
channelConfig(const workload::TraceGenConfig &tg)
{
    subchannel::SubChannelConfig sc;
    sc.timing = tg.timing;
    sc.numBanks = tg.banksSimulated;
    sc.securityBanks = subchannel::SecurityBanks::none();
    sc.seed = 42;
    return sc;
}

/** Best-of-N wall time of @p body, returned in seconds. */
template <typename F>
double
bestSeconds(int repeats, F &&body)
{
    double best = 1e300;
    for (int i = 0; i < repeats; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        body();
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(
            best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

} // namespace

int
main()
{
    bench::header(
        "Replay-loop throughput (acts/sec of simulator wall time)",
        "The sim::System hot path on one sub-channel and on the "
        "2-sub-channel system.");

    const auto spec = workload::findWorkload("roms");
    const auto moat = mitigation::Registry::parse("moat");
    const sim::CoreModel core;
    const int repeats = 3;

    workload::TraceGenConfig tg;
    tg.windowFraction = 0.125 * bench::benchScale();
    const auto traces = workload::generateTraces(spec, tg);
    uint64_t acts = 0;
    for (const auto &t : traces)
        acts += t.events.size();

    // One sub-channel.
    const double opt_s = bestSeconds(repeats, [&] {
        sim::SystemConfig sys;
        sys.channel = channelConfig(tg);
        sys.subchannels = 1;
        sim::System system(sys, moat.factory());
        sim::runSystem(system, traces, core);
    });

    // Full system: 2 sub-channels, twice the traffic, one event loop.
    workload::TraceGenConfig tg2 = tg;
    tg2.subchannels = 2;
    const auto traces2 = workload::generateTraces(spec, tg2);
    uint64_t acts2 = 0;
    for (const auto &t : traces2)
        acts2 += t.events.size();
    const double sys2_s = bestSeconds(repeats, [&] {
        sim::SystemConfig sys;
        sys.channel = channelConfig(tg2);
        sys.subchannels = 2;
        sim::System system(sys, moat.factory());
        sim::runSystem(system, traces2, core);
    });

    const double opt_rate = static_cast<double>(acts) / opt_s;
    const double sys2_rate = static_cast<double>(acts2) / sys2_s;

    TablePrinter t({"path", "acts", "seconds", "acts/sec"});
    t.addRow({"optimized (System x1)", std::to_string(acts),
              formatFixed(opt_s, 4), formatFixed(opt_rate, 0)});
    t.addRow({"full system (System x2)", std::to_string(acts2),
              formatFixed(sys2_s, 4), formatFixed(sys2_rate, 0)});
    t.print(std::cout);

    if (std::ostream *os = bench::jsonlStream()) {
        *os << "{\"kind\":\"core_loop\",\"workload\":\"" << spec.name
            << "\",\"acts\":" << acts
            << ",\"opt_acts_per_sec\":" << formatFixed(opt_rate, 1)
            << ",\"system2_acts_per_sec\":" << formatFixed(sys2_rate, 1)
            << "}\n";
    }
    return 0;
}
