/**
 * @file
 * Replay-loop throughput bench: demand activations per second of
 * simulator wall time.
 *
 * Replays the same Table-4 workload traces four ways and reports
 * acts/sec for each:
 *
 *  - reference: the pre-flattening inner loop, kept here verbatim
 *    (std::deque in-flight queue, full-core scan per pick) against a
 *    SubChannel on the pre-overhaul path (fastAlertScan off -- every
 *    ACT polls every bank's mitigator -- virtual dispatch per hook,
 *    eagerly allocated oracle);
 *  - virtual dispatch: the current sim::System loop with
 *    sealedDispatch off, isolating the devirtualization/oracle-elision
 *    delta from the loop-flattening delta;
 *  - optimized: the full sim::System hot path (ring-buffer in-flight
 *    state, sticky ALERT flag, pre-decoded coordinates, sealed kind
 *    dispatch) on one sub-channel -- the speedup column is
 *    optimized/reference and the PR bar is >= 1.3x;
 *  - system x2: the same loop on the full 2-sub-channel system
 *    (twice the traffic through one merged event loop).
 *
 * All single-channel paths replay bit-identical simulations (same
 * traces, same seed; the knobs change no behaviour), so the
 * comparison measures the loop, not the workload.
 */

#include <chrono>
#include <deque>
#include <iostream>

#include "bench_util.hh"
#include "mitigation/registry.hh"
#include "sim/system.hh"

using namespace moatsim;

namespace
{

/**
 * The pre-flattening replay loop, preserved for comparison. This is
 * the exact shape of sim::runMemSystem before the System layer: a
 * std::deque per core for in-flight completions and a scan over every
 * core (finished ones included) per issued ACT.
 */
sim::MemSysResult
referenceReplay(subchannel::SubChannel &channel,
                const std::vector<workload::CoreTrace> &traces,
                const sim::CoreModel &core)
{
    struct CoreState
    {
        size_t next = 0;
        Time arrival = 0;
        std::deque<Time> inflight;
        Time last_intended = 0;
        Time last_completion = 0;
    };

    const Time start = channel.now();
    const uint64_t start_refs = channel.stats().refs;
    const uint64_t start_alerts = channel.abo().alertCount();
    const Time tRC = channel.timing().tRC;

    std::vector<CoreState> cores(traces.size());
    for (size_t c = 0; c < traces.size(); ++c) {
        if (!traces[c].events.empty())
            cores[c].arrival = start + traces[c].events.front().at;
    }

    for (;;) {
        size_t best = traces.size();
        for (size_t c = 0; c < traces.size(); ++c) {
            if (cores[c].next >= traces[c].events.size())
                continue;
            if (best == traces.size() ||
                cores[c].arrival < cores[best].arrival)
                best = c;
        }
        if (best == traces.size())
            break;

        CoreState &cs = cores[best];
        const workload::TraceEvent &ev = traces[best].events[cs.next];

        Time ready = cs.arrival;
        if (cs.inflight.size() >= core.mlp)
            ready = std::max(ready, cs.inflight.front());

        const Time issue = channel.activateAt(ev.bank, ev.row, ready);
        const Time completion = issue + tRC;

        while (cs.inflight.size() >= core.mlp)
            cs.inflight.pop_front();
        cs.inflight.push_back(completion);
        cs.last_completion = completion;

        ++cs.next;
        if (cs.next < traces[best].events.size()) {
            const Time gap = traces[best].events[cs.next].at - ev.at;
            cs.arrival = std::max(cs.arrival, issue) + gap;
        }
        cs.last_intended = ev.at;
    }

    sim::MemSysResult result;
    result.coreFinish.resize(traces.size());
    for (size_t c = 0; c < traces.size(); ++c) {
        const Time tail = traces[c].events.empty()
                              ? traces[c].window
                              : traces[c].window - cores[c].last_intended;
        result.coreFinish[c] =
            (cores[c].last_completion - start) + std::max<Time>(tail, 0);
        result.totalActs += traces[c].events.size();
    }
    result.refs = channel.stats().refs - start_refs;
    result.alerts = channel.abo().alertCount() - start_alerts;
    return result;
}

subchannel::SubChannelConfig
channelConfig(const workload::TraceGenConfig &tg, bool fast_alert_scan,
              bool sealed_dispatch)
{
    subchannel::SubChannelConfig sc;
    sc.timing = tg.timing;
    sc.numBanks = tg.banksSimulated;
    sc.securityBanks = subchannel::SecurityBanks::none();
    sc.fastAlertScan = fast_alert_scan;
    // false selects the pre-overhaul sub-channel path wholesale:
    // virtual dispatch on every mitigator hook and the eagerly
    // allocated (never read) security oracle.
    sc.sealedDispatch = sealed_dispatch;
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
        "Pre-flattening reference loop vs the sim::System hot path on "
        "identical simulations; PR bar: >= 1.3x.");

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

    // Reference: pre-PR loop, full per-ACT ALERT polling, virtual
    // dispatch, eager oracle allocation.
    uint64_t ref_alerts = 0;
    const double ref_s = bestSeconds(repeats, [&] {
        subchannel::SubChannel ch(channelConfig(tg, false, false),
                                  moat.factory());
        ref_alerts = referenceReplay(ch, traces, core).alerts;
    });

    // Dispatch comparison: the same System loop with the per-hook
    // devirtualization (and oracle elision) turned off -- isolates the
    // sealed-dispatch delta from the loop-flattening delta.
    uint64_t virt_alerts = 0;
    const double virt_s = bestSeconds(repeats, [&] {
        sim::SystemConfig sys;
        sys.channel = channelConfig(tg, true, false);
        sys.subchannels = 1;
        sim::System system(sys, moat.factory());
        virt_alerts = sim::runSystem(system, traces, core).alerts;
    });

    // Optimized: the System path on the identical single sub-channel.
    uint64_t opt_alerts = 0;
    const double opt_s = bestSeconds(repeats, [&] {
        sim::SystemConfig sys;
        sys.channel = channelConfig(tg, true, true);
        sys.subchannels = 1;
        sim::System system(sys, moat.factory());
        opt_alerts = sim::runSystem(system, traces, core).alerts;
    });
    // Same simulation on all paths or the comparison is meaningless.
    if (ref_alerts != opt_alerts || virt_alerts != opt_alerts) {
        std::cerr << "FATAL: reference/virtual/optimized replays "
                     "diverged ("
                  << ref_alerts << " / " << virt_alerts << " / "
                  << opt_alerts << " ALERTs)\n";
        return 1;
    }

    // Full system: 2 sub-channels, twice the traffic, one event loop.
    workload::TraceGenConfig tg2 = tg;
    tg2.subchannels = 2;
    const auto traces2 = workload::generateTraces(spec, tg2);
    uint64_t acts2 = 0;
    for (const auto &t : traces2)
        acts2 += t.events.size();
    const double sys2_s = bestSeconds(repeats, [&] {
        sim::SystemConfig sys;
        sys.channel = channelConfig(tg2, true, true);
        sys.subchannels = 2;
        sim::System system(sys, moat.factory());
        sim::runSystem(system, traces2, core);
    });

    const double ref_rate = static_cast<double>(acts) / ref_s;
    const double virt_rate = static_cast<double>(acts) / virt_s;
    const double opt_rate = static_cast<double>(acts) / opt_s;
    const double sys2_rate = static_cast<double>(acts2) / sys2_s;
    const double speedup = ref_rate > 0 ? opt_rate / ref_rate : 0.0;
    const double dispatch_speedup =
        virt_rate > 0 ? opt_rate / virt_rate : 0.0;

    TablePrinter t({"path", "acts", "seconds", "acts/sec"});
    t.addRow({"reference (pre-PR loop)", std::to_string(acts),
              formatFixed(ref_s, 4), formatFixed(ref_rate, 0)});
    t.addRow({"virtual dispatch (System x1)", std::to_string(acts),
              formatFixed(virt_s, 4), formatFixed(virt_rate, 0)});
    t.addRow({"optimized (System x1, sealed)", std::to_string(acts),
              formatFixed(opt_s, 4), formatFixed(opt_rate, 0)});
    t.addRow({"full system (System x2)", std::to_string(acts2),
              formatFixed(sys2_s, 4), formatFixed(sys2_rate, 0)});
    t.print(std::cout);
    std::cout << "speedup (optimized/reference): "
              << formatFixed(speedup, 2) << "x (bar: 1.30x)\n";
    std::cout << "dispatch speedup (sealed/virtual, construction "
                 "included): "
              << formatFixed(dispatch_speedup, 2) << "x\n";

    if (std::ostream *os = bench::jsonlStream()) {
        *os << "{\"kind\":\"core_loop\",\"workload\":\"" << spec.name
            << "\",\"acts\":" << acts
            << ",\"ref_acts_per_sec\":" << formatFixed(ref_rate, 1)
            << ",\"virtual_acts_per_sec\":" << formatFixed(virt_rate, 1)
            << ",\"opt_acts_per_sec\":" << formatFixed(opt_rate, 1)
            << ",\"system2_acts_per_sec\":" << formatFixed(sys2_rate, 1)
            << ",\"speedup\":" << formatFixed(speedup, 3)
            << ",\"dispatch_speedup\":"
            << formatFixed(dispatch_speedup, 3)
            << ",\"bar\":1.3}\n";
    }
    return 0;
}
