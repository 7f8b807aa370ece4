/**
 * @file
 * End-to-end matrix-sweep throughput bench: cells per second of
 * simulator wall time on the Table-5-shaped matrix (every Table-4
 * workload x four MOAT ETH points on the 2-sub-channel system).
 *
 * Runs the identical matrix three times through the SweepEngine:
 *
 *  - reference: trace store disabled -- every cell generates its
 *    workload trace, and the cell's baseline replays that handout;
 *  - optimized: the shared workload::TraceStore -- each distinct trace
 *    is generated once (baselines included) and shared across the
 *    pool;
 *  - warm: a pre-warmed sim::ResultStore serves every cell.
 *
 * All runs must produce byte-identical JSONL, the warm run must
 * recompute nothing, and the generateTraces() invocation counts must
 * be exactly one per workload (store on) and one per cell (store off);
 * the bench fails otherwise. The rates and the trace store's hit rate
 * are a trajectory record, not a gate: moatbench's end-to-end metrics
 * guard sweep speed from change to change.
 */

#include <chrono>
#include <iostream>
#include <sstream>

#include "bench_util.hh"
#include "sim/sweep.hh"

using namespace moatsim;

namespace
{

struct MatrixRun
{
    std::vector<sim::PerfResult> results;
    double seconds = 0.0;
    /** generateTraces() invocations this run performed. */
    uint64_t genCalls = 0;
};

MatrixRun
runMatrix(const sim::SweepConfig &config,
          const std::vector<sim::SweepCell> &cells)
{
    sim::SweepEngine engine(config);
    MatrixRun out;
    const uint64_t gen0 = workload::traceGenInvocations();
    const auto t0 = std::chrono::steady_clock::now();
    out.results = engine.run(cells);
    const auto t1 = std::chrono::steady_clock::now();
    out.seconds = std::chrono::duration<double>(t1 - t0).count();
    out.genCalls = workload::traceGenInvocations() - gen0;
    return out;
}

std::string
jsonlOf(const std::vector<sim::PerfResult> &results)
{
    std::ostringstream os;
    sim::writeJsonLines(os, results);
    return os.str();
}

} // namespace

int
main()
{
    bench::header(
        "Matrix-sweep throughput (cells/sec of simulator wall time)",
        "Shared trace store vs the store-disabled pipeline, and a "
        "warm result-store re-run, on the Table-5-shaped matrix.");

    const auto workloads = workload::table4Workloads();
    std::vector<std::pair<mitigation::MitigatorSpec, abo::Level>> points;
    for (const uint32_t eth : {0u, 16u, 32u, 48u}) {
        points.emplace_back(
            mitigation::Registry::parse("moat:ath=64,eth=" +
                                        std::to_string(eth)),
            abo::Level::L1);
    }
    const auto cells = sim::crossCells(
        {workloads.begin(), workloads.end()}, points);

    sim::SweepConfig base;
    base.tracegen.windowFraction = 0.0625 * bench::benchScale();
    base.tracegen.subchannels = 2; // Table-3 full system
    base.jobs = bench::jobs();
    // Pinned off (not read from the environment): an ambient
    // MOATSIM_RESULT_STORE would serve cells without generating traces
    // and break the invocation-count checks below.
    base.resultStore =
        std::make_shared<sim::ResultStore>(sim::ResultStore::Config{});

    // Reference: the trace store off, so every cell generates.
    sim::SweepConfig ref_cfg = base;
    workload::TraceStore::Config off;
    off.enabled = false;
    ref_cfg.traceStore = std::make_shared<workload::TraceStore>(off);
    const MatrixRun ref = runMatrix(ref_cfg, cells);

    // Optimized: shared trace store. The store config is pinned
    // explicitly (not read from the environment) so an ambient
    // MOATSIM_TRACE_STORE=0 cannot corrupt the comparison.
    sim::SweepConfig opt_cfg = base;
    workload::TraceStore::Config on;
    opt_cfg.traceStore = std::make_shared<workload::TraceStore>(on);
    const MatrixRun opt = runMatrix(opt_cfg, cells);
    const auto store = opt_cfg.traceStore->stats();

    // Warm run: the identical matrix served from a pre-warmed
    // sim::ResultStore. The untimed cold pass fills the store; the
    // timed pass must recompute nothing (and generate no traces), so
    // its rate is the warm full-matrix re-run throughput the
    // result-store PR is about.
    sim::SweepConfig warm_cfg = base;
    warm_cfg.traceStore =
        std::make_shared<workload::TraceStore>(workload::TraceStore::Config{});
    sim::ResultStore::Config rs_on;
    rs_on.enabled = true;
    warm_cfg.resultStore = std::make_shared<sim::ResultStore>(rs_on);
    (void)runMatrix(warm_cfg, cells); // cold fill
    const uint64_t computes_cold = warm_cfg.resultStore->stats().computes;
    const MatrixRun warm = runMatrix(warm_cfg, cells);
    const uint64_t warm_recomputes =
        warm_cfg.resultStore->stats().computes - computes_cold;

    // Same simulation on all paths or the comparison is meaningless.
    const std::string ref_jsonl = jsonlOf(ref.results);
    const std::string opt_jsonl = jsonlOf(opt.results);
    if (ref_jsonl != opt_jsonl || jsonlOf(warm.results) != ref_jsonl) {
        std::cerr << "FATAL: reference, optimized, and warm matrix runs "
                     "diverged (results must be bit-identical with the "
                     "stores on, off, cold, or warm)\n";
        return 1;
    }
    if (warm_recomputes != 0) {
        std::cerr << "FATAL: warm result-store run recomputed "
                  << warm_recomputes << " cells (expected 0)\n";
        return 1;
    }
    // One generation per distinct workload with the store on; one per
    // cell with it off, the baselines reusing their cell's handout.
    if (opt.genCalls != workloads.size() || ref.genCalls != cells.size()) {
        std::cerr << "FATAL: generateTraces ran " << opt.genCalls
                  << " times with the trace store on (expected "
                  << workloads.size() << ") and " << ref.genCalls
                  << " with it off (expected " << cells.size() << ")\n";
        return 1;
    }

    const double n = static_cast<double>(cells.size());
    const double ref_rate = ref.seconds > 0 ? n / ref.seconds : 0.0;
    const double opt_rate = opt.seconds > 0 ? n / opt.seconds : 0.0;
    const double warm_rate = warm.seconds > 0 ? n / warm.seconds : 0.0;
    const double speedup = ref_rate > 0 ? opt_rate / ref_rate : 0.0;

    TablePrinter t({"pipeline", "cells", "seconds", "cells/sec",
                    "generateTraces calls"});
    t.addRow({"reference (no trace store)",
              std::to_string(cells.size()), formatFixed(ref.seconds, 3),
              formatFixed(ref_rate, 2), std::to_string(ref.genCalls)});
    t.addRow({"optimized (trace store)",
              std::to_string(cells.size()), formatFixed(opt.seconds, 3),
              formatFixed(opt_rate, 2), std::to_string(opt.genCalls)});
    t.addRow({"warm (pre-warmed result store)",
              std::to_string(cells.size()), formatFixed(warm.seconds, 3),
              formatFixed(warm_rate, 2), std::to_string(warm.genCalls)});
    t.print(std::cout);
    std::cout << "trace store: " << store.hits << " hits, "
              << store.misses << " misses (hit rate "
              << formatFixed(store.hitRate() * 100.0, 1) << "%), "
              << store.entries << " entries resident\n";
    std::cout << "speedup (optimized/reference): "
              << formatFixed(speedup, 2) << "x\n";

    if (std::ostream *os = bench::jsonlStream()) {
        *os << "{\"kind\":\"sweep_scale\",\"cells\":" << cells.size()
            << ",\"ref_cells_per_sec\":" << formatFixed(ref_rate, 3)
            << ",\"opt_cells_per_sec\":" << formatFixed(opt_rate, 3)
            << ",\"speedup\":" << formatFixed(speedup, 3)
            << ",\"warm_cells_per_sec\":" << formatFixed(warm_rate, 3)
            << ",\"warm_recomputes\":" << warm_recomputes
            << ",\"ref_gen_calls\":" << ref.genCalls
            << ",\"opt_gen_calls\":" << opt.genCalls
            << ",\"trace_store_hits\":" << store.hits
            << ",\"trace_store_misses\":" << store.misses
            << ",\"trace_store_hit_rate\":"
            << formatFixed(store.hitRate(), 4) << "}\n";
    }
    return 0;
}
