/**
 * @file
 * The benchmark's workloads and the modes that run them.
 *
 *   suite-cold    21 Table-4 workloads x MOAT ath=64 at ABO L1 on 2
 *                 sub-channels, fresh trace store and fresh persistent
 *                 result store every pass (`moatsim perf --workload
 *                 all` with --result-store DIR on an empty DIR).
 *   matrix-eth    21 workloads x MOAT ath=64, eth {0,16,32,48} x ABO
 *                 level {1,2,4}: 252 cells in one engine batch, result
 *                 store off (the Table-5/Table-7 shape).
 *   serve-warm    an in-process `moatsim serve` daemon on a persistent
 *                 store of 966 small-fraction cells, driven by a
 *                 closed loop of 4 client connections sending a
 *                 seeded, Zipf-skewed sequence of perf requests that
 *                 all hit.
 *   coattack-mix  21 workloads x {hammer, ratchet, postponement}
 *                 against MOAT ath=64 at L1: the co-attack engine,
 *                 attacker-trace synthesis, the security oracle, and
 *                 refresh postponement.
 */

#ifndef MOATBENCH_WORKLOADS_HH
#define MOATBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace moatbench
{

struct Options
{
    std::string workload;
    /** Workload seed: trace-generator seed of the batch workloads,
     *  request-sequence seed of serve-warm. */
    uint64_t seed = 1;
    /** Measured seconds of one run. */
    double seconds = 10.0;
    /** Self-test scale: every window fraction divided by 16. */
    bool tiny = false;
    /** State directory (serve store, scratch stores, sockets, spans). */
    std::string state;
};

/** Every workload name, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

// Each mode prints one JSON object as its last stdout line (setup
// prints "ready"); run.py launches one process per mode.

/** Build the workload's engine and stores, print "ready", tear down;
 *  run.py times process start to "ready" (set-up time). */
int setupBatch(const Options &opts);

/** Untraced passes: the end-to-end metrics of a batch workload. */
int measureBatch(const Options &opts);

/** Untraced and traced passes in ABBA order: the per-layer metrics
 *  and the tracing overhead of a batch workload. */
int tracedBatch(const Options &opts);

/** serve-warm set-up: daemon start and persistent shard load. */
int setupServe(const Options &opts);

/** serve-warm's closed loop, untraced. */
int measureServe(const Options &opts);

/** serve-warm's store-read probe, then closed-loop segments,
 *  untraced and traced in ABBA order. */
int tracedServe(const Options &opts);

/** Fill serve-warm's persistent store and its reference JSONL (the
 *  direct engine's lines with the result store off), once per state
 *  directory. */
int fillServe(const Options &opts);

/** One untimed pass (batch) or the expected replies of one sequence
 *  pass (serve-warm): prints the result JSONL's digest and simulated
 *  counts, as run.py compares them with moatbench/expected.json. */
int digestBatch(const Options &opts);
int digestServe(const Options &opts);

} // namespace moatbench

#endif // MOATBENCH_WORKLOADS_HH
