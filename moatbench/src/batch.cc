#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "common/hash.hh"
#include "common/thread_pool.hh"
#include "sim/coattack.hh"
#include "sim/experiment.hh"
#include "sim/perf.hh"
#include "sim/result_io.hh"
#include "sim/result_store.hh"
#include "sim/run_request.hh"
#include "sim/sweep.hh"
#include "trace.hh"
#include "util.hh"
#include "workload/attack_trace.hh"
#include "workload/trace_store.hh"
#include "workloads.hh"

namespace moatbench
{

namespace
{

namespace fs = std::filesystem;
using namespace moatsim;

/** Run f(i) for every cell the way SweepEngine::run schedules its
 *  cells: one ThreadPool job per cell, submitted in cell order; the
 *  lowest failed index is rethrown after the pool drains. */
void
forEachCell(size_t n, const std::function<void(size_t)> &f)
{
    std::vector<std::exception_ptr> errors(n);
    {
        ThreadPool pool(static_cast<unsigned>(std::min<size_t>(kJobs, n)));
        for (size_t i = 0; i < n; ++i) {
            pool.submit([&, i] {
                try {
                    f(i);
                } catch (...) {
                    errors[i] = std::current_exception();
                }
            });
        }
        pool.wait();
    }
    for (const auto &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
}

// -------------------------------------------------------- batch plans

/** One batch workload: its engine configuration and its cells. */
struct BatchPlan
{
    sim::ExperimentConfig config;
    /** Fresh persistent result store per pass (suite-cold). */
    bool persistentStore = false;
    std::vector<sim::SweepCell> perfCells;
    std::vector<sim::CoAttackCell> coCells;
    /** Provenance: the workload definition as a JSON object. */
    std::string definition;

    size_t cells() const { return perfCells.size() + coCells.size(); }
    bool coattack() const { return !coCells.empty(); }
};

sim::RunRequest
batchRequest(const Options &o, double fraction)
{
    sim::RunRequest req;
    req.kind = "perf";
    req.mitigator = "moat:ath=64";
    req.workload = "all";
    req.level = 1;
    req.fraction = scaledFraction(o, fraction);
    req.subchannels = 2;
    req.seed = o.seed;
    req.jobs = kJobs;
    return req;
}

BatchPlan
batchPlan(const Options &o)
{
    BatchPlan p;
    std::vector<std::string> mitigators;
    std::vector<std::string> attacks;
    sim::RunRequest req;
    if (o.workload == "suite-cold") {
        req = batchRequest(o, 1.0 / 32);
        p.persistentStore = true;
        const auto m = moatAt("ath=64", abo::Level::L1);
        p.perfCells = sim::crossCells(suite(), {{m, abo::Level::L1}});
        mitigators.push_back(m.describe());
    } else if (o.workload == "matrix-eth") {
        req = batchRequest(o, 1.0 / 64);
        std::vector<std::pair<mitigation::MitigatorSpec, abo::Level>> pts;
        for (const int eth : {0, 16, 32, 48}) {
            for (const auto level :
                 {abo::Level::L1, abo::Level::L2, abo::Level::L4}) {
                pts.emplace_back(
                    moatAt("ath=64,eth=" + std::to_string(eth), level),
                    level);
                mitigators.push_back(pts.back().first.describe());
            }
        }
        p.perfCells = sim::crossCells(suite(), pts);
    } else if (o.workload == "coattack-mix") {
        req = batchRequest(o, 1.0 / 64);
        const auto m = moatAt("ath=64", abo::Level::L1);
        mitigators.push_back(m.describe());
        for (const char *pattern : {"hammer", "ratchet", "postponement"}) {
            sim::CoAttackScenario attack;
            attack.pattern = pattern;
            attack.seed = o.seed;
            attacks.push_back(pattern);
            for (const auto &w : suite())
                p.coCells.push_back({w, m, abo::Level::L1, attack});
        }
    } else {
        throw std::invalid_argument("unknown batch workload " + o.workload);
    }
    p.config = sim::experimentConfigOf(req);
    p.config.resultStore = sim::ResultStore::Config{};
    p.definition =
        Json()
            .str("workload", o.workload)
            .count("cells", p.cells())
            .count("table4_workloads", suite().size())
            .raw("mitigators", quotedList(mitigators))
            .raw("attacks", quotedList(attacks))
            .num("fraction", req.fraction)
            .count("subchannels", req.subchannels)
            .count("trace_seed", req.seed)
            .count("jobs", kJobs)
            .str("result_store",
                 p.persistentStore ? "fresh persistent per pass" : "off")
            .text();
    return p;
}

// ------------------------------------------------------ untraced pass

struct PassOutcome
{
    double wallS = 0.0;
    /** Per cell: milliseconds from batch issue to its result. */
    std::vector<double> doneMs;
    std::string jsonl;
    SimCounts counts;
};

/** One batch through the engine's public batch API, timed from issue
 *  to the last result; engine construction is set-up, untimed. */
/** A pass's engine configuration; on suite-cold its result store is
 *  persistent in @p store_dir, emptied here. */
sim::ExperimentConfig
passConfig(const BatchPlan &p, const std::string &store_dir)
{
    sim::ExperimentConfig ec = p.config;
    if (p.persistentStore) {
        resetDir(store_dir);
        ec.resultStore.enabled = true;
        ec.resultStore.dir = store_dir;
    }
    return ec;
}

PassOutcome
untracedPass(const BatchPlan &p, const std::string &store_dir)
{
    sim::Experiment exp(passConfig(p, store_dir));
    std::vector<int64_t> done(p.cells(), 0);
    PassOutcome out;
    const int64_t t0 = nowNs();
    if (p.coattack()) {
        const auto results = exp.coAttackEngine().run(
            p.coCells, [&](size_t i, const sim::CoAttackResult &) {
                done[i] = nowNs();
            });
        out.wallS = secondsBetween(t0, nowNs());
        for (const auto &r : results) {
            out.jsonl += sim::toJsonLine(r) + "\n";
            out.counts.add(r);
        }
    } else {
        const auto results = exp.engine().run(
            p.perfCells, [&](size_t i, const sim::PerfResult &) {
                done[i] = nowNs();
            });
        out.wallS = secondsBetween(t0, nowNs());
        for (const auto &r : results) {
            out.jsonl += sim::toJsonLine(r) + "\n";
            out.counts.add(r, p.config.tracegen);
        }
    }
    for (const int64_t d : done)
        out.doneMs.push_back(static_cast<double>(d - t0) * 1e-6);
    return out;
}

/** Untraced passes, each checked against an untimed warm-up pass
 *  (during it the process's allocator and page tables reach their
 *  steady state; fresh engines and stores are built every pass). */
struct UntracedSeries
{
    std::vector<double> walls;
    std::vector<double> p50;
    std::vector<double> p99;
    /** The warm-up pass's result JSONL. */
    std::string reference;
    SimCounts counts;
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void warmUp(const BatchPlan &p, const std::string &store_dir)
    {
        PassOutcome r = untracedPass(p, store_dir);
        attempted += p.cells();
        reference = std::move(r.jsonl);
        counts = r.counts;
    }

    /** One timed pass; returns its wall seconds. */
    double pass(const BatchPlan &p, const std::string &store_dir)
    {
        const PassOutcome r = untracedPass(p, store_dir);
        attempted += p.cells();
        failed += differingLines(r.jsonl, reference);
        walls.push_back(r.wallS);
        p50.push_back(percentile(r.doneMs, 0.50));
        p99.push_back(percentile(r.doneMs, 0.99));
        return r.wallS;
    }
};

/** Mean slowdown and roms slowdown of a suite-cold pass next to the
 *  paper's figures at ATH=64. */
std::string
accuracyJson(const std::string &jsonl)
{
    std::istringstream is(jsonl);
    const auto results = sim::readPerfJsonLines(is);
    double sum = 0.0;
    double roms = 0.0;
    for (const auto &r : results) {
        sum += 1.0 - r.normPerf;
        if (r.workload == "roms")
            roms = 1.0 - r.normPerf;
    }
    const double mean = results.empty()
                            ? 0.0
                            : sum / static_cast<double>(results.size());
    return Json()
        .num("mean_slowdown_pct", 100.0 * mean)
        .num("paper_mean_slowdown_pct", 0.28)
        .num("roms_slowdown_pct", 100.0 * roms)
        .num("paper_roms_slowdown_pct", 2.0)
        .str("reference",
             "paper Fig. 11 at ATH=64 (itself a simulation); the model "
             "is not validated against hardware")
        .text();
}

// ------------------------------------------------------- traced passes

/** Compute-once map: concurrent first requesters of a key block on one
 *  computation, as the library's trace store and baseline caches do. */
template <typename Key, typename Value>
class SingleFlight
{
  public:
    std::shared_ptr<const Value>
    get(const Key &key,
        const std::function<std::shared_ptr<const Value>()> &compute)
    {
        std::promise<std::shared_ptr<const Value>> promise;
        {
            std::unique_lock<std::mutex> lock(mu_);
            const auto it = entries_.find(key);
            if (it != entries_.end()) {
                ++hits_;
                auto future = it->second;
                lock.unlock();
                return future.get();
            }
            entries_.emplace(key, promise.get_future().share());
        }
        auto value = compute();
        promise.set_value(value);
        return value;
    }

    /** Lookups served by an earlier computation. */
    uint64_t hits()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return hits_;
    }

    /** Distinct keys computed. */
    uint64_t size()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return entries_.size();
    }

  private:
    std::mutex mu_;
    std::map<Key, std::shared_future<std::shared_ptr<const Value>>> entries_;
    uint64_t hits_ = 0;
};

/** Attack-free co-run of one (workload, mitigator, level), as
 *  CoAttackEngine caches it. */
struct CoBaseline
{
    std::vector<Time> coreFinish;
    uint64_t totalActs = 0;
    uint64_t alerts = 0;
    uint64_t rfms = 0;
    uint64_t refs = 0;
};

/** What the cells of one traced pass share. */
struct TracedState
{
    TracedState(Tracer &t, const sim::ExperimentConfig &c) : tr(t), ec(c) {}

    Tracer &tr;
    const sim::ExperimentConfig &ec;
    /** Trace sets by TraceStore::key: the traced stand-in for the
     *  engine's TraceStore, with generation and flattening visible. */
    SingleFlight<uint64_t, workload::TraceSet> traces;
    sim::BaselineCache baselines;
    SingleFlight<std::string, CoBaseline> coBaselines;
    /** The result store (suite-cold), or null. */
    sim::ResultStore *store = nullptr;
    /** Trace events generated. */
    std::atomic<uint64_t> events{0};
};

std::shared_ptr<const workload::TraceSet>
tracesOf(TracedState &st, uint64_t item, const workload::WorkloadSpec &spec)
{
    Tracer::Scope lookup(st.tr, "workload.lookup", item);
    const auto &tg = st.ec.tracegen;
    return st.traces.get(workload::TraceStore::key(spec, tg), [&] {
        std::vector<workload::CoreTrace> cores;
        {
            Tracer::Scope s(st.tr, "workload.generate", item);
            cores = workload::generateTraces(spec, tg);
        }
        Tracer::Scope s(st.tr, "workload.flatten", item);
        auto set = std::make_shared<const workload::TraceSet>(std::move(cores));
        st.events += set->totalEvents();
        return set;
    });
}

/** One perf cell the way SweepEngine::runCell issues it, each layer
 *  call in its own span. */
sim::PerfResult
tracedPerfCell(TracedState &st, size_t i, const sim::SweepCell &cell)
{
    const auto &tg = st.ec.tracegen;
    const auto compute = [&] {
        const auto traces = tracesOf(st, i, cell.workload);
        std::shared_ptr<const sim::BaselineCache::Finish> base;
        {
            Tracer::Scope s(st.tr, "sim.baseline", i);
            base = st.baselines.get(tg, st.ec.core, cell.workload, *traces);
        }
        Tracer::Scope s(st.tr, "sim.replay", i);
        return sim::runPerfCell(tg, st.ec.core, cell.workload,
                                cell.mitigator, cell.level, *traces, *base);
    };
    if (st.store == nullptr)
        return compute();
    const uint64_t key = sim::perfCellKey(tg, st.ec.core, cell.workload,
                                          cell.mitigator, cell.level);
    std::shared_ptr<const std::string> payload;
    {
        Tracer::Scope s(st.tr, "sim.store", i);
        payload = st.store->getOrCompute(key, [&] {
            const sim::PerfResult r = compute();
            Tracer::Scope ser(st.tr, "sim.serialize", i);
            return sim::toJsonLine(r);
        });
    }
    Tracer::Scope s(st.tr, "sim.serialize", i);
    return sim::perfResultOfJsonLine(*payload);
}

/** One co-attack cell the way CoAttackEngine::computeCell issues it.
 *  The attacker trace is also synthesized once on its own, so its cost
 *  shows as a layer; runCoSystem synthesizes it again internally. */
sim::CoAttackResult
tracedCoCell(TracedState &st, size_t i, const sim::CoAttackCell &cell,
             uint64_t *replay_acts)
{
    const auto &tg = st.ec.tracegen;
    const auto traces = tracesOf(st, i, cell.workload);
    std::shared_ptr<const CoBaseline> base;
    {
        Tracer::Scope s(st.tr, "sim.coattack_baseline", i);
        const std::string key = cell.workload.name + "|" +
                                cell.mitigator.describe() + "|" +
                                std::to_string(abo::levelValue(cell.level));
        base = st.coBaselines.get(key, [&] {
            sim::CoAttackScenario none;
            none.pattern = "none";
            const sim::SystemResult res = sim::runCoSystem(
                tg, st.ec.core, cell.workload, cell.mitigator, cell.level,
                sim::resolveAttack(none, tg), nullptr, traces.get());
            auto b = std::make_shared<CoBaseline>();
            b->coreFinish = res.coreFinish;
            b->totalActs = res.totalActs;
            b->alerts = res.alerts;
            b->refs = res.refs;
            for (const auto &u : res.perSubchannel)
                b->rfms += u.rfms;
            return std::shared_ptr<const CoBaseline>(std::move(b));
        });
    }
    const workload::AttackTraceConfig attack =
        sim::resolveAttack(cell.attack, tg);
    {
        Tracer::Scope s(st.tr, "workload.attack_trace", i);
        workload::generateAttackTrace(attack);
    }
    uint32_t max_hammer = 0;
    sim::SystemResult co;
    {
        Tracer::Scope s(st.tr, "sim.replay", i);
        co = sim::runCoSystem(tg, st.ec.core, cell.workload, cell.mitigator,
                              cell.level, attack, &max_hammer, traces.get());
    }
    *replay_acts = co.totalActs;

    sim::CoAttackResult out;
    out.workload = cell.workload.name;
    out.mitigator = cell.mitigator.describe();
    out.device = tg.device;
    out.pattern = cell.attack.pattern;
    out.aboLevel = abo::levelValue(cell.level);
    out.victimActs = base->totalActs;
    out.attackFreeAlerts = base->alerts;
    out.attackFreeRfms = base->rfms;
    if (base->refs > 0) {
        out.attackFreeAlertsPerRefi = static_cast<double>(base->alerts) /
                                      static_cast<double>(base->refs);
    }
    out.attackerMaxHammer = max_hammer;
    out.attackerActs = co.totalActs - base->totalActs;
    out.alerts = co.alerts;
    out.refs = co.refs;
    for (const auto &u : co.perSubchannel)
        out.rfms += u.rfms;
    if (co.refs > 0) {
        out.alertsPerRefi =
            static_cast<double>(co.alerts) / static_cast<double>(co.refs);
    }
    const size_t victims =
        std::min(base->coreFinish.size(), co.coreFinish.size());
    double slow_sum = 0.0;
    double norm_sum = 0.0;
    size_t n = 0;
    for (size_t c = 0; c < victims; ++c) {
        if (base->coreFinish[c] <= 0 || co.coreFinish[c] <= 0)
            continue;
        slow_sum += static_cast<double>(co.coreFinish[c]) /
                    static_cast<double>(base->coreFinish[c]);
        norm_sum += static_cast<double>(base->coreFinish[c]) /
                    static_cast<double>(co.coreFinish[c]);
        ++n;
    }
    if (n > 0) {
        out.victimSlowdown = slow_sum / static_cast<double>(n);
        out.victimNormPerf = norm_sum / static_cast<double>(n);
    }
    return out;
}

struct TracedOutcome
{
    int64_t start = 0;
    int64_t end = 0;
    std::string jsonl;
    SimCounts counts;
    uint64_t traceHits = 0;
    uint64_t traceLookups = 0;
    uint64_t events = 0;
    uint64_t baselineComputes = 0;
    /** ACTs replayed inside sim.replay spans. */
    uint64_t replayActs = 0;
    sim::ResultStore::Stats store{};
};

TracedOutcome
tracedPass(const BatchPlan &p, Tracer &tr, const std::string &store_dir)
{
    TracedOutcome out;
    TracedState st(tr, p.config);
    std::unique_ptr<sim::ResultStore> store;
    if (p.persistentStore) {
        const sim::ExperimentConfig ec = passConfig(p, store_dir);
        Tracer::Scope s(tr, "sim.store_load", 0);
        store = std::make_unique<sim::ResultStore>(ec.resultStore);
    }
    st.store = store.get();
    std::vector<sim::PerfResult> perf(p.perfCells.size());
    std::vector<sim::CoAttackResult> co(p.coCells.size());
    std::vector<uint64_t> replay_acts(p.cells(), 0);
    out.start = nowNs();
    forEachCell(p.cells(), [&](size_t i) {
        Tracer::Scope cell(tr, "cell", i);
        if (p.coattack()) {
            co[i] = tracedCoCell(st, i, p.coCells[i], &replay_acts[i]);
        } else {
            perf[i] = tracedPerfCell(st, i, p.perfCells[i]);
            replay_acts[i] = perf[i].acts;
        }
    });
    out.end = nowNs();
    for (const auto &r : perf) {
        out.jsonl += sim::toJsonLine(r) + "\n";
        out.counts.add(r, p.config.tracegen);
    }
    for (const auto &r : co) {
        out.jsonl += sim::toJsonLine(r) + "\n";
        out.counts.add(r);
    }
    for (const uint64_t a : replay_acts)
        out.replayActs += a;
    out.traceHits = st.traces.hits();
    out.traceLookups = st.traces.hits() + st.traces.size();
    out.events = st.events;
    out.baselineComputes =
        p.coattack() ? st.coBaselines.size() : st.baselines.size();
    if (store) {
        out.store = store->stats();
        store.reset();
        fs::remove_all(store_dir);
    }
    return out;
}
} // namespace

int
measureBatch(const Options &o)
{
    const BatchPlan p = batchPlan(o);
    const std::string store_dir = scratchDir(o, "store");
    UntracedSeries s;
    s.warmUp(p, store_dir);
    for (double measured = 0.0; measured < o.seconds || s.walls.size() < 3;)
        measured += s.pass(p, store_dir);
    fs::remove_all(store_dir);
    const double wall = median(s.walls);
    const double cells_per_s = static_cast<double>(p.cells()) / wall;
    const std::string metrics =
        Json()
            .num("cells_per_s", cells_per_s)
            .num("acts_per_s", static_cast<double>(s.counts.acts) / wall)
            .num("request_ms_p50", median(s.p50))
            .num("request_ms_p99", median(s.p99))
            .num("requests_per_s", cells_per_s)
            .num("peak_rss_mib", peakRssMib())
            .text();
    Json info;
    info.raw("definition", p.definition)
        .raw("counts", s.counts.json())
        .count("passes", s.walls.size())
        .raw("pass_wall_s", numberList(s.walls))
        .count("latency_samples_per_pass", p.cells());
    if (o.workload == "suite-cold")
        info.raw("accuracy", accuracyJson(s.reference));
    std::cout << resultJson(s.failed == 0, s.attempted, s.failed, metrics,
                            hex64(stableHash64(s.reference)),
                            info.text())
              << std::endl;
    return 0;
}

int
tracedBatch(const Options &o)
{
    const BatchPlan p = batchPlan(o);
    const std::string store_dir = scratchDir(o, "store");
    // Untraced and traced passes alternate after the warm-up, in
    // ABBA order, so drift in the machine's load and any advantage of
    // running second cancel out of the tracing overhead (the traced
    // pass wall against the untraced median).
    UntracedSeries s;
    s.warmUp(p, store_dir);
    Tracer tr;
    std::vector<double> walls, idle, uncovered;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    TracedOutcome last;
    const auto traced = [&] {
        TracedOutcome t = tracedPass(p, tr, store_dir);
        attempted += p.cells();
        failed += differingLines(t.jsonl, s.reference);
        const double wall = secondsBetween(t.start, t.end);
        const std::vector<Span> spans = tr.spans();
        walls.push_back(wall);
        idle.push_back(1.0 - groupBusySeconds(spans, t.start, t.end,
                                              kGrouping) /
                                 (kJobs * wall));
        uncovered.push_back(uncoveredShare(spans, t.start, t.end, kGrouping));
        last = std::move(t);
        return wall;
    };
    for (double measured = 0.0; measured < o.seconds || walls.size() < 2;) {
        if (walls.size() % 2 == 0) {
            measured += s.pass(p, store_dir);
            measured += traced();
        } else {
            measured += traced();
            measured += s.pass(p, store_dir);
        }
    }
    fs::remove_all(store_dir);
    attempted += s.attempted;
    failed += s.failed;
    const size_t written =
        tr.writeJsonl(o.state + "/spans-" + o.workload + ".jsonl",
                      kWrittenSpans);

    const double passes = static_cast<double>(walls.size());
    std::map<std::string, double> m;
    addLayerTimes(m, tr, passes, p.persistentStore ? passes : 0.0);
    m["workload.events"] = static_cast<double>(last.events);
    m["workload.trace_store_hit_ratio"] =
        ratio(static_cast<double>(last.traceHits),
              static_cast<double>(last.traceLookups));
    m["sim.baseline_computes"] = static_cast<double>(last.baselineComputes);
    m["sim.baseline_reuse_ratio"] =
        ratio(static_cast<double>(p.cells()),
              static_cast<double>(last.baselineComputes));
    m["sim.replay_ns_per_act"] =
        ratio(m["sim.replay_s"] * 1e9, static_cast<double>(last.replayActs));
    m["sim.sweep_idle_frac"] = median(idle);
    m["sim.store_hit_ratio"] = last.store.hitRate();
    m["sim.store_appends"] =
        p.persistentStore ? static_cast<double>(last.store.computes) : 0.0;
    m["sim.store_append_failures"] =
        static_cast<double>(last.store.appendFailures);
    setCounts(m, last.counts);
    m["trace.overhead_frac"] = median(walls) / median(s.walls) - 1.0;
    m["trace.uncovered_frac"] = median(uncovered);

    const std::string info =
        Json()
            .raw("definition", p.definition)
            .count("spans_recorded", tr.spans().size())
            .count("spans_written", written)
            .count("traced_passes", walls.size())
            .count("untraced_passes", s.walls.size())
            .raw("traced_pass_wall_s", numberList(walls))
            .raw("untraced_pass_wall_s", numberList(s.walls))
            .text();
    std::cout << resultJson(failed == 0, attempted, failed, layerJson(m),
                            hex64(stableHash64(s.reference)), info)
              << std::endl;
    return 0;
}

int
setupBatch(const Options &o)
{
    const BatchPlan p = batchPlan(o);
    const std::string store_dir = scratchDir(o, "store");
    {
        sim::Experiment exp(passConfig(p, store_dir));
        std::cout << "ready" << std::endl;
    }
    fs::remove_all(store_dir);
    return 0;
}

int
digestBatch(const Options &o)
{
    const BatchPlan p = batchPlan(o);
    const std::string store_dir = scratchDir(o, "store");
    const PassOutcome r = untracedPass(p, store_dir);
    fs::remove_all(store_dir);
    std::cout << Json()
                     .str("digest", hex64(stableHash64(r.jsonl)))
                     .raw("counts", r.counts.json())
                     .text()
              << std::endl;
    return 0;
}

} // namespace moatbench
