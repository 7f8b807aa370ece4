#include "sim/experiment.hh"

#include "dram/device.hh"

namespace moatsim::sim
{

namespace
{

SweepConfig
sweepConfigOf(const ExperimentConfig &config,
              const ExperimentStores &stores)
{
    SweepConfig sc;
    sc.tracegen = config.tracegen;
    if (!config.device.empty()) {
        const dram::DeviceModel device =
            dram::DeviceSpec::parse(config.device).resolve();
        sc.tracegen = workload::withDevice(sc.tracegen, device);
    }
    sc.core = config.core;
    sc.jobs = config.jobs;
    // One store of each kind for the whole experiment -- or the
    // caller's long-lived ones (`moatsim serve` shares stores across
    // every client request). For the trace store the environment can
    // disable it on top of the config (both must opt in).
    if (stores.traces) {
        sc.traceStore = stores.traces;
    } else {
        workload::TraceStore::Config tsc =
            workload::TraceStore::envConfig();
        tsc.enabled = tsc.enabled && config.traceStore;
        sc.traceStore = std::make_shared<workload::TraceStore>(tsc);
    }
    sc.resultStore = stores.results
                         ? stores.results
                         : std::make_shared<ResultStore>(config.resultStore);
    return sc;
}

/** Split a flat point-major result vector into one row per point. */
template <typename Result>
std::vector<std::vector<Result>>
rowsOf(const std::vector<Result> &flat, size_t points, size_t width)
{
    std::vector<std::vector<Result>> out(points);
    for (size_t i = 0; i < points; ++i) {
        out[i].assign(flat.begin() + static_cast<ptrdiff_t>(i * width),
                      flat.begin() +
                          static_cast<ptrdiff_t>((i + 1) * width));
    }
    return out;
}

} // namespace

Experiment::Experiment(const ExperimentConfig &config)
    : Experiment(config, ExperimentStores{})
{
}

Experiment::Experiment(const ExperimentConfig &config,
                       const ExperimentStores &stores)
    : config_(config),
      engine_(sweepConfigOf(config, stores),
              stores.baselines ? stores.baselines
                               : std::make_shared<BaselineCache>()),
      // The co-attack engine shares the perf engine's resolved config
      // -- trace and result stores included -- so both replay one copy
      // of each workload's traces and fill one result store.
      coattack_(engine_.config())
{
}

std::vector<workload::WorkloadSpec>
Experiment::selectedWorkloads() const
{
    if (config_.workload == "all") {
        const auto all = workload::table4Workloads();
        return {all.begin(), all.end()};
    }
    return {workload::findWorkload(config_.workload)};
}

std::vector<PerfResult>
Experiment::run()
{
    return run(nullptr);
}

std::vector<PerfResult>
Experiment::run(const SweepEngine::CellSink &sink)
{
    return engine_.run(crossCells(selectedWorkloads(),
                                  {{config_.mitigator, config_.aboLevel}}),
                       sink);
}

std::vector<std::vector<PerfResult>>
Experiment::runMatrix(const std::vector<SweepPoint> &points)
{
    const auto workloads = selectedWorkloads();
    std::vector<std::pair<mitigation::MitigatorSpec, abo::Level>> pts;
    pts.reserve(points.size());
    for (const auto &p : points)
        pts.emplace_back(p.mitigator, p.level);
    return rowsOf(engine_.run(crossCells(workloads, pts)), points.size(),
                  workloads.size());
}

std::vector<CoAttackResult>
Experiment::runCoAttack(const CoAttackScenario &attack)
{
    return runCoAttack(attack, nullptr);
}

std::vector<CoAttackResult>
Experiment::runCoAttack(const CoAttackScenario &attack,
                        const CoAttackEngine::CellSink &sink)
{
    return coattack_.run(
        crossCoAttackCells(selectedWorkloads(), {config_.mitigator},
                           config_.aboLevel, attack),
        sink);
}

std::vector<std::vector<CoAttackResult>>
Experiment::runCoAttackMatrix(const std::vector<CoAttackPoint> &points)
{
    const auto workloads = selectedWorkloads();
    std::vector<CoAttackCell> cells;
    cells.reserve(points.size() * workloads.size());
    for (const auto &p : points) {
        for (const auto &w : workloads)
            cells.push_back({w, p.mitigator, p.level, p.attack});
    }
    return rowsOf(coattack_.run(cells), points.size(), workloads.size());
}

} // namespace moatsim::sim
