/**
 * @file
 * Helpers shared by the batch and serve-warm workloads: statistics,
 * a flat JSON writer, the simulated counts every pass must repeat,
 * and the per-layer metric report of the traced runs.
 */

#ifndef MOATBENCH_UTIL_HH
#define MOATBENCH_UTIL_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "mitigation/registry.hh"
#include "sim/coattack.hh"
#include "sim/perf.hh"
#include "trace.hh"
#include "workload/spec.hh"
#include "workload/tracegen.hh"
#include "workloads.hh"

namespace moatbench
{

/** Worker threads of a batch pass and client connections of
 *  serve-warm: the load never exceeds the 4 cores the benchmark was
 *  sized on. */
inline constexpr unsigned kJobs = 4;

/** Spans a traced run writes out at most: serve-warm records millions
 *  in a run; every span still counts in the per-layer metrics. */
inline constexpr size_t kWrittenSpans = 200000;

/** Spans that bracket a whole cell or request rather than a layer. */
inline const std::set<std::string> kGrouping = {"cell", "request"};

double median(std::vector<double> v);

/** Nearest-rank percentile, @p q in (0, 1]. */
double percentile(std::vector<double> v, double q);

/** Peak resident memory of this process. */
double peakRssMib();

double secondsBetween(int64_t a, int64_t b);

std::string hex64(uint64_t v);

/** @p num / @p den, or 0 when @p den is 0. */
double ratio(double num, double den);

/** A flat JSON object assembled field by field. */
class Json
{
  public:
    Json &num(const std::string &k, double v);
    Json &count(const std::string &k, uint64_t v);
    Json &str(const std::string &k, const std::string &v);
    Json &flag(const std::string &k, bool v);
    Json &raw(const std::string &k, const std::string &v);
    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

std::string quotedList(const std::vector<std::string> &items);

std::string numberList(const std::vector<double> &items);

/** Empty @p dir, creating it if needed. */
void resetDir(const std::string &dir);

/** A per-process path under the state directory. */
std::string scratchDir(const Options &o, const std::string &what);

/** The 21 Table-4 workloads. */
std::vector<moatsim::workload::WorkloadSpec> suite();

/** A MOAT spec as `moatsim perf --mitigator moat:PARAMS --level L`
 *  denotes it (MOAT-L entries bound to the level). */
moatsim::mitigation::MitigatorSpec moatAt(const std::string &params,
                                          moatsim::abo::Level level);

/** The window fraction at the run's scale (the self-test divides
 *  every fraction by 16). */
double scaledFraction(const Options &o, double fraction);

/** Lines of @p a that differ from the same line of @p b. */
uint64_t differingLines(const std::string &a, const std::string &b);

/** The simulated statistics a pass produces; a speed-only change must
 *  leave every one of them identical. */
struct SimCounts
{
    uint64_t acts = 0;
    uint64_t alerts = 0;
    uint64_t rfms = 0;
    uint64_t mitigations = 0;
    uint64_t maxHammer = 0;

    /** PerfResult carries mitigations as a per-bank per-tREFW rate;
     *  undo the scaling (exact: the rate is a count over a power-of-
     *  two bank count and window fraction). PerfResult carries no RFM
     *  count, so perf cells add none. */
    void add(const moatsim::sim::PerfResult &r,
             const moatsim::workload::TraceGenConfig &tg);

    /** Co-attack results carry no mitigation count. */
    void add(const moatsim::sim::CoAttackResult &r);

    std::string json() const;
};

/** Every per-layer metric, in BENCHMARK.json order; the traced run of
 *  each workload prints all of them (0 where a layer does no work). */
extern const std::vector<std::string> kLayerMetrics;

/** Layer self times per pass plus the shares derived from them.
 *  @p store_loads counts the ResultStore constructions (their span
 *  time is reported per construction, not per pass). */
void addLayerTimes(std::map<std::string, double> &m, const Tracer &tr,
                   double passes, double store_loads);

void setCounts(std::map<std::string, double> &m, const SimCounts &c);

/** Every kLayerMetrics entry of @p m as one JSON object. */
std::string layerJson(const std::map<std::string, double> &m);

/** The result object a mode prints as its last stdout line. */
std::string resultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::string &metrics, const std::string &digest,
                       const std::string &info);

} // namespace moatbench

#endif // MOATBENCH_UTIL_HH
