#include "util.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "sim/result_io.hh"
#include "sim/run_request.hh"

namespace moatbench
{

namespace fs = std::filesystem;
using namespace moatsim;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank =
        static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
secondsBetween(int64_t a, int64_t b)
{
    return static_cast<double>(b - a) * 1e-9;
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

Json &
Json::num(const std::string &k, double v)
{
    return raw(k, sim::jsonDouble(v));
}

Json &
Json::count(const std::string &k, uint64_t v)
{
    return raw(k, std::to_string(v));
}

Json &
Json::str(const std::string &k, const std::string &v)
{
    return raw(k, sim::jsonQuote(v));
}

Json &
Json::flag(const std::string &k, bool v)
{
    return raw(k, v ? "true" : "false");
}

Json &
Json::raw(const std::string &k, const std::string &v)
{
    if (!body_.empty())
        body_ += ",";
    body_ += sim::jsonQuote(k) + ":" + v;
    return *this;
}

std::string
quotedList(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (size_t i = 0; i < items.size(); ++i)
        out += (i ? "," : "") + sim::jsonQuote(items[i]);
    return out + "]";
}

std::string
numberList(const std::vector<double> &items)
{
    std::string out = "[";
    for (size_t i = 0; i < items.size(); ++i)
        out += (i ? "," : "") + sim::jsonDouble(items[i]);
    return out + "]";
}

void
resetDir(const std::string &dir)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
}

std::string
scratchDir(const Options &o, const std::string &what)
{
    return o.state + "/tmp-" + what + "-" + std::to_string(::getpid());
}

std::vector<workload::WorkloadSpec>
suite()
{
    const auto all = workload::table4Workloads();
    return {all.begin(), all.end()};
}

mitigation::MitigatorSpec
moatAt(const std::string &params, abo::Level level)
{
    return sim::withMoatLevelEntries(
        mitigation::Registry::parse("moat:" + params), level);
}

double
scaledFraction(const Options &o, double fraction)
{
    return o.tiny ? fraction / 16.0 : fraction;
}

uint64_t
differingLines(const std::string &a, const std::string &b)
{
    std::istringstream sa(a), sb(b);
    std::string la, lb;
    uint64_t diff = 0;
    while (true) {
        const bool ga = static_cast<bool>(std::getline(sa, la));
        const bool gb = static_cast<bool>(std::getline(sb, lb));
        if (!ga && !gb)
            return diff;
        if (ga != gb || la != lb)
            ++diff;
    }
}

void
SimCounts::add(const sim::PerfResult &r, const workload::TraceGenConfig &tg)
{
    const double banks = static_cast<double>(tg.banksSimulated) *
                         std::max(1u, tg.subchannels) *
                         std::max(1u, tg.channels) * std::max(1u, tg.ranks);
    acts += r.acts;
    alerts += r.alerts;
    mitigations += static_cast<uint64_t>(std::llround(
        r.mitigationsPerBankPerRefw * banks * tg.windowFraction));
}

void
SimCounts::add(const sim::CoAttackResult &r)
{
    acts += r.victimActs + r.attackerActs;
    alerts += r.alerts;
    rfms += r.rfms;
    maxHammer = std::max<uint64_t>(maxHammer, r.attackerMaxHammer);
}

std::string
SimCounts::json() const
{
    return Json()
        .count("sim.acts", acts)
        .count("abo.alerts", alerts)
        .count("abo.rfms", rfms)
        .count("mitigation.mitigations", mitigations)
        .count("attacks.max_hammer", maxHammer)
        .text();
}

const std::vector<std::string> kLayerMetrics = {
    "workload.generate_s",
    "workload.flatten_s",
    "workload.trace_wait_s",
    "workload.events",
    "workload.trace_store_hit_ratio",
    "workload.attack_trace_s",
    "workload.self_share",
    "sim.baseline_s",
    "sim.baseline_computes",
    "sim.baseline_reuse_ratio",
    "sim.coattack_baseline_s",
    "sim.replay_s",
    "sim.replay_ns_per_act",
    "sim.replay_self_share",
    "sim.sweep_idle_frac",
    "sim.store_self_s",
    "sim.store_hit_ratio",
    "sim.store_appends",
    "sim.store_append_failures",
    "sim.store_load_s",
    "sim.serialize_s",
    "sim.serve_roundtrip_s",
    "sim.serve_compute_failures",
    "sim.serve_accept_retries",
    "sim.acts",
    "abo.alerts",
    "abo.rfms",
    "mitigation.mitigations",
    "attacks.max_hammer",
    "trace.overhead_frac",
    "trace.uncovered_frac",
};

namespace
{

/** Span name -> the per-layer metric its self time feeds. */
const std::map<std::string, std::string> kSpanMetric = {
    {"workload.generate", "workload.generate_s"},
    {"workload.flatten", "workload.flatten_s"},
    {"workload.lookup", "workload.trace_wait_s"},
    {"workload.attack_trace", "workload.attack_trace_s"},
    {"sim.baseline", "sim.baseline_s"},
    {"sim.coattack_baseline", "sim.coattack_baseline_s"},
    {"sim.replay", "sim.replay_s"},
    {"sim.store", "sim.store_self_s"},
    {"sim.store_load", "sim.store_load_s"},
    {"sim.serialize", "sim.serialize_s"},
    {"sim.serve_roundtrip", "sim.serve_roundtrip_s"},
};

} // namespace

void
addLayerTimes(std::map<std::string, double> &m, const Tracer &tr,
              double passes, double store_loads)
{
    const auto self = selfSeconds(tr.spans(), kGrouping);
    double total = 0.0;
    for (const auto &[name, s] : self) {
        total += s;
        const auto it = kSpanMetric.find(name);
        if (it == kSpanMetric.end())
            throw std::logic_error("unmapped span " + name);
        const double per = name == "sim.store_load" ? store_loads : passes;
        m[it->second] = ratio(s, per);
    }
    const auto get = [&](const char *n) {
        const auto it = self.find(n);
        return it == self.end() ? 0.0 : it->second;
    };
    m["workload.self_share"] =
        ratio(get("workload.generate") + get("workload.flatten"), total);
    m["sim.replay_self_share"] = ratio(get("sim.replay"), total);
}

void
setCounts(std::map<std::string, double> &m, const SimCounts &c)
{
    m["sim.acts"] = static_cast<double>(c.acts);
    m["abo.alerts"] = static_cast<double>(c.alerts);
    m["abo.rfms"] = static_cast<double>(c.rfms);
    m["mitigation.mitigations"] = static_cast<double>(c.mitigations);
    m["attacks.max_hammer"] = static_cast<double>(c.maxHammer);
}

std::string
layerJson(const std::map<std::string, double> &m)
{
    for (const auto &entry : m) {
        if (std::find(kLayerMetrics.begin(), kLayerMetrics.end(),
                      entry.first) == kLayerMetrics.end())
            throw std::logic_error("unlisted per-layer metric " +
                                   entry.first);
    }
    Json j;
    for (const auto &name : kLayerMetrics) {
        const auto it = m.find(name);
        j.num(name, it == m.end() ? 0.0 : it->second);
    }
    return j.text();
}

std::string
resultJson(bool correct, uint64_t attempted, uint64_t failed,
           const std::string &metrics, const std::string &digest,
           const std::string &info)
{
    return Json()
        .flag("correct", correct)
        .count("attempted", attempted)
        .count("failed", failed)
        .raw("metrics", metrics)
        .str("digest", digest)
        .raw("info", info)
        .text();
}

} // namespace moatbench
