#include "trace.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace moatbench
{

namespace
{

/** The innermost open span of this thread (0 = none). */
thread_local uint64_t t_open = 0;

uint32_t
threadIndex()
{
    static std::atomic<uint32_t> next{0};
    thread_local const uint32_t index = next.fetch_add(1);
    return index;
}

} // namespace

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Tracer::Scope::Scope(Tracer &tracer, const char *name, uint64_t item)
    : tracer_(tracer), saved_parent_(t_open)
{
    span_.id = tracer_.next_id_.fetch_add(1, std::memory_order_relaxed);
    span_.name = name;
    span_.parent = saved_parent_;
    span_.thread = threadIndex();
    span_.item = item;
    t_open = span_.id;
    span_.start = nowNs();
}

Tracer::Scope::~Scope()
{
    span_.end = nowNs();
    t_open = saved_parent_;
    tracer_.close(span_);
}

void
Tracer::close(const Span &span)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

size_t
Tracer::writeJsonl(const std::string &path, size_t limit) const
{
    const std::vector<Span> all = spans();
    const size_t n = std::min(limit, all.size());
    std::ofstream os(path, std::ios::trunc);
    for (size_t i = 0; i < n; ++i) {
        const Span &s = all[i];
        os << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
           << ",\"parent\":" << s.parent << ",\"thread\":" << s.thread
           << ",\"item\":" << s.item << ",\"start_ns\":" << s.start
           << ",\"end_ns\":" << s.end << "}\n";
    }
    if (!os)
        throw std::runtime_error("cannot write spans to " + path);
    return n;
}

std::map<std::string, double>
selfSeconds(const std::vector<Span> &spans,
            const std::set<std::string> &grouping)
{
    std::unordered_map<uint64_t, int64_t> child_ns;
    for (const Span &s : spans) {
        if (s.parent != 0)
            child_ns[s.parent] += s.end - s.start;
    }
    std::map<std::string, double> out;
    for (const Span &s : spans) {
        if (grouping.count(s.name) != 0)
            continue;
        const auto it = child_ns.find(s.id);
        const int64_t covered = it == child_ns.end() ? 0 : it->second;
        out[s.name] += static_cast<double>(s.end - s.start - covered) * 1e-9;
    }
    return out;
}

double
groupBusySeconds(const std::vector<Span> &spans, int64_t start, int64_t end,
                 const std::set<std::string> &grouping)
{
    double busy = 0.0;
    for (const Span &s : spans) {
        if (s.start >= start && s.start < end &&
            grouping.count(s.name) != 0)
            busy += static_cast<double>(s.end - s.start) * 1e-9;
    }
    return busy;
}

double
uncoveredShare(const std::vector<Span> &spans, int64_t start, int64_t end,
               const std::set<std::string> &grouping)
{
    if (end <= start)
        return 0.0;
    std::vector<std::pair<int64_t, int64_t>> layer;
    for (const Span &s : spans) {
        if (grouping.count(s.name) != 0 || s.end <= start || s.start >= end)
            continue;
        layer.emplace_back(std::max(s.start, start), std::min(s.end, end));
    }
    std::sort(layer.begin(), layer.end());
    int64_t covered = 0;
    int64_t run_start = start;
    int64_t run_end = start;
    for (const auto &[a, b] : layer) {
        if (a > run_end) {
            covered += run_end - run_start;
            run_start = a;
            run_end = b;
        } else {
            run_end = std::max(run_end, b);
        }
    }
    covered += run_end - run_start;
    return 1.0 - static_cast<double>(covered) /
                     static_cast<double>(end - start);
}

} // namespace moatbench
