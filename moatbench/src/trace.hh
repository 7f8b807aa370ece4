/**
 * @file
 * In-memory span recorder of the benchmark's traced runs.
 *
 * The traced run issues the engine's calls itself, one layer at a
 * time, and wraps each call in a Scope. A span records its name, its
 * start and end on the steady clock, the span that was open on the
 * same thread when it began (its parent), and the cell or request it
 * belongs to. Spans stay in memory until the run ends and are then
 * written out as JSONL. The simulator itself is not instrumented.
 *
 * A layer's self time is its spans' durations minus the part covered
 * by their child spans (children always nest on the parent's thread).
 */

#ifndef MOATBENCH_TRACE_HH
#define MOATBENCH_TRACE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace moatbench
{

/** Steady-clock nanoseconds. */
int64_t nowNs();

struct Span
{
    const char *name = "";
    int64_t start = 0;
    int64_t end = 0;
    uint64_t id = 0;
    /** Enclosing span on the same thread; 0 = none. */
    uint64_t parent = 0;
    uint32_t thread = 0;
    /** Cell index or request index the span works for. */
    uint64_t item = 0;
};

class Tracer
{
  public:
    /** Opens a span on construction and closes it on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name, uint64_t item);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        Span span_;
        uint64_t saved_parent_;
    };

    /** Every span closed so far, in closing order. */
    std::vector<Span> spans() const;

    /** Write the first @p limit spans, one JSON line each, to @p path
     *  (replacing it); returns how many were written. */
    size_t writeJsonl(const std::string &path, size_t limit) const;

  private:
    void close(const Span &span);

    std::atomic<uint64_t> next_id_{1};
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** Self seconds per span name, over every span not in @p grouping
 *  (spans that bracket a whole cell or request, not a layer). */
std::map<std::string, double>
selfSeconds(const std::vector<Span> &spans,
            const std::set<std::string> &grouping);

/** Summed duration of the @p grouping spans that start in
 *  [@p start, @p end): cell or request busy time over all threads. */
double groupBusySeconds(const std::vector<Span> &spans, int64_t start,
                        int64_t end, const std::set<std::string> &grouping);

/** Share of [@p start, @p end) during which no layer span (one not in
 *  @p grouping) was open on any thread. */
double uncoveredShare(const std::vector<Span> &spans, int64_t start,
                      int64_t end, const std::set<std::string> &grouping);

} // namespace moatbench

#endif // MOATBENCH_TRACE_HH
