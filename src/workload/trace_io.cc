#include "workload/trace_io.hh"

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/logging.hh"

namespace moatsim::workload
{

namespace
{

/** @p value as a @p Field, or fatal() naming the trace line and the
 *  column when it does not fit. @p value is non-negative. */
template <typename Field>
Field
fieldOf(int64_t value, const char *column, size_t lineno)
{
    const uint64_t max = std::numeric_limits<Field>::max();
    if (static_cast<uint64_t>(value) > max)
        fatal("trace line " + std::to_string(lineno) + ": " + column +
              " " + std::to_string(value) + " exceeds " +
              std::to_string(max));
    return static_cast<Field>(value);
}

} // namespace

void
writeTraces(std::ostream &os, const std::vector<CoreTrace> &traces)
{
    // Single-sub-channel traces keep the v1 3-column format so older
    // tooling can read them; any event on a sub-channel other than 0
    // switches the whole file to the v2 4-column format.
    bool multi = false;
    for (const auto &t : traces) {
        for (const auto &e : t.events)
            multi = multi || e.subchannel != 0;
    }
    if (multi)
        os << "# moatsim trace v2: time_ps bank row subchannel\n";
    else
        os << "# moatsim trace v1: time_ps bank row\n";
    for (size_t c = 0; c < traces.size(); ++c) {
        os << "core " << c << "\n";
        // The reader rejects "window 0" as malformed; an unset window
        // is simply omitted and re-derived from the last event.
        if (traces[c].window > 0)
            os << "window " << traces[c].window << "\n";
        for (const auto &e : traces[c].events) {
            os << e.at << ' ' << e.bank << ' ' << e.row;
            if (multi)
                os << ' ' << e.subchannel;
            os << "\n";
        }
    }
}

std::vector<CoreTrace>
readTraces(std::istream &is)
{
    std::vector<CoreTrace> traces;
    CoreTrace *current = nullptr;
    std::string line;
    size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string first;
        ls >> first;
        if (first == "core") {
            size_t index = 0;
            if (!(ls >> index))
                fatal("trace line " + std::to_string(lineno) +
                      ": bad core header");
            if (index != traces.size())
                fatal("trace line " + std::to_string(lineno) +
                      ": core sections must be in order");
            traces.emplace_back();
            current = &traces.back();
        } else if (first == "window") {
            if (current == nullptr)
                fatal("trace line " + std::to_string(lineno) +
                      ": window before any core");
            if (!(ls >> current->window) || current->window <= 0)
                fatal("trace line " + std::to_string(lineno) +
                      ": bad window");
        } else {
            if (current == nullptr)
                fatal("trace line " + std::to_string(lineno) +
                      ": event before any core");
            TraceEvent e;
            std::istringstream es(line);
            int64_t bank = 0;
            int64_t row = 0;
            if (!(es >> e.at >> bank >> row) || e.at < 0 || bank < 0 ||
                row < 0)
                fatal("trace line " + std::to_string(lineno) +
                      ": bad event");
            // Optional v2 fourth column: the target sub-channel.
            int64_t subchannel = 0;
            if (es >> subchannel) {
                if (subchannel < 0)
                    fatal("trace line " + std::to_string(lineno) +
                          ": bad event");
            }
            // Each column must fit its TraceEvent field; a narrowing
            // cast would silently replay a different coordinate.
            e.bank = fieldOf<BankId>(bank, "bank", lineno);
            e.row = fieldOf<RowId>(row, "row", lineno);
            e.subchannel = fieldOf<decltype(e.subchannel)>(
                subchannel, "sub-channel", lineno);
            if (!current->events.empty() &&
                e.at < current->events.back().at)
                fatal("trace line " + std::to_string(lineno) +
                      ": events out of order");
            current->events.push_back(e);
        }
    }
    for (auto &t : traces) {
        if (t.window == 0 && !t.events.empty())
            t.window = t.events.back().at + 1;
    }
    return traces;
}

void
saveTraces(const std::string &path, const std::vector<CoreTrace> &traces)
{
    std::ofstream os(path);
    if (!os)
        fatal("saveTraces: cannot open " + path);
    writeTraces(os, traces);
}

std::vector<CoreTrace>
loadTraces(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("loadTraces: cannot open " + path);
    return readTraces(is);
}

} // namespace moatsim::workload
