#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>

#include "common/hash.hh"
#include "mitigation/registry.hh"
#include "sim/experiment.hh"
#include "sim/perf.hh"
#include "sim/result_io.hh"
#include "sim/result_store.hh"
#include "sim/run_request.hh"
#include "sim/serve.hh"
#include "trace.hh"
#include "util.hh"
#include "workload/spec.hh"
#include "workload/trace_store.hh"
#include "workloads.hh"

namespace moatbench
{

namespace
{

namespace fs = std::filesystem;
using namespace moatsim;

// serve-warm's traffic. The repo holds no record of real serve
// traffic, so each parameter is either taken from a request shape the
// repo itself issues or assumed, as noted on it.

/** Requests in one pass of the seeded sequence. Assumed: 1% of it is
 *  40 requests, so one pass alone leaves 40 latency samples above the
 *  p99 (the workload definition asks for at least 10). */
constexpr size_t kSequence = 4000;
/** Share of requests that ask for the whole suite. The workload
 *  definition asks for "mostly single-cell with some whole-suite
 *  ones"; 1/22 is assumed so that each request shape answers the
 *  same number of cells (one whole-suite request answers 21, so
 *  1 x 21 : 21 x 1). */
constexpr double kSuiteShare = 1.0 / 22.0;
/** Window of every request: the 1/64 window of the repo's own serve
 *  requests (scripts/verify.sh's serve smokes, tests/test_serve.cc's
 *  smallRequest). */
constexpr double kServeFraction = 1.0 / 64;
/** Trace seed of the cells in serve-warm's store. */
constexpr uint64_t kServeTraceSeed = 7;
/** Every request is timed; every 16th latency is kept, so the samples'
 *  memory (part of peak_rss_mib) barely moves with the request rate. */
constexpr size_t kLatencyStride = 16;

struct ServePoint
{
    mitigation::MitigatorSpec mitigator;
    abo::Level level = abo::Level::L1;
    /** 1 as tests/test_serve.cc's requests, 2 as scripts/verify.sh's. */
    uint32_t subchannels = 2;
};

/**
 * The design points of the repo's perf figure and table benches
 * (bench/bench_fig11_perf.cc, bench_tab05_eth.cc,
 * bench_tab06_mitigation_rate.cc, bench_tab07_ath_level.cc,
 * bench_fig17_levels.cc), parsed from the same mitigator strings and
 * deduplicated, each on 1 and 2 sub-channels.
 */
std::vector<ServePoint>
servePoints()
{
    std::vector<std::pair<std::string, int>> specs = {
        {"moat", 1}, {"moat:ath=128,eth=64", 1}}; // Fig. 11
    for (const int eth : {0, 16, 32, 48}) // Table 5
        specs.push_back({"moat:ath=64,eth=" + std::to_string(eth), 1});
    for (const int rate : {1, 3, 5, 10, 0}) // Table 6
        specs.push_back(
            {"moat:ath=64,eth=32,period=" + std::to_string(rate), 1});
    for (const int ath : {32, 64, 128}) { // Table 7
        for (const int level : {1, 2, 4}) {
            specs.push_back({"moat:ath=" + std::to_string(ath) +
                                 ",eth=" + std::to_string(ath / 2) +
                                 ",entries=" + std::to_string(level),
                             level});
        }
    }
    for (const int level : {1, 2, 4}) // Fig. 17
        specs.push_back({"moat:entries=" + std::to_string(level), level});

    std::vector<ServePoint> designs;
    std::set<std::string> seen;
    for (const auto &[text, level] : specs) {
        ServePoint pt;
        pt.mitigator = mitigation::Registry::parse(text);
        pt.level = static_cast<abo::Level>(level);
        if (seen.insert(pt.mitigator.describe() + "@" +
                        std::to_string(level))
                .second)
            designs.push_back(pt);
    }
    std::vector<ServePoint> out;
    for (const uint32_t subchannels : {1u, 2u}) {
        for (ServePoint pt : designs) {
            pt.subchannels = subchannels;
            out.push_back(pt);
        }
    }
    return out;
}

/** One serve request: a design point and one workload (or the suite). */
sim::RunRequest
serveRunRequest(const Options &o, const ServePoint &pt,
                const std::string &workload)
{
    sim::RunRequest req;
    req.kind = "perf";
    req.mitigator = pt.mitigator.describe();
    req.workload = workload;
    req.level = abo::levelValue(pt.level);
    req.fraction = scaledFraction(o, kServeFraction);
    req.subchannels = pt.subchannels;
    req.seed = kServeTraceSeed;
    req.jobs = 1;
    return req;
}

std::string
serveDir(const Options &o)
{
    return o.state + (o.tiny ? "/serve-tiny" : "/serve");
}

/** The direct engine's result line of every (point, workload) cell in
 *  serve-warm's store. */
struct Catalog
{
    std::vector<ServePoint> points;
    std::vector<workload::WorkloadSpec> workloads;
    /** [point][workload] */
    std::vector<std::vector<std::string>> lines;
    std::vector<std::vector<sim::PerfResult>> results;
    /** [point]: the trace configuration its requests resolve to. */
    std::vector<workload::TraceGenConfig> tracegens;
};

/** The store is filled one sub-channel count at a time, each as one
 *  engine batch over every design point, once with the result store
 *  off (the reference lines) and once writing the store. */
void
fillServeStore(const Options &o)
{
    const std::string final_dir = serveDir(o);
    const std::string tmp = final_dir + ".tmp";
    resetDir(tmp);
    sim::ResultStore::Config store;
    store.enabled = true;
    store.dir = tmp + "/store";
    const auto points = servePoints();
    std::ofstream ref(tmp + "/ref.jsonl");
    for (const uint32_t subchannels : {1u, 2u}) {
        std::vector<size_t> index;
        std::vector<sim::SweepPoint> batch;
        for (size_t pi = 0; pi < points.size(); ++pi) {
            if (points[pi].subchannels != subchannels)
                continue;
            index.push_back(pi);
            batch.push_back({points[pi].mitigator, points[pi].level});
        }
        sim::RunRequest req =
            serveRunRequest(o, points[index.front()], "all");
        req.jobs = kJobs;
        sim::ExperimentConfig direct = sim::experimentConfigOf(req);
        direct.resultStore = sim::ResultStore::Config{};
        sim::ExperimentConfig stored = direct;
        stored.resultStore = store;
        const auto a = sim::Experiment(direct).runMatrix(batch);
        const auto b = sim::Experiment(stored).runMatrix(batch);
        for (size_t i = 0; i < index.size(); ++i) {
            for (size_t w = 0; w < a[i].size(); ++w) {
                const std::string line = sim::toJsonLine(a[i][w]);
                if (line != sim::toJsonLine(b[i][w]))
                    throw std::runtime_error(
                        "stored and direct lines differ: " + line);
                ref << index[i] << '\t' << w << '\t' << line << '\n';
            }
        }
    }
    ref.close();
    if (!ref)
        throw std::runtime_error("cannot write " + tmp + "/ref.jsonl");
    fs::remove_all(final_dir);
    fs::rename(tmp, final_dir);
}

Catalog
loadCatalog(const Options &o)
{
    if (!fs::exists(serveDir(o) + "/ref.jsonl"))
        fillServeStore(o);
    Catalog c;
    c.points = servePoints();
    c.workloads = suite();
    c.lines.assign(c.points.size(),
                   std::vector<std::string>(c.workloads.size()));
    c.results.assign(c.points.size(),
                     std::vector<sim::PerfResult>(c.workloads.size()));
    for (const auto &pt : c.points) {
        c.tracegens.push_back(
            sim::experimentConfigOf(serveRunRequest(o, pt, "all")).tracegen);
    }
    std::ifstream is(serveDir(o) + "/ref.jsonl");
    size_t pi = 0, w = 0, n = 0;
    std::string line;
    while (is >> pi >> w && is.get() == '\t' && std::getline(is, line)) {
        if (pi >= c.points.size() || w >= c.workloads.size())
            throw std::runtime_error("bad serve reference line");
        c.lines[pi][w] = line;
        c.results[pi][w] = sim::perfResultOfJsonLine(line);
        ++n;
    }
    if (n != c.points.size() * c.workloads.size())
        throw std::runtime_error("incomplete serve reference");
    return c;
}

/** One request of the sequence: a design point and one workload, or
 *  the point on the whole suite. */
struct SeqItem
{
    size_t point = 0;
    size_t workload = 0;
    bool suite = false;
};

/** Zipf(1) over n ranks: rank i + 1 is drawn with weight 1/(i + 1). */
class ZipfPick
{
  public:
    explicit ZipfPick(size_t n) : cdf_(n)
    {
        double sum = 0.0;
        for (size_t i = 0; i < n; ++i)
            cdf_[i] = (sum += 1.0 / static_cast<double>(i + 1));
        for (double &x : cdf_)
            x /= sum;
    }

    /** The item at uniform draw @p u in [0, 1). */
    size_t operator()(double u) const
    {
        const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
        return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                                cdf_.size() - 1);
    }

  private:
    std::vector<double> cdf_;
};

double
unitDraw(std::mt19937_64 &rng)
{
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/** A seeded permutation of 0..n-1 (Fisher-Yates on the raw draws). */
std::vector<size_t>
shuffledIndex(size_t n, std::mt19937_64 &rng)
{
    std::vector<size_t> out(n);
    for (size_t i = 0; i < n; ++i)
        out[i] = i;
    for (size_t i = n; i > 1; --i)
        std::swap(out[i - 1], out[rng() % i]);
    return out;
}

/**
 * The seeded request sequence. Popularity is Zipf(1) over the design
 * points; the exponent is assumed (the textbook Zipf; the workload
 * definition asks only for a skew), and the seed ranks the points, so
 * no catalog order makes a point hot. Sub-channel count and workload
 * are uniform: the repo's serve requests use 1 and 2 sub-channels
 * alike, and the paper's suite figures weigh every workload equally,
 * as a whole-suite request does. So every seed asks for the same mix
 * of simulated work in expectation. Exactly kSuiteShare of the
 * requests ask for the whole suite; the seed draws which cells are
 * asked for and in what order. std::mt19937_64's output is fixed by
 * the standard, and the draws avoid the library-defined distributions,
 * so a seed means the same sequence everywhere.
 */
std::vector<SeqItem>
requestSequence(uint64_t seed, const Catalog &c)
{
    std::mt19937_64 rng(seed);
    // servePoints() lists every design point once per sub-channel
    // count, 1 first.
    const size_t designs = c.points.size() / 2;
    const auto design_of_rank = shuffledIndex(designs, rng);
    const ZipfPick design(designs);
    const auto suites = static_cast<size_t>(
        std::llround(kSuiteShare * static_cast<double>(kSequence)));
    std::vector<SeqItem> seq(kSequence);
    for (size_t k = 0; k < seq.size(); ++k) {
        seq[k].suite = k < suites;
        seq[k].point = (rng() % 2) * designs +
                       design_of_rank[design(unitDraw(rng))];
        seq[k].workload = rng() % c.workloads.size();
    }
    for (size_t i = seq.size(); i > 1; --i)
        std::swap(seq[i - 1], seq[rng() % i]);
    return seq;
}

/** The result lines a sequence item must receive, in index order. */
std::vector<std::string>
expectedLines(const Catalog &c, const SeqItem &item)
{
    if (item.suite)
        return c.lines[item.point];
    return {c.lines[item.point][item.workload]};
}

SimCounts
sequenceCounts(const Catalog &c, const std::vector<SeqItem> &seq)
{
    SimCounts counts;
    for (const auto &item : seq) {
        if (item.suite) {
            for (const auto &r : c.results[item.point])
                counts.add(r, c.tracegens[item.point]);
        } else {
            counts.add(c.results[item.point][item.workload],
                       c.tracegens[item.point]);
        }
    }
    return counts;
}

/** Names and sizes of every file under @p dir: equal before and after
 *  a run proves the run left the persistent store untouched. */
std::string
dirSignature(const std::string &dir)
{
    std::vector<std::string> entries;
    for (const auto &e : fs::recursive_directory_iterator(dir)) {
        entries.push_back(
            e.path().string() + ":" +
            std::to_string(e.is_regular_file() ? e.file_size() : 0));
    }
    std::sort(entries.begin(), entries.end());
    std::string sig;
    for (const auto &e : entries)
        sig += e + "\n";
    return sig;
}

/** An in-process `moatsim serve` daemon on the persistent store. */
class Daemon
{
  public:
    Daemon(const std::string &store_dir, const std::string &socket)
        : server_(configOf(store_dir, socket))
    {
        server_.start();
        loop_ = std::thread([this] { server_.serveForever(); });
    }

    ~Daemon()
    {
        server_.stop();
        loop_.join();
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** The daemon's `stats` reply. */
    std::string stats() const
    {
        const sim::ServeReply r = sim::serveRequestLine(
            server_.config().socketPath, "{\"kind\":\"stats\"}");
        if (!r.ok)
            throw std::runtime_error("stats request failed: " + r.error);
        return r.done;
    }

  private:
    static sim::ServeConfig configOf(const std::string &store_dir,
                                     const std::string &socket)
    {
        sim::ServeConfig cfg;
        cfg.socketPath = socket;
        cfg.traceStore = workload::TraceStore::Config{};
        cfg.resultStore.enabled = true;
        cfg.resultStore.dir = store_dir;
        return cfg;
    }

    sim::Server server_;
    std::thread loop_;
};

uint64_t
statField(const std::string &line, const std::string &key)
{
    std::string v;
    if (!sim::tryJsonField(line, key, &v))
        throw std::runtime_error("stats reply lacks " + key + ": " + line);
    return std::stoull(v);
}

/** Everything a serve-warm run shares: the catalog, the seeded
 *  sequence with its requests and expected replies, and the paths. */
struct ServeSetup
{
    Catalog catalog;
    std::vector<SeqItem> seq;
    std::vector<sim::RunRequest> reqs;
    /** The requests as protocol lines (the RunRequest JSON codec). */
    std::vector<std::string> lines;
    /** Per sequence position: the lines its reply must carry, and the
     *  simulated ACTs those cells represent. */
    std::vector<std::vector<std::string>> want;
    std::vector<uint64_t> acts;
    std::string storeDir;
    std::string socket;
    std::string definition;
};

ServeSetup
serveSetup(const Options &o)
{
    ServeSetup s;
    s.catalog = loadCatalog(o);
    s.seq = requestSequence(o.seed, s.catalog);
    size_t suite_requests = 0;
    for (const auto &item : s.seq) {
        s.reqs.push_back(serveRunRequest(
            o, s.catalog.points[item.point],
            item.suite ? "all" : s.catalog.workloads[item.workload].name));
        s.lines.push_back(sim::toJsonLine(s.reqs.back()));
        s.want.push_back(expectedLines(s.catalog, item));
        s.acts.push_back(sequenceCounts(s.catalog, {item}).acts);
        suite_requests += item.suite ? 1 : 0;
    }
    s.storeDir = serveDir(o) + "/store";
    s.socket = scratchDir(o, "serve") + ".sock";
    s.definition =
        Json()
            .str("workload", "serve-warm")
            .count("store_cells",
                   s.catalog.points.size() * s.catalog.workloads.size())
            .count("design_points", s.catalog.points.size())
            .num("fraction", s.reqs.front().fraction)
            .count("trace_seed", kServeTraceSeed)
            .count("sequence_requests", s.seq.size())
            .count("sequence_suite_requests", suite_requests)
            .count("sequence_seed", o.seed)
            .str("skew", "Zipf(1) over design points, ranks drawn "
                         "from the seed; sub-channels and workloads "
                         "uniform")
            .str("points_source",
                 "perf benches fig11, tab05, tab06, tab07, fig17 x "
                 "sub-channels {1, 2}")
            .count("client_connections", kJobs)
            .count("request_jobs", 1)
            .text();
    return s;
}

/**
 * One persistent client connection to the daemon. Requests go out one
 * line at a time over the same socket, as the protocol allows (the
 * daemon keeps a connection usable after each reply), so the loop
 * holds exactly kJobs connections for the whole run.
 */
class Connection
{
  public:
    explicit Connection(const std::string &path)
    {
        sockaddr_un addr{};
        if (path.size() >= sizeof(addr.sun_path))
            throw std::runtime_error("socket path too long: " + path);
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0 ||
            ::connect(fd_, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            const int err = errno;
            if (fd_ >= 0)
                ::close(fd_);
            throw std::runtime_error("cannot connect to " + path +
                                     " (errno " + std::to_string(err) + ")");
        }
    }

    ~Connection() { ::close(fd_); }

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    /** Send @p line and read its reply through the terminal line. */
    sim::ServeReply request(const std::string &line)
    {
        sim::ServeReply reply;
        const std::string out = line + "\n";
        for (size_t sent = 0; sent < out.size();) {
            const ssize_t n = ::send(fd_, out.data() + sent,
                                     out.size() - sent, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0) {
                reply.error = "send failed";
                return reply;
            }
            sent += static_cast<size_t>(n);
        }
        while (true) {
            size_t nl = 0;
            while ((nl = buf_.find('\n')) != std::string::npos) {
                const std::string reply_line = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                if (!reply_line.empty() && fold(reply_line, &reply))
                    return reply;
            }
            char chunk[1 << 16];
            const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0) {
                reply.error = "connection closed before the done line";
                return reply;
            }
            buf_.append(chunk, static_cast<size_t>(n));
        }
    }

  private:
    /** Fold one reply line into @p reply; true on the terminal line. */
    static bool fold(const std::string &line, sim::ServeReply *reply)
    {
        std::string kind;
        if (!sim::tryJsonField(line, "kind", &kind)) {
            reply->error = "malformed reply: " + line;
            return true;
        }
        if (kind == "cell") {
            std::string index;
            std::string payload;
            if (!sim::tryJsonField(line, "index", &index) ||
                !sim::tryJsonField(line, "payload", &payload) ||
                index.empty() ||
                index.find_first_not_of("0123456789") != std::string::npos) {
                reply->error = "malformed cell line: " + line;
                return true;
            }
            const size_t i = std::stoul(index);
            if (i >= reply->cells.size())
                reply->cells.resize(i + 1);
            reply->cells[i] = std::move(payload);
            return false;
        }
        if (kind == "done") {
            reply->ok = true;
            reply->done = line;
        } else {
            reply->error = line;
        }
        return true;
    }

    int fd_ = -1;
    std::string buf_;
};

struct LoopOutcome
{
    double wallS = 0.0;
    int64_t start = 0;
    int64_t end = 0;
    uint64_t requests = 0;
    uint64_t cells = 0;
    uint64_t acts = 0;
    uint64_t failed = 0;
    /** Latency of every kLatencyStride-th request. */
    std::vector<double> latencyMs;
    /** Reply JSONL of each position of the first pass. */
    std::vector<std::string> firstPass;
};

/**
 * Closed loop: kJobs clients, each on its own connection, send the
 * next request of the sequence (cycling) as soon as their previous
 * reply is complete, until @p seconds have passed and the first pass
 * is complete. Latency runs from the send to the done line. Every
 * reply is checked against the direct engine's lines.
 */
LoopOutcome
closedLoop(const ServeSetup &s, double seconds, Tracer *tr)
{
    LoopOutcome out;
    const size_t n = s.seq.size();
    out.firstPass.resize(n);
    std::mutex mu;
    std::atomic<size_t> next{0};
    out.start = nowNs();
    const int64_t deadline =
        out.start + static_cast<int64_t>(seconds * 1e9);
    std::vector<std::thread> clients;
    for (unsigned t = 0; t < kJobs; ++t) {
        clients.emplace_back([&] {
            std::vector<double> lat;
            uint64_t requests = 0, cells = 0, acts = 0, failed = 0;
            try {
                Connection conn(s.socket);
                while (true) {
                    const size_t k = next.fetch_add(1);
                    if (k >= n && nowNs() >= deadline)
                        break;
                    const size_t pos = k % n;
                    std::optional<Tracer::Scope> request;
                    if (tr != nullptr)
                        request.emplace(*tr, "request", k);
                    sim::ServeReply reply;
                    const int64_t t0 = nowNs();
                    if (tr != nullptr) {
                        Tracer::Scope span(*tr, "sim.serve_roundtrip", k);
                        reply = conn.request(s.lines[pos]);
                    } else {
                        reply = conn.request(s.lines[pos]);
                    }
                    if (k % kLatencyStride == 0)
                        lat.push_back(static_cast<double>(nowNs() - t0) *
                                      1e-6);
                    ++requests;
                    if (!reply.ok || reply.cells != s.want[pos]) {
                        ++failed;
                        continue;
                    }
                    cells += reply.cells.size();
                    acts += s.acts[pos];
                    if (k < n) {
                        std::string lines;
                        for (const auto &line : reply.cells)
                            lines += line + "\n";
                        out.firstPass[k] = std::move(lines);
                    }
                }
            } catch (const std::exception &e) {
                std::cerr << "moatbench: client: " << e.what() << "\n";
                ++failed;
            }
            std::lock_guard<std::mutex> lock(mu);
            out.latencyMs.insert(out.latencyMs.end(), lat.begin(),
                                 lat.end());
            out.requests += requests;
            out.cells += cells;
            out.acts += acts;
            out.failed += failed;
        });
    }
    for (auto &th : clients)
        th.join();
    out.end = nowNs();
    out.wallS = secondsBetween(out.start, out.end);
    return out;
}

std::string
joined(const std::vector<std::string> &parts)
{
    std::string out;
    for (const auto &p : parts)
        out += p;
    return out;
}

/** The store must have served everything: no miss, no compute, no
 *  trace generation. */
bool
allHits(const std::string &stats)
{
    return statField(stats, "misses") == 0 &&
           statField(stats, "computes") == 0 &&
           statField(stats, "trace_misses") == 0;
}

} // namespace

int
measureServe(const Options &o)
{
    const ServeSetup s = serveSetup(o);
    const std::string before = dirSignature(s.storeDir);
    LoopOutcome warm;
    LoopOutcome loop;
    std::string stats;
    {
        Daemon d(s.storeDir, s.socket);
        // One untimed pass of the sequence first, as the batch
        // workloads' warm-up pass: a loop's first second runs at a
        // fraction of the later rate (connections, first touches of
        // the store's records and the reply buffers).
        warm = closedLoop(s, 0.0, nullptr);
        loop = closedLoop(s, o.seconds, nullptr);
        stats = d.stats();
    }
    const bool untouched = dirSignature(s.storeDir) == before;
    const uint64_t failed = warm.failed + loop.failed;
    const bool correct = failed == 0 && allHits(stats) && untouched;
    const std::vector<double> &lat = loop.latencyMs;
    // At least 10 samples above the 99th percentile.
    if (lat.size() < 1000)
        throw std::runtime_error("too few requests for a p99: " +
                                 std::to_string(lat.size()));
    const double p99 = percentile(lat, 0.99);
    const std::string metrics =
        Json()
            .num("cells_per_s", static_cast<double>(loop.cells) / loop.wallS)
            .num("acts_per_s", static_cast<double>(loop.acts) / loop.wallS)
            .num("request_ms_p50", percentile(lat, 0.50))
            .num("request_ms_p99", p99)
            .num("requests_per_s",
                 static_cast<double>(loop.requests) / loop.wallS)
            .num("peak_rss_mib", peakRssMib())
            .text();
    const std::string info =
        Json()
            .raw("definition", s.definition)
            .raw("counts", sequenceCounts(s.catalog, s.seq).json())
            .count("latency_samples", lat.size())
            .count("samples_above_p99",
                   static_cast<uint64_t>(std::count_if(
                       lat.begin(), lat.end(),
                       [p99](double v) { return v > p99; })))
            .raw("daemon_stats", stats)
            .flag("store_untouched", untouched)
            .text();
    std::cout << resultJson(correct, warm.requests + loop.requests, failed,
                            metrics,
                            hex64(stableHash64(joined(loop.firstPass))), info)
              << std::endl;
    return 0;
}

int
tracedServe(const Options &o)
{
    const ServeSetup s = serveSetup(o);
    const std::string before = dirSignature(s.storeDir);
    Tracer tr;
    uint64_t failed = 0;

    // Direct read probe: one pass of the sequence against the store
    // itself -- the read path and result_io a serve request runs
    // through, without the socket.
    {
        std::unique_ptr<sim::ResultStore> probe;
        {
            sim::ResultStore::Config cfg;
            cfg.enabled = true;
            cfg.dir = s.storeDir;
            Tracer::Scope span(tr, "sim.store_load", 0);
            probe = std::make_unique<sim::ResultStore>(cfg);
        }
        for (size_t k = 0; k < s.seq.size(); ++k) {
            Tracer::Scope request(tr, "request", k);
            const SeqItem &item = s.seq[k];
            const ServePoint &pt = s.catalog.points[item.point];
            const auto &tg = s.catalog.tracegens[item.point];
            const auto &want = s.want[k];
            for (size_t j = 0; j < want.size(); ++j) {
                const size_t w = item.suite ? j : item.workload;
                const uint64_t key =
                    sim::perfCellKey(tg, sim::CoreModel{},
                                     s.catalog.workloads[w], pt.mitigator,
                                     pt.level);
                std::shared_ptr<const std::string> payload;
                {
                    Tracer::Scope span(tr, "sim.store", k);
                    payload = probe->getOrCompute(key, []() -> std::string {
                        throw std::runtime_error("serve store miss");
                    });
                }
                Tracer::Scope span(tr, "sim.serialize", k);
                if (sim::toJsonLine(sim::perfResultOfJsonLine(*payload)) !=
                    want[j])
                    ++failed;
            }
        }
    }

    // Untraced and traced segments alternate in ABBA order, so drift
    // in the machine's load and any advantage of running second cancel
    // out of the tracing overhead.
    std::vector<LoopOutcome> plain;
    std::vector<LoopOutcome> traced;
    std::string stats;
    {
        Daemon d(s.storeDir, s.socket);
        plain.push_back(closedLoop(s, o.seconds / 4, nullptr));
        traced.push_back(closedLoop(s, o.seconds / 4, &tr));
        traced.push_back(closedLoop(s, o.seconds / 4, &tr));
        plain.push_back(closedLoop(s, o.seconds / 4, nullptr));
        stats = d.stats();
    }
    const size_t written =
        tr.writeJsonl(o.state + "/spans-" + o.workload + ".jsonl",
                      kWrittenSpans);
    const bool untouched = dirSignature(s.storeDir) == before;
    const std::string reference = joined(plain.front().firstPass);
    double plain_wall = 0.0, traced_wall = 0.0;
    uint64_t plain_requests = 0, traced_requests = 0;
    std::vector<double> idle, uncovered;
    for (const auto &loop : plain) {
        plain_wall += loop.wallS;
        plain_requests += loop.requests;
        failed += loop.failed + (joined(loop.firstPass) != reference);
    }
    const std::vector<Span> spans = tr.spans();
    for (const auto &loop : traced) {
        traced_wall += loop.wallS;
        traced_requests += loop.requests;
        failed += loop.failed + (joined(loop.firstPass) != reference);
        idle.push_back(1.0 - groupBusySeconds(spans, loop.start,
                                              loop.end, kGrouping) /
                                 (kJobs * loop.wallS));
        uncovered.push_back(
            uncoveredShare(spans, loop.start, loop.end, kGrouping));
    }
    const bool correct = failed == 0 && allHits(stats) && untouched;

    const double passes = static_cast<double>(traced_requests) /
                          static_cast<double>(s.seq.size());
    std::map<std::string, double> m;
    addLayerTimes(m, tr, passes, 1.0);
    // The probe ran exactly one pass; only the roundtrips scale.
    for (const char *probe : {"sim.store_self_s", "sim.serialize_s"})
        m[probe] *= passes;
    m["sim.store_hit_ratio"] =
        ratio(static_cast<double>(statField(stats, "hits")),
              static_cast<double>(statField(stats, "hits") +
                                  statField(stats, "misses")));
    m["sim.store_appends"] = static_cast<double>(statField(stats, "computes"));
    m["sim.store_append_failures"] =
        static_cast<double>(statField(stats, "append_failures"));
    // A baseline is only ever computed inside a cell compute.
    m["sim.baseline_computes"] =
        static_cast<double>(statField(stats, "computes"));
    m["sim.serve_compute_failures"] =
        static_cast<double>(statField(stats, "compute_failures"));
    m["sim.serve_accept_retries"] =
        static_cast<double>(statField(stats, "accept_retries"));
    m["sim.sweep_idle_frac"] = median(idle);
    setCounts(m, sequenceCounts(s.catalog, s.seq));
    m["trace.overhead_frac"] =
        (static_cast<double>(plain_requests) / plain_wall) /
            (static_cast<double>(traced_requests) / traced_wall) -
        1.0;
    m["trace.uncovered_frac"] = median(uncovered);

    const std::string info =
        Json()
            .raw("definition", s.definition)
            .count("spans_recorded", spans.size())
            .count("spans_written", written)
            .count("traced_requests", traced_requests)
            .count("untraced_requests", plain_requests)
            .raw("daemon_stats", stats)
            .flag("store_untouched", untouched)
            .text();
    std::cout << resultJson(correct,
                            plain_requests + traced_requests + s.seq.size(),
                            failed, layerJson(m),
                            hex64(stableHash64(reference)), info)
              << std::endl;
    return 0;
}

int
setupServe(const Options &o)
{
    if (!fs::exists(serveDir(o) + "/ref.jsonl"))
        throw std::runtime_error("serve-warm store not filled; run "
                                 "`moatbench fill` first");
    Daemon d(serveDir(o) + "/store", scratchDir(o, "serve") + ".sock");
    d.stats(); // the daemon answers: a request can be issued
    std::cout << "ready" << std::endl;
    return 0;
}

int
fillServe(const Options &o)
{
    const Catalog c = loadCatalog(o);
    std::cout << Json()
                     .count("store_cells",
                            c.points.size() * c.workloads.size())
                     .text()
              << std::endl;
    return 0;
}

int
digestServe(const Options &o)
{
    const ServeSetup s = serveSetup(o);
    std::string replies;
    for (const auto &want : s.want) {
        for (const auto &line : want)
            replies += line + "\n";
    }
    std::cout << Json()
                     .str("digest", hex64(stableHash64(replies)))
                     .raw("counts", sequenceCounts(s.catalog, s.seq).json())
                     .text()
              << std::endl;
    return 0;
}

} // namespace moatbench
