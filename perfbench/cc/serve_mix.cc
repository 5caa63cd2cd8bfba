/**
 * @file
 * serve_mix: an in-process server::Server (one event-loop shard, two
 * compute workers, an LRU cache smaller than the job space) driven in
 * an open loop by this thread over two keep-alive connections. Requests
 * are due at a fixed offered rate whatever the server does; each is
 * timed from when it was due, and the generator's own lateness is
 * reported so a late generator is never read as a slow server.
 *
 * Jobs are Zipf-popular over LFK id x machine variant x vector length
 * plus seeded DSL loops; most requests are /v1/analyze, some are
 * multi-job /v1/batch. Every 200 body must equal renderBatchJson of the
 * same jobs from a serial BatchEngine built during set-up.
 *
 * The open-loop window gives goodput and the client-side latencies.
 * A closed loop over the same sockets, deep enough to keep the shard
 * and both compute workers busy, gives the gated rate: the server's
 * capacity through its event loop and compute pool. The gated
 * latencies are the server time of each request, from an
 * in-process replay of the same schedule through RequestParser,
 * Server::handle and serializeResponse: on a shared virtual machine a
 * client's sub-millisecond latency is mostly how fast a sleeping
 * virtual CPU wakes, and it swings several-fold from run to run.
 */

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <memory>

#include "gen.h"
#include "tracer.h"
#include "workloads.h"

#include "obs/export.h"
#include "pipeline/pipeline.h"
#include "pipeline/report.h"
#include "server/client.h"
#include "server/kernel_source.h"
#include "server/server.h"
#include "support/strings.h"

namespace perfbench {

using namespace macs;

namespace {

/**
 * Offered load. On a quiet 4-vCPU host the mix sustains about 8000/s
 * within the latency limit; under neighbours' load about half that,
 * so 2000/s keeps the run below saturation either way.
 */
constexpr double kOfferedRate = 2000.0;
constexpr int kConnections = 2;
constexpr double kLatencyLimitMs = 50.0;
/** The cache holds fewer entries than the job space has jobs. */
constexpr size_t kCacheCapacity = 128;
/** A window whose generator ran later than this at p99 is invalid. */
constexpr double kMaxLateP99Ms = 5.0;
constexpr int kWindowAttempts = 3;
constexpr double kDrainTimeoutS = 10.0;
/** Set-ups timed per run; setup_s is their median. */
constexpr int kSetupReps = 5;
/**
 * Client latency percentiles are medians over one-second slices (2000
 * requests each, so p99 keeps 20 samples beyond it).
 */
constexpr double kSliceS = 1.0;

/** Everything set-up builds: inputs, expected bodies, the server. */
struct ServeSetup
{
    ServeMix mix;
    /** Per request kind (job, then batch): HTTP bytes, expected body. */
    std::vector<std::string> requests;
    std::vector<std::string> expected;
    std::vector<pipeline::BatchResult> expectedResults;
    std::unique_ptr<server::Server> server;
};

std::string
jobJson(const ServeMix &mix, const ServeJob &job, bool with_machine)
{
    std::string out;
    if (job.lfkId != 0) {
        out = format("{\"id\": %d", job.lfkId);
    } else {
        const LoopSpec &l = mix.loops[static_cast<size_t>(job.loop)];
        out = format("{\"kind\": \"loop\", \"trip\": %ld, \"label\": "
                     "\"%s\", \"source\": \"%s\"",
                     l.trip, l.label.c_str(),
                     obs::jsonEscape(l.source).c_str());
    }
    if (with_machine) {
        out += ", \"variant\": \"" + job.variant + "\"";
        if (job.vl > 0)
            out += format(", \"vl\": %d", job.vl);
    }
    return out + "}";
}

std::string
httpPost(const std::string &path, const std::string &body)
{
    return format("POST %s HTTP/1.1\r\nHost: perfbench\r\nContent-Type: "
                  "application/json\r\nContent-Length: %zu\r\n\r\n",
                  path.c_str(), body.size()) +
           body;
}

/** Add @p job's kernel to @p spec the way the server's decoder does. */
void
addJob(const ServeMix &mix, const ServeJob &job, server::JobSetSpec &spec)
{
    if (job.lfkId != 0) {
        spec.ids.push_back(job.lfkId);
        return;
    }
    const LoopSpec &l = mix.loops[static_cast<size_t>(job.loop)];
    model::KernelCase kc;
    Diagnostics diags;
    if (!server::kernelFromLoopSource(l.source, l.label, l.trip, kc, diags))
        fatal("generated loop does not compile: ", diags.render());
    spec.kernels.push_back(std::move(kc));
}

std::vector<pipeline::BatchJob>
expandKind(const ServeMix &mix, const std::vector<uint32_t> &members)
{
    server::JobSetSpec spec;
    const ServeJob &first = mix.jobs[members.front()];
    for (uint32_t m : members)
        addJob(mix, mix.jobs[m], spec);
    spec.variants.push_back(first.variant);
    if (first.vl > 0)
        spec.vls.push_back(first.vl);
    return server::expandJobSet(spec);
}

ServeSetup
setUp(uint64_t seed, size_t requests, Isolation &iso, Tracer &tracer)
{
    ServeSetup s;
    s.mix = generateServeMix(seed, requests);
    const ServeMix &mix = s.mix;

    for (size_t l = 0; l < mix.loops.size(); ++l) {
        model::KernelCase kc;
        Diagnostics diags;
        Tracer::Scope span(tracer, "compiler.compile",
                           static_cast<int64_t>(l));
        (void)server::kernelFromLoopSource(mix.loops[l].source,
                                           mix.loops[l].label,
                                           mix.loops[l].trip, kc, diags);
    }

    pipeline::EngineOptions eopt;
    eopt.workers = 1;
    eopt.metrics = &iso.registry;
    eopt.faults = &iso.faults;
    pipeline::BatchEngine engine(eopt);
    auto expect = [&](const std::vector<uint32_t> &members,
                      std::string request) {
        pipeline::BatchResult r = engine.run(expandKind(mix, members));
        s.expected.push_back(pipeline::renderBatchJson(r));
        s.expectedResults.push_back(std::move(r));
        s.requests.push_back(std::move(request));
    };
    for (uint32_t j = 0; j < mix.jobs.size(); ++j)
        expect({j}, httpPost("/v1/analyze",
                             jobJson(mix, mix.jobs[j], true)));
    for (const std::vector<uint32_t> &members : mix.batches) {
        const ServeJob &first = mix.jobs[members.front()];
        std::string body = "{\"jobs\": [";
        for (size_t i = 0; i < members.size(); ++i)
            body += (i ? ", " : "") +
                    jobJson(mix, mix.jobs[members[i]], false);
        body += "], \"variants\": [\"" + first.variant + "\"]";
        if (first.vl > 0)
            body += format(", \"vls\": [%d]", first.vl);
        expect(members, httpPost("/v1/batch", body + "}"));
    }

    server::ServerOptions opt;
    opt.workers = 2;
    opt.shards = 1;
    opt.faults = &iso.faults;
    opt.metrics = &iso.registry;
    opt.service.cacheCapacity = kCacheCapacity;
    opt.service.faults = &iso.faults;
    opt.service.metrics = &iso.registry;
    s.server = std::make_unique<server::Server>(opt);
    s.server->start();
    server::HttpClient client("127.0.0.1", s.server->port());
    server::ClientResponse health;
    for (int attempt = 0; !client.request("GET", "/healthz", "", health) ||
                          health.status != 200;
         ++attempt)
        if (attempt == 100)
            fatal("the server never answered /healthz with 200");
    return s;
}

/** One open-loop window of the load generator. */
struct Window
{
    std::vector<double> latencyMs; ///< due -> response, answered ones
    std::vector<Sample> timed;     ///< the same, at their due time
    std::vector<double> lateMs;    ///< due -> sent
    uint64_t good = 0;             ///< right body within the limit
    double elapsedS = 0.0;         ///< first due -> last response
};

struct Pending
{
    uint32_t kind = 0;
    int64_t id = 0;
    Clock::time_point due;
};

struct Conn
{
    int fd = -1;
    std::string out;
    std::string in;
    std::deque<Pending> pending;
};

int
connectTo(int port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        fatal("socket: ", std::strerror(errno));
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd);
        fatal("connect: ", std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    return fd;
}

/** Extract one complete response from @p in; false if none yet. */
bool
takeResponse(std::string &in, int &status, std::string &body)
{
    size_t end = in.find("\r\n\r\n");
    if (end == std::string::npos)
        return false;
    static const char kLength[] = "Content-Length: ";
    size_t at = in.find(kLength);
    if (at == std::string::npos || at > end)
        fatal("response without Content-Length");
    size_t length = std::strtoul(in.c_str() + at + sizeof(kLength) - 1,
                                 nullptr, 10);
    if (in.size() < end + 4 + length)
        return false;
    status = std::atoi(in.c_str() + 9); // "HTTP/1.1 200 ..."
    body.assign(in, end + 4, length);
    in.erase(0, end + 4 + length);
    return true;
}

/**
 * Send @p schedule at @p rate per second over kConnections pipelined
 * keep-alive connections, poll for the replies, and check each.
 */
Window
runWindow(int port, const ServeSetup &s, const uint32_t *schedule,
          size_t n, double rate, int64_t id_base, Tracer &tracer,
          Result &out)
{
    Window w;
    Conn conns[kConnections];
    for (Conn &c : conns)
        c.fd = connectTo(port);
    const Clock::time_point t0 =
        Clock::now() + std::chrono::milliseconds(2);
    auto due = [&](size_t i) {
        return t0 + std::chrono::nanoseconds(static_cast<int64_t>(
                        static_cast<double>(i) * 1e9 / rate));
    };
    Clock::time_point last = t0;
    size_t next = 0, answered = 0;
    Clock::time_point drain_deadline = Clock::time_point::max();
    auto fail_conn = [&](Conn &c, const char *why) {
        for (const Pending &p : c.pending) {
            out.fail(format("request %lld: %s",
                            static_cast<long long>(p.id), why));
            ++answered;
        }
        c.pending.clear();
        ::close(c.fd);
        c.fd = -1;
    };

    while (answered < n) {
        Clock::time_point now = Clock::now();
        for (; next < n && due(next) <= now; ++next) {
            Conn *c = nullptr;
            for (Conn &k : conns)
                if (k.fd >= 0 &&
                    (c == nullptr || k.pending.size() < c->pending.size()))
                    c = &k;
            int64_t id = id_base + static_cast<int64_t>(next);
            if (c == nullptr) {
                out.fail(format("request %lld: no connection",
                                static_cast<long long>(id)));
                ++answered;
                continue;
            }
            c->out += s.requests[schedule[next]];
            c->pending.push_back({schedule[next], id, due(next)});
            w.lateMs.push_back(
                std::chrono::duration<double, std::milli>(now - due(next))
                    .count());
        }
        for (Conn &c : conns) {
            while (c.fd >= 0 && !c.out.empty()) {
                ssize_t k = ::send(c.fd, c.out.data(), c.out.size(),
                                   MSG_NOSIGNAL);
                if (k > 0) {
                    c.out.erase(0, static_cast<size_t>(k));
                } else {
                    if (k < 0 && errno != EAGAIN && errno != EWOULDBLOCK)
                        fail_conn(c, "send failed");
                    break;
                }
            }
        }
        if (next == n && drain_deadline == Clock::time_point::max())
            drain_deadline =
                now + std::chrono::milliseconds(
                          static_cast<int64_t>(kDrainTimeoutS * 1e3));
        if (now >= drain_deadline)
            break;

        // Busy-poll: a sleeping generator wakes late on a virtual CPU,
        // and both its send times and its receive times would carry
        // that. The generator is one of the run's busy threads.
        timespec ts = {0, 0};
        pollfd fds[kConnections];
        for (int i = 0; i < kConnections; ++i) {
            fds[i].fd = conns[i].fd;
            fds[i].events = static_cast<short>(
                POLLIN | (conns[i].out.empty() ? 0 : POLLOUT));
            fds[i].revents = 0;
        }
        if (::ppoll(fds, kConnections, &ts, nullptr) <= 0)
            continue;
        for (int i = 0; i < kConnections; ++i) {
            Conn &c = conns[i];
            if (c.fd < 0 || !(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            char buf[65536];
            for (;;) {
                ssize_t k = ::recv(c.fd, buf, sizeof(buf), 0);
                if (k > 0) {
                    c.in.append(buf, static_cast<size_t>(k));
                    continue;
                }
                if (k == 0 || (errno != EAGAIN && errno != EWOULDBLOCK))
                    fail_conn(c, "connection closed");
                break;
            }
            Clock::time_point got = Clock::now();
            int status = 0;
            std::string body;
            while (!c.pending.empty() && takeResponse(c.in, status, body)) {
                Pending p = c.pending.front();
                c.pending.pop_front();
                ++answered;
                last = got;
                double ms =
                    std::chrono::duration<double, std::milli>(got - p.due)
                        .count();
                tracer.record("client.request", p.due, got, p.id);
                if (status == 503) {
                    out.fail(format("request %lld refused (503)",
                                    static_cast<long long>(p.id)));
                    continue;
                }
                w.latencyMs.push_back(ms);
                w.timed.push_back(
                    {std::chrono::duration<double>(p.due - t0).count(), ms});
                if (status != 200 || body != s.expected[p.kind]) {
                    out.fail(format("request %lld: status %d, body "
                                    "differs from the serial engine's",
                                    static_cast<long long>(p.id),
                                    status));
                    continue;
                }
                ++out.attempted;
                if (ms <= kLatencyLimitMs)
                    ++w.good;
            }
        }
    }
    for (Conn &c : conns)
        if (c.fd >= 0)
            fail_conn(c, "no reply before the drain deadline");
    w.elapsedS = std::chrono::duration<double>(last - t0).count();
    return w;
}

/**
 * The closed loop's connections and the requests each keeps in
 * flight: enough that the shard and both compute workers always have
 * work queued, so the rate is bound by CPU rather than by wake-ups.
 */
constexpr size_t kClosedConnections = 8;
constexpr size_t kClosedDepth = 8;

/**
 * Closed loop over the sockets: kClosedConnections keep-alive connections
 * each keep kClosedDepth requests of @p schedule (cyclically) in
 * flight, a new one sent as each reply arrives, for @p budget_s.
 * Returns the replies per second of each whole one-second slice.
 * Every reply is checked; this is the server's capacity through its
 * event loop, shard and compute pool, which the open loop's fixed
 * offered rate does not show.
 */
std::vector<double>
runClosedLoop(int port, const ServeSetup &s, const uint32_t *schedule,
              size_t n, double budget_s, int64_t id_base, Result &out)
{
    std::vector<Conn> conns(kClosedConnections);
    std::vector<pollfd> fds(kClosedConnections);
    for (Conn &c : conns)
        c.fd = connectTo(port);
    size_t next = 0;
    auto send_next = [&](Conn &c) {
        uint32_t kind = schedule[next % n];
        c.out += s.requests[kind];
        c.pending.push_back(
            {kind, id_base + static_cast<int64_t>(next), Clock::now()});
        ++next;
    };
    for (Conn &c : conns)
        for (size_t d = 0; d < kClosedDepth; ++d)
            send_next(c);

    const Clock::time_point t0 = Clock::now();
    std::vector<double> per_slice;
    double slice_end = kSliceS;
    uint64_t in_slice = 0;
    bool failed = false;
    while (!failed) {
        double t = secondsSince(t0);
        if (t >= slice_end) {
            per_slice.push_back(static_cast<double>(in_slice) / kSliceS);
            in_slice = 0;
            slice_end += kSliceS;
            if (t >= budget_s)
                break;
        }
        for (size_t i = 0; i < conns.size(); ++i) {
            Conn &c = conns[i];
            while (!c.out.empty()) {
                ssize_t k = ::send(c.fd, c.out.data(), c.out.size(),
                                   MSG_NOSIGNAL);
                if (k <= 0)
                    break;
                c.out.erase(0, static_cast<size_t>(k));
            }
            fds[i].fd = c.fd;
            fds[i].events = static_cast<short>(
                POLLIN | (c.out.empty() ? 0 : POLLOUT));
            fds[i].revents = 0;
        }
        timespec ts = {0, 0}; // busy-poll, as the open loop does
        if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0)
            continue;
        for (size_t i = 0; i < conns.size() && !failed; ++i) {
            Conn &c = conns[i];
            if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            char buf[65536];
            ssize_t k = ::recv(c.fd, buf, sizeof(buf), 0);
            if (k == 0 || (k < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
                out.fail("closed loop: connection closed");
                failed = true;
                break;
            }
            if (k > 0)
                c.in.append(buf, static_cast<size_t>(k));
            int status = 0;
            std::string body;
            while (!c.pending.empty() && takeResponse(c.in, status, body)) {
                Pending p = c.pending.front();
                c.pending.pop_front();
                out.check(status == 200 && body == s.expected[p.kind],
                          format("closed-loop request %lld: status %d, "
                                 "body differs from the serial engine's",
                                 static_cast<long long>(p.id), status));
                ++in_slice;
                send_next(c);
            }
        }
    }
    // Drain what is still in flight, checked but not counted; a
    // server that stops answering fails the drain after kDrainTimeoutS.
    for (Conn &c : conns) {
        ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) & ~O_NONBLOCK);
        timeval tv = {static_cast<time_t>(kDrainTimeoutS), 0};
        ::setsockopt(c.fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        ::setsockopt(c.fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
        while (!failed && !c.out.empty()) {
            ssize_t k = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
            if (k <= 0)
                break;
            c.out.erase(0, static_cast<size_t>(k));
        }
        while (!failed && !c.pending.empty()) {
            int status = 0;
            std::string body;
            if (takeResponse(c.in, status, body)) {
                Pending p = c.pending.front();
                c.pending.pop_front();
                out.check(status == 200 && body == s.expected[p.kind],
                          format("closed-loop request %lld: status %d",
                                 static_cast<long long>(p.id), status));
                continue;
            }
            char buf[65536];
            ssize_t k = ::recv(c.fd, buf, sizeof(buf), 0);
            if (k <= 0) {
                out.fail("closed loop: connection closed while draining");
                break;
            }
            c.in.append(buf, static_cast<size_t>(k));
        }
        ::close(c.fd);
    }
    return per_slice;
}

/** Sum of every sample of @p name in a Prometheus text exposition. */
double
promSum(const std::string &text, const std::string &name,
        const std::string &label = "")
{
    double sum = 0.0;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.compare(0, name.size(), name) != 0 ||
            (line.size() > name.size() && line[name.size()] != '{' &&
             line[name.size()] != ' ') ||
            (!label.empty() && line.find(label) == std::string::npos))
            continue;
        size_t sp = line.rfind(' ');
        if (sp != std::string::npos)
            sum += std::strtod(line.c_str() + sp + 1, nullptr);
    }
    return sum;
}

std::string
scrapeMetrics(int port)
{
    server::HttpClient client("127.0.0.1", port);
    server::ClientResponse r;
    if (!client.request("GET", "/metrics", "", r) || r.status != 200)
        fatal("GET /metrics failed");
    return r.body;
}

/** Run a window, again up to kWindowAttempts times while invalid. */
Window
validWindow(int port, const ServeSetup &s, const uint32_t *schedule,
            size_t n, double rate, int64_t id_base, Tracer &tracer,
            Result &out)
{
    for (int attempt = 1;; ++attempt) {
        Window w = runWindow(port, s, schedule, n, rate, id_base, tracer, out);
        double late = quantile(w.lateMs, 0.99);
        if (late <= kMaxLateP99Ms)
            return w;
        std::fprintf(stderr,
                     "perfbench: serve_mix window invalid: the generator "
                     "ran %.3f ms late at p99 (limit %.1f ms)\n",
                     late, kMaxLateP99Ms);
        if (attempt == kWindowAttempts)
            fatal("serve_mix: the load generator fell behind its schedule "
                  "in every window; the run is invalid, not slow");
    }
}

/** Requests replayed in process: each one's kind and server time. */
struct Replayed
{
    std::vector<uint32_t> kind;
    std::vector<Sample> ms; ///< at the request's offset into the replay

    /**
     * The @p q-quantile over the replayed requests, each timed by the
     * best time its kind took in the replay: the best of a request's
     * repetitions is what host interference inflates least. A kind
     * replayed once or twice keeps those times, so the rare kinds,
     * whose replays are mostly cache misses, still make the tail.
     */
    double
    bestOfKindQuantile(size_t kinds, double q) const
    {
        std::vector<double> best(kinds, 0.0);
        for (size_t i = 0; i < kind.size(); ++i)
            if (best[kind[i]] == 0.0 || ms[i].v < best[kind[i]])
                best[kind[i]] = ms[i].v;
        std::vector<double> per_request;
        for (uint32_t k : kind)
            per_request.push_back(best[k]);
        return quantile(std::move(per_request), q);
    }
};

/**
 * Replay the requests of @p schedule (cyclically) in process, through
 * RequestParser, Server::handle and serializeResponse, until
 * @p budget_s has passed; spans split each request by layer and by
 * cache outcome when @p tracer is on.
 */
Replayed
replay(const ServeSetup &s, const uint32_t *schedule, size_t n,
       double budget_s, int64_t id_base, Tracer &tracer, Result &out)
{
    Replayed r;
    const pipeline::AnalysisCache &cache = s.server->service().cache();
    Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i == 0 || secondsSince(t0) < budget_s; ++i) {
        uint32_t kind = schedule[i % n];
        int64_t id = id_base + static_cast<int64_t>(i);
        Clock::time_point a = Clock::now();
        server::HttpRequest request;
        {
            Tracer::Scope span(tracer, "server.parse", id);
            server::RequestParser parser;
            parser.feed(s.requests[kind]);
            request = parser.take();
        }
        uint64_t misses_before = cache.misses();
        int32_t span = tracer.begin("server.handle", id);
        server::HttpResponse response = s.server->handle(request);
        tracer.end(span);
        tracer.rename(span, cache.misses() != misses_before
                                ? "server.handle_miss"
                                : "server.handle_hit");
        std::string bytes = server::serializeResponse(response, true);
        Clock::time_point b = Clock::now();
        r.kind.push_back(kind);
        r.ms.push_back(
            {std::chrono::duration<double>(a - t0).count(),
             std::chrono::duration<double, std::milli>(b - a).count()});
        if (response.status == 200 && response.body == s.expected[kind])
            ++out.attempted;
        else
            out.fail(format("replayed request %lld: status %d, body "
                            "differs from the serial engine's",
                            static_cast<long long>(id),
                            response.status));
        if (tracer.enabled()) {
            Tracer::Scope render(tracer, "pipeline.render", id);
            (void)pipeline::renderBatchJson(s.expectedResults[kind]);
        }
    }
    return r;
}

} // namespace

void
runServeMix(const Args &args, Result &out)
{
    Isolation iso;
    Clock::time_point epoch = processStart();
    Tracer tracer(args.trace, epoch); // set-up's compile spans
    const double rate = kOfferedRate;
    // Untraced: an open-loop window (25%), a closed loop (25%) and an
    // in-process replay (50%). Traced: an untraced replay (25%), a
    // traced open-loop window (35%) and a traced replay (40%).
    const double window_s = (args.trace ? 0.35 : 0.25) * args.seconds;
    const size_t warm_n = static_cast<size_t>(rate * kWarmUpS);
    const size_t window_n = static_cast<size_t>(rate * window_s);

    std::vector<double> setups;
    ServeSetup s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        s = ServeSetup{}; // drain the previous server first
        Clock::time_point t0 = rep == 0 ? epoch : Clock::now();
        s = setUp(args.seed, warm_n + window_n, iso, tracer);
        setups.push_back(secondsSince(t0));
    }
    out.check(serialize(s.mix) ==
                  serialize(generateServeMix(args.seed, warm_n + window_n)),
              "serving-mix generator is not deterministic for one seed");
    for (size_t k = 0; k < s.expectedResults.size(); ++k)
        out.check(s.expectedResults[k].stats.failures == 0,
                  format("set-up job set %zu failed", k));
    const int port = s.server->port();
    const uint32_t *warm = s.mix.schedule.data();
    const uint32_t *window = warm + warm_n;
    const int64_t replay_ids = static_cast<int64_t>(warm_n + window_n);

    // Warm-up: fills the cache and wakes every CPU; checked, not timed.
    tracer.setEnabled(false);
    (void)runWindow(port, s, warm, warm_n, rate, 0, tracer, out);

    Replayed untraced;
    if (args.trace)
        untraced = replay(s, window, window_n, 0.25 * args.seconds,
                             replay_ids, tracer, out);
    tracer.setEnabled(args.trace);
    std::string before = scrapeMetrics(port);
    Window w = validWindow(port, s, window, window_n, rate,
                           static_cast<int64_t>(warm_n), tracer, out);
    std::string after = scrapeMetrics(port);
    std::vector<double> capacity;
    if (!args.trace)
        capacity = runClosedLoop(port, s, window, window_n,
                                 0.25 * args.seconds, replay_ids, out);
    Replayed replayed =
        replay(s, window, window_n,
               (args.trace ? 0.4 : 0.5) * args.seconds, replay_ids, tracer,
               out);
    const Replayed &server = args.trace ? untraced : replayed;
    const size_t kinds = s.requests.size();

    double goodput = static_cast<double>(w.good) / w.elapsedS;
    double client_p50 = slicedQuantile(w.timed, kSliceS, 0.5);
    double client_p99 = slicedQuantile(w.timed, kSliceS, 0.99);
    // The tail is p95: between p98 and p99 the best-of-kind times jump
    // from one set of kinds to the next (about 0.37 to 0.70 ms), so
    // p99 flipped with the seed.
    double server_p50 = server.bestOfKindQuantile(kinds, 0.5);
    double server_p95 = server.bestOfKindQuantile(kinds, 0.95);
    out.note("setup_s", median(setups), "s");
    out.note("offered_rate", rate, "req/s");
    out.note("goodput_per_s", goodput, "req/s");
    if (!args.trace)
        out.note("capacity_per_s", median(capacity), "req/s");
    out.note("client_latency_p50_ms", client_p50, "ms");
    out.note("client_latency_p99_ms", client_p99, "ms");
    out.note("client_latency_samples", static_cast<double>(w.latencyMs.size()),
             "count");
    out.note("loadgen.late_p99_ms", quantile(w.lateMs, 0.99), "ms");
    out.note("server_time_p50_ms", server_p50, "ms");
    out.note("server_time_p95_ms", server_p95, "ms");
    out.note("server_time_p50_ms_median_slice",
             slicedQuantile(server.ms, kSliceS, 0.5), "ms");
    out.note("server_time_p99_ms_median_slice",
             slicedQuantile(server.ms, kSliceS, 0.99), "ms");
    out.note("server_time_samples", static_cast<double>(server.ms.size()),
             "count");
    out.note("distinct_jobs", static_cast<double>(s.mix.jobs.size()),
             "count");

    if (!args.trace) {
        out.endToEnd(median(setups), median(capacity), server_p50,
                     server_p95, peakRssMb());
        return;
    }

    auto delta = [&](const char *name, const char *label) {
        return promSum(after, name, label) - promSum(before, name, label);
    };
    double hits = delta("macs_pipeline_cache_total", "event=\"hit\"");
    double misses = delta("macs_pipeline_cache_total", "event=\"miss\"");
    std::vector<double> parse_us = tracer.durationsUs("server.parse");
    std::vector<double> hit_us = tracer.durationsUs("server.handle_hit");
    std::vector<double> miss_us = tracer.durationsUs("server.handle_miss");
    std::vector<double> handle_us = hit_us;
    handle_us.insert(handle_us.end(), miss_us.begin(), miss_us.end());
    std::map<std::string, SpanTotal> t = tracer.totals();
    out.metric("compiler.compile_us", t["compiler.compile"].meanUs(), "us");
    out.metric("pipeline.render_us", t["pipeline.render"].meanUs(), "us");
    out.metric("pipeline.cache_hit_ratio", hits / (hits + misses), "ratio");
    out.metric("pipeline.cache_evictions",
               delta("macs_cache_evictions_total", ""), "count");
    out.metric("server.parse_us", median(parse_us), "us");
    out.metric("server.handle_hit_us", median(hit_us), "us");
    out.metric("server.handle_miss_us", median(miss_us), "us");
    out.metric("server.transport_us",
               client_p50 * 1e3 - median(parse_us) - median(handle_us), "us");
    out.metric("server.wakeups_per_req",
               (delta("macs_server_poll_wakeups_total", "") +
                delta("macs_server_notify_wakeups_total", "")) /
                   static_cast<double>(window_n),
               "ratio");
    out.metric("server.rejected", delta("macs_server_rejected_total", ""),
               "count");
    out.metric("loadgen.late_p99_ms", quantile(w.lateMs, 0.99), "ms");
    out.metric("loadgen.latency_p50_ms", client_p50, "ms");
    out.metric("loadgen.latency_p99_ms", client_p99, "ms");
    out.metric("trace.overhead_pct",
               100.0 * (replayed.bestOfKindQuantile(kinds, 0.5) /
                            server_p50 -
                        1.0),
               "%");

    tracer.write(args);
}

} // namespace perfbench
