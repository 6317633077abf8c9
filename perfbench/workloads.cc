/**
 * @file
 * The benchmark's three workloads, all closed loops driven from one
 * process with no more busy threads than the host has:
 *
 *  - serve_zipf: loopback McServer + McStore, preloaded through the
 *    protocol, then the paper §5.1.2 Zipf get/set/delete mix in
 *    pipelined batches over one client connection. Every value
 *    carries its key and a checksum, so each GET hit verifies itself.
 *  - heap_churn: one thread per hardware thread calls McStore
 *    directly with a write-heavy mix of fresh-content sets, deletes
 *    and gets on its own key partition; a per-thread shadow map is
 *    the oracle.
 *  - spmv_read: a fixed MatrixGen subset built into one heap as
 *    QtsMatrix/NzdMatrix copies, one copy per thread, multiplied
 *    repeatedly; every result is checked against
 *    SparseMatrix::multiply.
 *
 * Each workload ends with a heap audit that must be clean.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/auditor.hh"
#include "apps/spmv/hicamp_matrix.hh"
#include "bench.hh"
#include "common/hash.hh"
#include "server/proto.hh"
#include "server/ring.hh"
#include "server/server.hh"
#include "server/store.hh"
#include "workloads/matrixgen.hh"
#include "workloads/memcached_workload.hh"
#include "workloads/webcorpus.hh"

using namespace hicamp;

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double
usSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
}

/** Metrics a workload does not exercise are reported as 0. */
void
zero(Report &r, std::initializer_list<std::pair<const char *, const char *>>
                    names)
{
    for (const auto &[n, u] : names)
        r.set(n, 0.0, u);
}

const std::initializer_list<std::pair<const char *, const char *>>
    kServerMetrics = {{"server.rtt_self_us", "us"},
                      {"server.proto.ns_per_cmd", "ns/cmd"},
                      {"server.ring.ns_per_handoff", "ns"},
                      {"server.backpressure_stalls_per_kop", "count/kop"}};
const std::initializer_list<std::pair<const char *, const char *>>
    kStoreMetrics = {{"store.get_us", "us"},
                     {"store.set_us", "us"},
                     {"store.delete_us", "us"}};
const std::initializer_list<std::pair<const char *, const char *>>
    kSpmvMetrics = {{"spmv.build_ms", "ms"},
                    {"spmv.call_ms", "ms"},
                    {"spmv.reads_per_nnz", "count/nnz"}};

void
audit(Report &r, Hicamp &hc, const char *what)
{
    const AuditReport rep = Auditor::audit(hc);
    r.auditClean = rep.clean();
    std::printf("audit %s: %s\n", what,
                rep.clean() ? "clean" : rep.summary().c_str());
}

void
endToEnd(Report &r, const Window &w, double setupS, double bytesPerUser,
         double genS, const char *latWhat)
{
    Samples lat = w.latUs;
    const Percentile p50 = lat.at(0.50), p99 = lat.at(0.99),
                     p999 = lat.at(0.999);
    std::printf("latency (%s): median over %zu slices of >= %zu samples: "
                "p50 %.2f us, p99 %.2f us\n",
                latWhat, w.latSlices, kMinSliceSamples, w.p50Us, w.p99Us);
    std::printf("latency (%s), all samples: p50 %.2f us, p99 %.2f us (%zu "
                "beyond), p999 %.2f us (%zu beyond), %zu samples\n",
                latWhat, p50.value, p99.value, p99.beyond, p999.value,
                p999.beyond, p50.samples);
    std::vector<double> rates = w.sliceRates;
    std::sort(rates.begin(), rates.end());
    std::printf("throughput: median of %zu slices (min %.0f, max %.0f "
                "ops/s), %llu ops in %.2f s\n",
                rates.size(), rates.empty() ? 0.0 : rates.front(),
                rates.empty() ? 0.0 : rates.back(),
                static_cast<unsigned long long>(w.ops), w.wallS);
    r.set("setup_s", setupS, "s");
    r.set("ops_per_s", w.opsPerS, "1/s");
    r.set("p50_us", w.p50Us, "us");
    r.set("p99_us", w.p99Us, "us");
    r.set("p999_us", p999.value, "us");
    r.set("latency_samples", static_cast<double>(p50.samples), "count");
    r.set("bytes_per_user_byte", bytesPerUser, "ratio");
    r.set("gen_s", genS, "s");
}

// ---------------------------------------------------------------------
// Self-verifying values: body | key | fnv64(key '|' body) in hex.

std::string
hex16(std::uint64_t v)
{
    char b[17];
    std::snprintf(b, sizeof b, "%016llx", static_cast<unsigned long long>(v));
    return b;
}

std::uint64_t
sealSum(std::string_view key, std::string_view body)
{
    std::uint64_t h = fnv1a(key.data(), key.size());
    h = fnv1aByte(h, '|');
    return fnv1a(body.data(), body.size(), h);
}

std::string
sealValue(const std::string &key, const std::string &body)
{
    return body + '|' + key + '|' + hex16(sealSum(key, body));
}

bool
verifySealed(std::string_view key, std::string_view data)
{
    if (data.size() < key.size() + 18)
        return false;
    const std::size_t sumAt = data.size() - 16;
    const std::size_t keyAt = sumAt - 1 - key.size();
    if (data[sumAt - 1] != '|' || data.substr(keyAt, key.size()) != key ||
        data[keyAt - 1] != '|')
        return false;
    return hex16(sealSum(key, data.substr(0, keyAt - 1))) ==
           data.substr(sumAt);
}

// ---------------------------------------------------------------------
// Loopback memcached client.

class Client
{
  public:
    explicit Client(std::uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            return;
        timeval tv{10, 0};
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }
    ~Client()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    bool ok() const { return fd_ >= 0; }

    bool
    send(std::string_view bytes)
    {
        std::size_t off = 0;
        while (off < bytes.size()) {
            const ssize_t n =
                ::write(fd_, bytes.data() + off, bytes.size() - off);
            if (n <= 0)
                return false;
            off += static_cast<std::size_t>(n);
        }
        return true;
    }

    bool
    readLine(std::string &line)
    {
        for (;;) {
            const std::size_t nl = buf_.find("\r\n", scan_);
            if (nl != std::string::npos) {
                line.assign(buf_, 0, nl);
                buf_.erase(0, nl + 2);
                scan_ = 0;
                return true;
            }
            scan_ = buf_.size() > 1 ? buf_.size() - 1 : 0;
            if (!fill())
                return false;
        }
    }

    bool
    readN(std::size_t n, std::string &out)
    {
        while (buf_.size() < n)
            if (!fill())
                return false;
        out.assign(buf_, 0, n);
        buf_.erase(0, n);
        scan_ = 0;
        return true;
    }

    /**
     * Reads and checks the next response, to a request @p op on @p key:
     * a set must answer STORED, a delete DELETED or NOT_FOUND, a get
     * END or one VALUE for @p key whose sealed payload verifies.
     * Anything else (SERVER_ERROR included) fails.
     */
    bool
    response(McRequest::Op op, std::string_view key)
    {
        if (!readLine(line_))
            return false;
        switch (op) {
          case McRequest::Op::Set:
            return line_ == "STORED";
          case McRequest::Op::Delete:
            return line_ == "DELETED" || line_ == "NOT_FOUND";
          case McRequest::Op::Get:
            break;
        }
        if (line_ == "END")
            return true;
        const std::string want = "VALUE " + std::string(key) + " 0 ";
        if (line_.rfind(want, 0) != 0)
            return false;
        const std::size_t len = std::strtoull(line_.c_str() + want.size(),
                                              nullptr, 10);
        if (!readN(len + 2, data_) || data_.compare(len, 2, "\r\n") != 0)
            return false;
        if (!verifySealed(key, std::string_view(data_).substr(0, len)))
            return false;
        return readLine(line_) && line_ == "END";
    }

  private:
    bool
    fill()
    {
        char tmp[16384];
        const ssize_t n = ::read(fd_, tmp, sizeof tmp);
        if (n <= 0)
            return false;
        buf_.append(tmp, static_cast<std::size_t>(n));
        return true;
    }

    int fd_ = -1;
    std::string buf_;
    std::size_t scan_ = 0;
    std::string line_, data_;
};

// ---------------------------------------------------------------------
// serve_zipf

struct ServeInputs {
    std::vector<WebItem> items; ///< sealed values
    std::uint64_t userBytes = 0;
    struct Req {
        McRequest::Op op;
        std::uint32_t item;
        std::string wire;
        std::string value; ///< set payload (sealed)
    };
    std::vector<Req> reqs;
};

ServeInputs
serveInputs(std::uint64_t seed, std::uint64_t numRequests)
{
    ServeInputs in;
    // The corpus is one fixed working set, the same for every seed:
    // under Zipf popularity a handful of items carry a third of the
    // requests, so a per-seed corpus would make throughput a property
    // of which items happen to be hot. The seed drives the request
    // stream (key draws, op mix, set payload edits). Item sizes keep
    // WebCorpus's web-page range: with them heap work, not loopback
    // wake-ups, dominates a round trip, which keeps the figures steady
    // on a shared host.
    WebCorpus::Params cp;
    cp.seed = 0x5e12e;
    cp.numItems = 2000;
    std::vector<WebItem> raw = WebCorpus::generate(cp);
    McWorkloadParams wp;
    wp.seed = seed ^ 0x5e1f;
    wp.numRequests = numRequests;
    const std::vector<McRequest> reqs = generateMcRequests(raw, wp);
    for (const WebItem &it : raw) {
        in.items.push_back({it.key, sealValue(it.key, it.payload)});
        in.userBytes += it.key.size() + in.items.back().payload.size();
    }
    in.reqs.reserve(reqs.size());
    for (const McRequest &q : reqs) {
        const std::string &key = raw[q.itemIndex].key;
        ServeInputs::Req r{q.op, q.itemIndex, {}, {}};
        switch (q.op) {
          case McRequest::Op::Get:
            r.wire = "get " + key + "\r\n";
            break;
          case McRequest::Op::Delete:
            r.wire = "delete " + key + "\r\n";
            break;
          case McRequest::Op::Set:
            r.value = sealValue(key, q.newValue);
            r.wire = "set " + key + " 0 0 " + std::to_string(r.value.size()) +
                     "\r\n" + r.value + "\r\n";
            break;
        }
        in.reqs.push_back(std::move(r));
    }
    return in;
}

/** One loopback serving stack. Members die in reverse: server first. */
struct ServeEnv {
    explicit ServeEnv(unsigned workers)
        : hc(benchMemoryConfig()), store(hc), srv(store, config(workers))
    {
        srv.start();
    }
    static server::ServerConfig
    config(unsigned workers)
    {
        server::ServerConfig c;
        c.workers = workers;
        c.maxConns = 64;
        return c;
    }
    Hicamp hc;
    server::McStore store;
    server::McServer srv;
};

/** Pipelined preload through the protocol; returns failed sets. */
std::uint64_t
preload(std::uint16_t port, const std::vector<WebItem> &items,
        unsigned clients)
{
    std::vector<std::uint64_t> fails(clients, 0);
    std::vector<std::thread> ts;
    for (unsigned c = 0; c < clients; ++c) {
        ts.emplace_back([&, c] {
            Client cli(port);
            if (!cli.ok()) {
                fails[c] = items.size();
                return;
            }
            constexpr std::size_t kWindow = 32;
            std::string wire, line;
            std::size_t inFlight = 0;
            const auto drain = [&] {
                if (!cli.send(wire))
                    return false;
                wire.clear();
                for (; inFlight > 0; --inFlight) {
                    if (!cli.readLine(line))
                        return false;
                    if (line != "STORED")
                        ++fails[c];
                }
                return true;
            };
            for (std::size_t i = c; i < items.size(); i += clients) {
                wire += "set " + items[i].key + " 0 0 " +
                        std::to_string(items[i].payload.size()) + "\r\n" +
                        items[i].payload + "\r\n";
                if (++inFlight >= kWindow && !drain()) {
                    fails[c] += inFlight;
                    return;
                }
            }
            if (inFlight > 0 && !drain())
                fails[c] += inFlight;
        });
    }
    for (auto &t : ts)
        t.join();
    std::uint64_t n = 0;
    for (auto f : fails)
        n += f;
    return n;
}

/** Requests per pipelined client batch. */
constexpr std::size_t kServeDepth = 8;

} // namespace

Report
runServeZipf(const Options &o, SpanRecorder &rec)
{
    Report r;
    // One connection, so one batch in flight and one worker busy: on
    // a shared 4-vCPU host, two connections (a second batch queued
    // behind the first, four threads busy) spread run-to-run
    // throughput about twice as wide for no gain in what is measured.
    const unsigned clients = 1, workers = 1;
    std::printf("serve_zipf: %u client connection, 1 net thread, %u "
                "worker, %zu requests per batch\n",
                clients, workers, kServeDepth);

    auto t0 = Clock::now();
    const ServeInputs in = serveInputs(o.seed, 150000);
    const double genS = secondsSince(t0);

    // Set-up, repeated on a fresh heap + server each time; setup_s
    // times the preload through the protocol.
    std::unique_ptr<ServeEnv> env;
    std::vector<double> setups;
    HeapCounters preBefore, preAfter;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        env.reset();
        env = std::make_unique<ServeEnv>(workers);
        preBefore = readHeap(env->hc.mem);
        t0 = Clock::now();
        const std::uint64_t f = preload(env->srv.port(), in.items, clients);
        setups.push_back(secondsSince(t0));
        preAfter = readHeap(env->hc.mem);
        r.attempted += in.items.size();
        r.failed += f;
    }
    const double bytesPerUser =
        static_cast<double>(quiescentLiveBytes(env->hc.mem)) /
        static_cast<double>(in.userBytes);

    struct ClientState {
        std::unique_ptr<Client> cli;
        std::size_t cursor;
        SpanBuffer *buf;
        std::uint64_t req = 0;
        std::string capture;
        std::string wire;
    };
    std::vector<ClientState> cs;
    for (unsigned c = 0; c < clients; ++c) {
        cs.push_back({std::make_unique<Client>(env->srv.port()), c,
                      &rec.buffer(), 0, {}, {}});
        if (!cs.back().cli->ok()) {
            std::printf("client %u cannot connect\n", c);
            ++r.failed;
            return r;
        }
    }
    const std::uint32_t nBatch = rec.name("client.batch");
    bool tracing = false;
    constexpr std::size_t kCaptureBytes = 4u << 20;
    // One step is a pipelined batch: kServeDepth requests in one write,
    // then their responses in order; the next batch goes out only
    // after the last response is in. A request's latency runs from the
    // batch's send to its own response.
    const auto step = [&](unsigned c, bool measuring, ThreadStats &st) {
        ClientState &s = cs[c];
        const ServeInputs::Req *batch[kServeDepth];
        std::string &wire = s.wire;
        wire.clear();
        for (auto &q : batch) {
            q = &in.reqs[s.cursor];
            s.cursor = (s.cursor + clients) % in.reqs.size();
            wire += q->wire;
        }
        s.buf->enabled = tracing && measuring;
        st.attempted += kServeDepth;
        std::size_t done = 0;
        {
            ScopedSpan sp(*s.buf, nBatch, ++s.req);
            const auto t = Clock::now();
            if (s.cli->send(wire)) {
                for (; done < kServeDepth; ++done) {
                    const ServeInputs::Req &q = *batch[done];
                    if (!s.cli->response(q.op, in.items[q.item].key))
                        break;
                    if (measuring)
                        st.addLatency(usSince(t));
                }
            }
        }
        if (measuring && tracing && s.capture.size() < kCaptureBytes)
            s.capture += wire;
        st.ops.fetch_add(done, std::memory_order_relaxed);
        st.failed += kServeDepth - done;
        return done == kServeDepth;
    };

    Memory &mem = env->hc.mem;
    const auto limbo = [&] { return mem.store().epochDomain().limboDepth(); };
    // Traced runs: untraced quarter, traced half, untraced quarter.
    const double measureS = o.trace ? o.seconds / 4 : o.seconds;
    Window w = runWindow(clients, warmupFor(o.seconds), measureS, step);
    r.attempted += w.attempted;
    r.failed += w.failed;
    endToEnd(r, w, median(setups), bytesPerUser, genS,
             "request, from its batch's send");

    if (o.trace) {
        tracing = true;
        HeapCounters hb, ha;
        obs::MetricsSnapshot sb, sa;
        std::uint64_t limboMax = 0;
        const Window tw = runWindow(
            clients, 0.2, 2 * measureS, step,
            [&] {
                hb = readHeap(mem);
                sb = env->srv.metrics().snapshot();
            },
            [&] {
                ha = readHeap(mem);
                sa = env->srv.metrics().snapshot();
            },
            [&] { limboMax = std::max<std::uint64_t>(limboMax, limbo()); });
        tracing = false;
        const Window w2 = runWindow(clients, 0.2, measureS, step);
        r.attempted += tw.attempted + w2.attempted;
        r.failed += tw.failed + w2.failed;
        r.set("trace_overhead_pct", traceOverheadPct(w, tw, w2), "%");
        const double ops = static_cast<double>(tw.ops);
        heapLayerMetrics(r, hb, ha, ops, limboMax);
        r.set("mem.dedup_hit_ratio", dedupHitRatio(preBefore, preAfter),
              "ratio");
        r.set("server.backpressure_stalls_per_kop",
              1000.0 *
                  static_cast<double>(
                      sa.counter("server.backpressure.stalls") -
                      sb.counter("server.backpressure.stalls")) /
                  ops,
              "count/kop");
        // Per-request share of a pipelined round trip.
        std::vector<double> rtt;
        for (const Span &s : rec.collect())
            if (s.name == nBatch)
                rtt.push_back(static_cast<double>(s.durationNs()) / 1e3 /
                              kServeDepth);
        std::string wire;
        for (auto &s : cs)
            wire += s.capture;
        cs.clear(); // close the connections; the server goes idle

        // In-process replay of the stream's first commands against the
        // same store, in batches as the clients send them: the McStore
        // share of a round trip.
        SpanBuffer &buf = rec.buffer();
        buf.enabled = true;
        const std::uint32_t sGet = rec.name("store.get"),
                            sSet = rec.name("store.set"),
                            sDel = rec.name("store.delete");
        std::vector<double> storeUs, getUs, setUs, delUs;
        double batchUs = 0.0;
        {
            IteratorRegister it(mem, env->hc.vsm);
            std::uint64_t req = 0;
            for (std::size_t i = 0; i < std::min<std::size_t>(
                                            4000, in.reqs.size());
                 ++i) {
                const ServeInputs::Req &q = in.reqs[i];
                const std::string &key = in.items[q.item].key;
                ++r.attempted;
                const auto t = Clock::now();
                bool ok = true;
                if (q.op == McRequest::Op::Get) {
                    ScopedSpan sp(buf, sGet, ++req);
                    const auto v = env->store.get(it, key);
                    ok = !v || (v->flags == 0 && verifySealed(key, v->data));
                } else if (q.op == McRequest::Op::Set) {
                    ScopedSpan sp(buf, sSet, ++req);
                    env->store.set(key, 0, q.value);
                } else {
                    ScopedSpan sp(buf, sDel, ++req);
                    env->store.erase(key);
                }
                const double us = usSince(t);
                batchUs += us;
                if ((i + 1) % kServeDepth == 0) {
                    storeUs.push_back(batchUs / kServeDepth);
                    batchUs = 0.0;
                }
                (q.op == McRequest::Op::Get   ? getUs
                 : q.op == McRequest::Op::Set ? setUs
                                              : delUs)
                    .push_back(us);
                if (!ok)
                    ++r.failed;
            }
        }
        buf.enabled = false;
        r.set("server.rtt_self_us", median(rtt) - median(storeUs), "us");
        r.set("store.get_us", median(getUs), "us");
        r.set("store.set_us", median(setUs), "us");
        r.set("store.delete_us", median(delUs), "us");

        // Parser over the window's captured wire bytes.
        std::vector<double> perCmd;
        for (int rep = 0; rep < 5; ++rep) {
            server::ProtoParser parser;
            std::size_t off = 0, cmds = 0;
            const auto t = Clock::now();
            for (;;) {
                server::McCommand cmd;
                std::size_t used = 0;
                if (parser.step(std::string_view(wire).substr(off), used,
                                cmd) != server::ParseResult::Ok)
                    break;
                off += used;
                ++cmds;
            }
            perCmd.push_back(1e3 * usSince(t) /
                             static_cast<double>(std::max<std::size_t>(1,
                                                                       cmds)));
            if (off != wire.size())
                ++r.failed; // captured bytes must parse completely
        }
        r.set("server.proto.ns_per_cmd", median(perCmd), "ns/cmd");

        // Ring handoff: push + pop pairs on the request-ring type.
        std::vector<double> perHandoff;
        for (int rep = 0; rep < 5; ++rep) {
            server::MpmcRing<std::uint64_t> ring(256);
            constexpr std::uint64_t kN = 1u << 20;
            std::uint64_t sum = 0, v = 0;
            const auto t = Clock::now();
            for (std::uint64_t i = 0; i < kN; ++i) {
                std::uint64_t x = i;
                if (!ring.tryPush(std::move(x)) || !ring.tryPop(v))
                    ++r.failed;
                sum += v;
            }
            perHandoff.push_back(1e3 * usSince(t) / kN);
            if (sum != kN * (kN - 1) / 2)
                ++r.failed;
        }
        r.set("server.ring.ns_per_handoff", median(perHandoff), "ns");

        std::vector<std::string> values, keys;
        for (std::size_t i = 0; i < in.items.size() && values.size() < 256;
             i += 7)
            values.push_back(in.items[i].payload);
        for (std::size_t i = 0; i < in.items.size() && keys.size() < 1024;
             i += 3)
            keys.push_back(in.items[i].key);
        probeLayers(r, env->hc, rec, values, keys);
        zero(r, kSpmvMetrics);
    }
    cs.clear();
    env->srv.stop();
    audit(r, env->hc, "serve_zipf");
    return r;
}

// ---------------------------------------------------------------------
// heap_churn

namespace {

constexpr std::size_t kChurnKeys = 256; ///< keys per thread partition
constexpr double kSetFrac = 0.50, kDeleteFrac = 0.15; // rest: gets

/** A fresh value: 64..1024 random bytes, so sets miss the dedup table. */
std::string
freshValue(Rng &rng)
{
    std::string v(64 + rng.below(961), '\0');
    for (std::size_t i = 0; i < v.size(); i += 8) {
        const std::uint64_t w = rng.next();
        std::memcpy(v.data() + i, &w, std::min<std::size_t>(8, v.size() - i));
    }
    return v;
}

/** One thread's partition, its shadow map and its input stream. */
struct ChurnThread {
    ChurnThread(std::uint64_t seed, unsigned t) : rng(seed * 1000003 + t)
    {
        for (std::size_t j = 0; j < kChurnKeys; ++j) {
            keys.push_back("t" + std::to_string(t) + ":k" +
                           std::to_string(j));
            prefill.push_back(freshValue(rng));
        }
    }
    std::vector<std::string> keys;
    std::vector<std::string> prefill;
    std::vector<std::optional<std::string>> shadow;
    Rng rng;
    std::unique_ptr<IteratorRegister> it;
    SpanBuffer *buf = nullptr;
    std::uint64_t req = 0;
};

struct ChurnSpans {
    std::uint32_t op, set, del, get;
};

/**
 * One operation of the mix on @p ct's partition, checked against its
 * shadow map. Returns false on an oracle mismatch; @p latUs receives
 * the store call's time.
 */
bool
churnOp(server::McStore &store, ChurnThread &ct, const ChurnSpans &sp,
        double &latUs)
{
    const std::size_t j = ct.rng.below(kChurnKeys);
    const double roll = ct.rng.uniform();
    const std::string &key = ct.keys[j];
    std::optional<std::string> &want = ct.shadow[j];
    ScopedSpan op(*ct.buf, sp.op, ++ct.req);
    if (roll < kSetFrac) {
        std::string v = freshValue(ct.rng);
        const auto t = Clock::now();
        {
            ScopedSpan s(*ct.buf, sp.set, ct.req);
            store.set(key, 0, v);
        }
        latUs = usSince(t);
        want = std::move(v);
        return true;
    }
    if (roll < kSetFrac + kDeleteFrac) {
        const auto t = Clock::now();
        bool had;
        {
            ScopedSpan s(*ct.buf, sp.del, ct.req);
            had = store.erase(key);
        }
        latUs = usSince(t);
        const bool ok = had == want.has_value();
        want.reset();
        return ok;
    }
    const auto t = Clock::now();
    std::optional<server::McValue> got;
    {
        ScopedSpan s(*ct.buf, sp.get, ct.req);
        got = store.get(*ct.it, key);
    }
    latUs = usSince(t);
    return got.has_value() == want.has_value() &&
           (!got || (got->flags == 0 && got->data == *want));
}

/** Prefill @p ct's partition (the set-up) and reset its shadow. */
void
churnPrefill(server::McStore &store, ChurnThread &ct)
{
    ct.shadow.assign(kChurnKeys, std::nullopt);
    for (std::size_t j = 0; j < kChurnKeys; ++j) {
        store.set(ct.keys[j], 0, ct.prefill[j]);
        ct.shadow[j] = ct.prefill[j];
    }
}

/** Final oracle: the store's view of each partition equals its shadow. */
std::uint64_t
churnVerify(server::McStore &store, Hicamp &hc,
            std::vector<std::unique_ptr<ChurnThread>> &cts)
{
    std::uint64_t bad = 0;
    IteratorRegister it(hc.mem, hc.vsm);
    for (auto &ct : cts) {
        for (std::size_t j = 0; j < kChurnKeys; ++j) {
            const auto got = store.get(it, ct->keys[j]);
            const auto &want = ct->shadow[j];
            if (got.has_value() != want.has_value() ||
                (got && got->data != *want))
                ++bad;
        }
    }
    return bad;
}

std::uint64_t
churnUserBytes(const std::vector<std::unique_ptr<ChurnThread>> &cts)
{
    std::uint64_t n = 0;
    for (const auto &ct : cts)
        for (std::size_t j = 0; j < kChurnKeys; ++j)
            n += ct->keys[j].size() + ct->prefill[j].size();
    return n;
}

} // namespace

Report
runHeapChurn(const Options &o, SpanRecorder &rec)
{
    Report r;
    const unsigned threads = o.nproc;
    std::printf("heap_churn: %u threads x %zu keys, %.0f%% set / %.0f%% "
                "delete / %.0f%% get\n",
                threads, kChurnKeys, 100 * kSetFrac, 100 * kDeleteFrac,
                100 * (1 - kSetFrac - kDeleteFrac));
    auto t0 = Clock::now();
    std::vector<std::unique_ptr<ChurnThread>> cts;
    for (unsigned t = 0; t < threads; ++t)
        cts.push_back(std::make_unique<ChurnThread>(o.seed, t));
    const double genS = secondsSince(t0);

    std::unique_ptr<Hicamp> hc;
    std::unique_ptr<server::McStore> store;
    std::vector<double> setups;
    HeapCounters preBefore, preAfter;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        store.reset();
        hc.reset();
        hc = std::make_unique<Hicamp>(benchMemoryConfig());
        store = std::make_unique<server::McStore>(*hc);
        preBefore = readHeap(hc->mem);
        t0 = Clock::now();
        std::vector<std::thread> ts;
        for (auto &ct : cts)
            ts.emplace_back([&, p = ct.get()] { churnPrefill(*store, *p); });
        for (auto &t : ts)
            t.join();
        setups.push_back(secondsSince(t0));
        preAfter = readHeap(hc->mem);
        r.attempted += threads * kChurnKeys;
    }
    const double bytesPerUser =
        static_cast<double>(quiescentLiveBytes(hc->mem)) /
        static_cast<double>(churnUserBytes(cts));
    for (auto &ct : cts) {
        ct->it = std::make_unique<IteratorRegister>(hc->mem, hc->vsm);
        ct->buf = &rec.buffer();
    }

    const ChurnSpans sp{rec.name("churn.op"), rec.name("store.set"),
                        rec.name("store.delete"), rec.name("store.get")};
    bool tracing = false;
    const auto step = [&](unsigned t, bool measuring, ThreadStats &st) {
        ChurnThread &ct = *cts[t];
        ct.buf->enabled = tracing && measuring;
        double us = 0.0;
        ++st.attempted;
        if (!churnOp(*store, ct, sp, us))
            ++st.failed;
        if (measuring)
            st.addLatency(us);
        st.ops.fetch_add(1, std::memory_order_relaxed);
        return true;
    };

    Memory &mem = hc->mem;
    // Traced runs: untraced quarter, traced half, untraced quarter.
    const double measureS = o.trace ? o.seconds / 4 : o.seconds;
    Window w = runWindow(threads, warmupFor(o.seconds), measureS, step);
    r.attempted += w.attempted;
    r.failed += w.failed;
    endToEnd(r, w, median(setups), bytesPerUser, genS, "McStore call");

    if (o.trace) {
        tracing = true;
        HeapCounters hb, ha;
        std::uint64_t limboMax = 0;
        const Window tw = runWindow(
            threads, 0.2, 2 * measureS, step, [&] { hb = readHeap(mem); },
            [&] { ha = readHeap(mem); },
            [&] {
                limboMax = std::max<std::uint64_t>(
                    limboMax, mem.store().epochDomain().limboDepth());
            });
        tracing = false;
        const Window w2 = runWindow(threads, 0.2, measureS, step);
        r.attempted += tw.attempted + w2.attempted;
        r.failed += tw.failed + w2.failed;
        r.set("trace_overhead_pct", traceOverheadPct(w, tw, w2), "%");
        heapLayerMetrics(r, hb, ha, static_cast<double>(tw.ops), limboMax);
        r.set("mem.dedup_hit_ratio", dedupHitRatio(preBefore, preAfter),
              "ratio");
        const std::vector<Span> spans = rec.collect();
        r.set("store.get_us", spanMedianNs(rec, spans, "store.get") / 1e3,
              "us");
        r.set("store.set_us", spanMedianNs(rec, spans, "store.set") / 1e3,
              "us");
        r.set("store.delete_us",
              spanMedianNs(rec, spans, "store.delete") / 1e3, "us");
        const auto sum = summarize(rec, spans);
        if (sum.count("churn.op"))
            std::printf("harness self time per op: %.0f ns (median)\n",
                        sum.at("churn.op").medianSelfNs);

        Rng vr(o.seed ^ 0xc0ffee);
        std::vector<std::string> values, keys;
        for (int i = 0; i < 256; ++i)
            values.push_back(freshValue(vr));
        for (auto &ct : cts)
            for (std::size_t j = 0; j < kChurnKeys; j += 2)
                keys.push_back(ct->keys[j]);
        probeLayers(r, *hc, rec, values, keys);
        zero(r, kServerMetrics);
        zero(r, kSpmvMetrics);
    }
    for (auto &ct : cts)
        ct->it.reset();
    const std::uint64_t bad = churnVerify(*store, *hc, cts);
    std::printf("partition check: %llu mismatches over %zu keys\n",
                static_cast<unsigned long long>(bad),
                static_cast<std::size_t>(threads * kChurnKeys));
    r.attempted += threads * kChurnKeys;
    r.failed += bad;
    audit(r, *hc, "heap_churn");
    return r;
}

// ---------------------------------------------------------------------
// spmv_read

namespace {

/**
 * Stencil classes (heavy dedup) and random classes (little dedup),
 * each near 1.3k non-zeros so every spmv() call costs about the same
 * and the per-call latency distribution has no wide gaps.
 */
std::vector<SparseMatrix>
spmvSubset(std::uint64_t seed)
{
    using C = MatrixGen::Coef;
    std::vector<SparseMatrix> ms;
    ms.push_back(MatrixGen::fem2d(16, C::Constant, true, seed, "fem2d"));
    ms.push_back(MatrixGen::fem3d(6, C::FewValues, true, seed + 1, "fem3d"));
    ms.push_back(MatrixGen::banded(256, {-8, -1, 0, 1, 8}, C::Smooth, false,
                                   seed + 2, "banded"));
    ms.push_back(MatrixGen::randomSparse(256, 256, 1280, seed + 3, "random"));
    ms.push_back(MatrixGen::circuit(256, 4.0, seed + 4, "circuit"));
    return ms;
}

struct SpmvInputs {
    std::vector<SparseMatrix> ms;
    std::vector<std::vector<double>> x, ref;
    std::uint64_t userBytes = 0;
};

SpmvInputs
spmvInputs(std::uint64_t seed)
{
    SpmvInputs in;
    in.ms = spmvSubset(seed);
    Rng rng(seed ^ 0x5badull);
    for (const SparseMatrix &m : in.ms) {
        std::vector<double> x(m.cols());
        for (double &v : x)
            v = 2.0 * rng.uniform() - 1.0;
        in.ref.push_back(m.multiply(x));
        in.x.push_back(std::move(x));
        in.userBytes += m.convBytes();
    }
    return in;
}

/** |y - ref| <= 1e-9 relative on every row (scale floor 1). */
bool
matches(const std::vector<double> &y, const std::vector<double> &ref)
{
    if (y.size() < ref.size())
        return false;
    for (std::size_t i = 0; i < ref.size(); ++i)
        if (!(std::fabs(y[i] - ref[i]) <=
              1e-9 * std::max(1.0, std::fabs(ref[i]))))
            return false;
    return true;
}

/** One thread's own matrix objects (copies dedup to shared lines). */
struct SpmvCopy {
    std::vector<std::unique_ptr<QtsMatrix>> qts;
    std::vector<std::unique_ptr<NzdMatrix>> nzd;
    std::size_t cursor = 0;
    SpanBuffer *buf = nullptr;
    std::uint64_t req = 0;
};

std::unique_ptr<SpmvCopy>
buildCopy(Memory &mem, const SpmvInputs &in)
{
    auto c = std::make_unique<SpmvCopy>();
    for (const SparseMatrix &m : in.ms) {
        c->qts.push_back(std::make_unique<QtsMatrix>(mem, m));
        c->nzd.push_back(std::make_unique<NzdMatrix>(mem, m));
    }
    return c;
}

/** Call number @p k of a copy's cycle: matrix k/2, QTS or NZD. */
std::vector<double>
spmvCall(const SpmvCopy &c, const SpmvInputs &in, std::size_t k)
{
    const std::size_t i = k / 2;
    return k % 2 == 0 ? c.qts[i]->spmv(in.x[i]) : c.nzd[i]->spmv(in.x[i]);
}

} // namespace

Report
runSpmvRead(const Options &o, SpanRecorder &rec)
{
    Report r;
    const unsigned threads = o.nproc;
    auto t0 = Clock::now();
    const SpmvInputs in = spmvInputs(o.seed);
    const double genS = secondsSince(t0);
    std::uint64_t nnz = 0;
    for (const auto &m : in.ms)
        nnz += m.nnz();
    std::printf("spmv_read: %u threads, %zu matrices (%llu nnz) as QTS + "
                "NZD\n",
                threads, in.ms.size(), static_cast<unsigned long long>(nnz));

    std::unique_ptr<Hicamp> hc;
    std::vector<std::unique_ptr<SpmvCopy>> copies;
    std::vector<double> setups, builds;
    HeapCounters preBefore, preAfter;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        copies.clear();
        hc.reset();
        hc = std::make_unique<Hicamp>(benchMemoryConfig());
        preBefore = readHeap(hc->mem);
        // Each thread builds its own copy, concurrently.
        copies.resize(threads);
        std::vector<double> ms(threads);
        t0 = Clock::now();
        std::vector<std::thread> ts;
        for (unsigned t = 0; t < threads; ++t) {
            ts.emplace_back([&, t] {
                const auto tb = Clock::now();
                copies[t] = buildCopy(hc->mem, in);
                ms[t] = 1e3 * secondsSince(tb);
            });
        }
        for (auto &th : ts)
            th.join();
        setups.push_back(secondsSince(t0));
        builds.insert(builds.end(), ms.begin(), ms.end());
        preAfter = readHeap(hc->mem);
    }
    Memory &mem = hc->mem;
    const std::uint64_t live = quiescentLiveBytes(mem);
    std::printf("compacted footprint %llu bytes for %llu CSR bytes "
                "(simulated L2 %llu bytes)\n",
                static_cast<unsigned long long>(live),
                static_cast<unsigned long long>(in.userBytes),
                static_cast<unsigned long long>(benchMemoryConfig().l2Bytes));
    for (auto &c : copies)
        c->buf = &rec.buffer();

    const std::uint32_t nCall = rec.name("spmv.call");
    const std::size_t cycle = 2 * in.ms.size();
    bool tracing = false;
    const auto step = [&](unsigned t, bool measuring, ThreadStats &st) {
        SpmvCopy &c = *copies[t];
        const std::size_t k = c.cursor;
        c.cursor = (c.cursor + 1) % cycle;
        c.buf->enabled = tracing && measuring;
        ++st.attempted;
        const auto tc = Clock::now();
        std::vector<double> y;
        {
            ScopedSpan s(*c.buf, nCall, ++c.req);
            y = spmvCall(c, in, k);
        }
        if (measuring)
            st.addLatency(usSince(tc));
        if (!matches(y, in.ref[k / 2]))
            ++st.failed;
        st.ops.fetch_add(in.ms[k / 2].nnz(), std::memory_order_relaxed);
        return true;
    };

    // Traced runs: untraced quarter, traced half, untraced quarter.
    const double measureS = o.trace ? o.seconds / 4 : o.seconds;
    Window w = runWindow(threads, warmupFor(o.seconds), measureS, step);
    r.attempted += w.attempted;
    r.failed += w.failed;
    endToEnd(r, w, median(setups),
             static_cast<double>(live) / static_cast<double>(in.userBytes),
             genS, "spmv() call");

    if (o.trace) {
        tracing = true;
        HeapCounters hb, ha;
        std::uint64_t limboMax = 0;
        const Window tw = runWindow(
            threads, 0.2, 2 * measureS, step, [&] { hb = readHeap(mem); },
            [&] { ha = readHeap(mem); },
            [&] {
                limboMax = std::max<std::uint64_t>(
                    limboMax, mem.store().epochDomain().limboDepth());
            });
        tracing = false;
        const Window w2 = runWindow(threads, 0.2, measureS, step);
        r.attempted += tw.attempted + w2.attempted;
        r.failed += tw.failed + w2.failed;
        r.set("trace_overhead_pct", traceOverheadPct(w, tw, w2), "%");
        const double ops = static_cast<double>(tw.ops);
        heapLayerMetrics(r, hb, ha, ops, limboMax);
        r.set("mem.dedup_hit_ratio", dedupHitRatio(preBefore, preAfter),
              "ratio");
        r.set("spmv.build_ms", median(builds), "ms");
        r.set("spmv.call_ms",
              spanMedianNs(rec, rec.collect(), "spmv.call") / 1e6, "ms");
        r.set("spmv.reads_per_nnz",
              static_cast<double>(ha.snap.counter("ops.reads") -
                                  hb.snap.counter("ops.reads")) /
                  std::max(1.0, ops),
              "count/nnz");

        // Probe values: up to 8 runs of 256 non-zero values per
        // matrix, as bytes.
        std::vector<std::string> values;
        for (const SparseMatrix &m : in.ms) {
            const auto &el = m.elems();
            for (std::size_t off = 0; off < el.size() && off < 8 * 256;
                 off += 256) {
                std::string v;
                for (std::size_t e = off; e < std::min(off + 256, el.size());
                     ++e)
                    v.append(reinterpret_cast<const char *>(&el[e].v),
                             sizeof el[e].v);
                values.push_back(std::move(v));
            }
        }
        probeLayers(r, *hc, rec, values, {});
        zero(r, kServerMetrics);
        zero(r, kStoreMetrics);
    }
    copies.clear();
    audit(r, *hc, "spmv_read");
    return r;
}

// ---------------------------------------------------------------------
// Deterministic model check

Report
modelCheck(const std::string &workload, std::uint64_t seed)
{
    Report r;
    constexpr std::uint64_t kOps = 20000;
    Hicamp hc(benchMemoryConfig());
    HeapCounters b, a;
    double bytesPerUser = 0.0;
    double ops = 0.0;
    if (workload == "serve_zipf") {
        const ServeInputs in = serveInputs(seed, kOps);
        server::McStore store(hc);
        for (const WebItem &it : in.items)
            store.set(it.key, 0, it.payload);
        r.attempted += in.items.size();
        bytesPerUser = static_cast<double>(quiescentLiveBytes(hc.mem)) /
                       static_cast<double>(in.userBytes);
        IteratorRegister it(hc.mem, hc.vsm);
        b = readHeap(hc.mem);
        for (const auto &q : in.reqs) {
            const std::string &key = in.items[q.item].key;
            ++r.attempted;
            if (q.op == McRequest::Op::Get) {
                const auto v = store.get(it, key);
                if (v && !verifySealed(key, v->data))
                    ++r.failed;
            } else if (q.op == McRequest::Op::Set) {
                store.set(key, 0, q.value);
            } else {
                store.erase(key);
            }
        }
        a = readHeap(hc.mem);
        ops = static_cast<double>(in.reqs.size());
    } else if (workload == "heap_churn") {
        server::McStore store(hc);
        std::vector<std::unique_ptr<ChurnThread>> cts;
        cts.push_back(std::make_unique<ChurnThread>(seed, 0));
        ChurnThread &ct = *cts[0];
        SpanRecorder idle;
        ct.buf = &idle.buffer();
        ct.it = std::make_unique<IteratorRegister>(hc.mem, hc.vsm);
        churnPrefill(store, ct);
        r.attempted += kChurnKeys;
        bytesPerUser = static_cast<double>(quiescentLiveBytes(hc.mem)) /
                       static_cast<double>(churnUserBytes(cts));
        const ChurnSpans sp{0, 0, 0, 0};
        b = readHeap(hc.mem);
        for (std::uint64_t i = 0; i < kOps; ++i) {
            double us = 0.0;
            ++r.attempted;
            if (!churnOp(store, ct, sp, us))
                ++r.failed;
        }
        a = readHeap(hc.mem);
        ct.it.reset();
        r.failed += churnVerify(store, hc, cts);
        ops = static_cast<double>(kOps);
    } else {
        const SpmvInputs in = spmvInputs(seed);
        auto copy = buildCopy(hc.mem, in);
        bytesPerUser = static_cast<double>(quiescentLiveBytes(hc.mem)) /
                       static_cast<double>(in.userBytes);
        b = readHeap(hc.mem);
        for (int pass = 0; pass < 3; ++pass) {
            for (std::size_t k = 0; k < 2 * in.ms.size(); ++k) {
                ++r.attempted;
                if (!matches(spmvCall(*copy, in, k), in.ref[k / 2]))
                    ++r.failed;
                ops += static_cast<double>(in.ms[k / 2].nnz());
            }
        }
        a = readHeap(hc.mem);
    }
    modelCounters(r, b, a, ops);
    for (const char *c :
         {"cache.l1.hits", "cache.l1.misses", "cache.l2.hits",
          "cache.l2.misses", "dram.read", "dram.write", "dram.lookup",
          "dram.dealloc", "dram.refcount", "row_activations"})
        r.set(std::string("model.count.") + c,
              static_cast<double>(a.snap.counter(c) - b.snap.counter(c)),
              "count");
    r.set("bytes_per_user_byte", bytesPerUser, "ratio");
    r.set("model.ops", ops, "count");
    return r;
}

} // namespace perfbench
