/**
 * @file
 * Wall-clock benchmark driver: runs one workload against the library
 * from outside, checks its outputs against oracles, and prints every
 * metric with its unit. The last stdout line is one JSON object:
 *
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 *
 * Without --trace the metrics are the end-to-end ones (wall time,
 * latency percentiles, set-up time, compaction, memory). With --trace
 * the window is an untraced quarter, a traced half and an untraced
 * quarter; the traced half records spans around every call the
 * benchmark makes into a layer and heap-counter deltas at the same
 * boundaries, and the metrics are the per-layer ones. Spans are written at exit as a
 * Chrome trace into --out-dir.
 *
 * --model-check runs the single-threaded fixed-size pass of the
 * workload instead and prints only modeled counters and
 * bytes_per_user_byte, which must repeat exactly run to run.
 *
 * Usage: perfbench --workload serve_zipf|heap_churn|spmv_read
 *                  [--seed N] [--seconds S] [--trace 0|1]
 *                  [--out-dir DIR] [--commit ID] [--model-check]
 * Exit status: 0 clean, 1 oracle mismatch or unclean audit, 2 bad
 * arguments.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_set>

#include "bench.hh"

using namespace hicamp;

namespace perfbench {

void
Report::set(const std::string &name, double value, const std::string &unit)
{
    for (auto &m : metrics) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    metrics.push_back({name, value, unit});
}

MemoryConfig
benchMemoryConfig()
{
    MemoryConfig m;
    m.numBuckets = 1 << 16;
    m.lockStripes = 16;
    // A 256 KiB simulated LLC: the serving corpus is several times
    // larger, the SpMV subset's compacted footprint fits inside.
    m.l2Bytes = 256 * 1024;
    m.faults.allowEnvOverride = false;
    return m;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

double
warmupFor(double seconds)
{
    return std::min(1.0, 0.1 * seconds);
}

Window
runWindow(unsigned threads, double warmupS, double measureS,
          const std::function<bool(unsigned, bool, ThreadStats &)> &step,
          const std::function<void()> &onStart,
          const std::function<void()> &onEnd,
          const std::function<void()> &onSlice)
{
    using Clock = std::chrono::steady_clock;
    enum : int { kWarm, kMeasure, kStop };
    std::atomic<int> phase{kWarm};
    std::atomic<std::uint32_t> latSlice{ThreadStats::kNoSlice};
    std::vector<ThreadStats> stats(threads);
    for (auto &s : stats)
        s.slice = &latSlice;
    std::vector<std::thread> ts;
    ts.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        ts.emplace_back([&, t] {
            try {
                for (;;) {
                    const int ph = phase.load(std::memory_order_relaxed);
                    if (ph == kStop || !step(t, ph == kMeasure, stats[t]))
                        break;
                }
            } catch (const std::exception &e) {
                // An operation threw (e.g. MemPressureError): count it
                // and retire this worker; the run reports it failed.
                std::fprintf(stderr, "worker %u: %s\n", t, e.what());
                ++stats[t].attempted;
                ++stats[t].failed;
            }
        });
    }
    const auto opsNow = [&] {
        std::uint64_t n = 0;
        for (const auto &s : stats)
            n += s.ops.load(std::memory_order_relaxed);
        return n;
    };

    std::this_thread::sleep_for(std::chrono::duration<double>(warmupS));
    phase.store(kMeasure, std::memory_order_relaxed);
    if (onStart)
        onStart();
    const auto t0 = Clock::now();
    const std::uint64_t ops0 = opsNow();
    constexpr double kSliceS = 0.2;
    const auto slices = static_cast<std::size_t>(
        std::max(1.0, std::floor(measureS / kSliceS)));
    latSlice.store(0, std::memory_order_relaxed);
    std::vector<double> rates;
    auto prevT = t0;
    std::uint64_t prevOps = ops0;
    for (std::size_t i = 1; i <= slices; ++i) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(kSliceS * i)));
        const auto now = Clock::now();
        const std::uint64_t ops = opsNow();
        const double dt = std::chrono::duration<double>(now - prevT).count();
        rates.push_back(static_cast<double>(ops - prevOps) / dt);
        prevT = now;
        prevOps = ops;
        latSlice.store(i < slices ? static_cast<std::uint32_t>(i)
                                  : ThreadStats::kNoSlice,
                       std::memory_order_relaxed);
        if (onSlice)
            onSlice();
    }
    if (onEnd)
        onEnd();
    Window w;
    w.wallS = secondsSince(t0);
    w.ops = opsNow() - ops0;
    phase.store(kStop, std::memory_order_relaxed);
    for (auto &th : ts)
        th.join();
    w.opsPerS = median(rates);
    w.sliceRates = std::move(rates);
    std::vector<Samples> bySlice(slices);
    for (auto &s : stats) {
        for (std::size_t i = 0; i < s.latBySlice.size(); ++i) {
            bySlice[i].append(s.latBySlice[i]);
            w.latUs.append(s.latBySlice[i]);
        }
        w.attempted += s.attempted;
        w.failed += s.failed;
    }
    const SlicedPercentiles sp = slicedPercentiles(bySlice, kMinSliceSamples);
    w.p50Us = sp.p50;
    w.p99Us = sp.p99;
    w.latSlices = sp.groups;
    return w;
}

double
traceOverheadPct(const Window &before, const Window &traced,
                 const Window &after)
{
    std::vector<double> rates = before.sliceRates;
    rates.insert(rates.end(), after.sliceRates.begin(),
                 after.sliceRates.end());
    const double untraced = median(rates);
    return untraced > 0.0 ? 100.0 * (untraced - traced.opsPerS) / untraced
                          : 0.0;
}

HeapCounters
readHeap(Memory &mem)
{
    HeapCounters h;
    h.snap = mem.metrics().snapshot();
    h.lockOps = mem.store().stripeLockExclusiveOps() +
                mem.store().stripeLockSharedOps();
    return h;
}

namespace {

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
counterDelta(const HeapCounters &b, const HeapCounters &a,
             std::string_view name)
{
    return static_cast<double>(a.snap.counter(name) - b.snap.counter(name));
}

double
gaugeDelta(const HeapCounters &b, const HeapCounters &a,
           std::string_view name)
{
    return static_cast<double>(a.snap.gauge(name) - b.snap.gauge(name));
}

/** Median of a registry Log2Histogram difference, as the midpoint of
 *  the power-of-two bucket holding it (the registry's resolution). */
double
log2HistMedian(const HeapCounters &b, const HeapCounters &a,
               std::string_view name)
{
    const auto find = [&](const obs::MetricsSnapshot &s)
        -> const obs::HistogramSnapshot * {
        for (const auto &[n, h] : s.histograms)
            if (n == name)
                return &h;
        return nullptr;
    };
    const obs::HistogramSnapshot *ha = find(a.snap), *hb = find(b.snap);
    if (!ha)
        return 0.0;
    std::vector<std::uint64_t> d = ha->buckets;
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < d.size(); ++i) {
        if (hb && i < hb->buckets.size())
            d[i] -= std::min(d[i], hb->buckets[i]);
        total += d[i];
    }
    if (total == 0)
        return 0.0;
    std::uint64_t cum = 0;
    for (unsigned i = 0; i < d.size(); ++i) {
        cum += d[i];
        if (2 * cum >= total)
            return (static_cast<double>(obs::Log2Histogram::bucketLo(i)) +
                    static_cast<double>(obs::Log2Histogram::bucketHi(i))) /
                   2.0;
    }
    return 0.0;
}

} // namespace

void
modelCounters(Report &r, const HeapCounters &b, const HeapCounters &a,
              double ops)
{
    const double l1h = counterDelta(b, a, "cache.l1.hits");
    const double l1m = counterDelta(b, a, "cache.l1.misses");
    const double l2h = counterDelta(b, a, "cache.l2.hits");
    const double l2m = counterDelta(b, a, "cache.l2.misses");
    double dram = 0.0;
    for (const char *c : {"dram.read", "dram.write", "dram.lookup",
                          "dram.dealloc", "dram.refcount"})
        dram += counterDelta(b, a, c);
    r.set("model.l1_hit_ratio", ratio(l1h, l1h + l1m), "ratio");
    r.set("model.l2_hit_ratio", ratio(l2h, l2h + l2m), "ratio");
    r.set("model.dram_accesses_per_op", ratio(dram, ops), "count/op");
    r.set("model.row_acts_per_op",
          ratio(counterDelta(b, a, "row_activations"), ops), "count/op");
}

void
heapLayerMetrics(Report &r, const HeapCounters &b, const HeapCounters &a,
                 double ops, std::uint64_t limboMax)
{
    const double lookups = counterDelta(b, a, "ops.lookups");
    r.set("mem.lookups_per_op", ratio(lookups, ops), "count/op");
    r.set("mem.reads_per_op", ratio(counterDelta(b, a, "ops.reads"), ops),
          "count/op");
    r.set("mem.overflow_walks_per_lookup",
          ratio(counterDelta(b, a, "lookup.overflow_walks"), lookups),
          "ratio");
    r.set("mem.stripe_lock_ops_per_op",
          ratio(static_cast<double>(a.lockOps - b.lockOps), ops),
          "count/op");
    r.set("epoch.limbo_depth_max", static_cast<double>(limboMax), "lines");
    r.set("epoch.advances_per_kop",
          ratio(1000.0 * gaugeDelta(b, a, "epoch.advances"), ops),
          "count/kop");
    r.set("epoch.grace_ns_p50", log2HistMedian(b, a, "epoch.grace_ns"),
          "ns");
    const double commits = counterDelta(b, a, "vsm.commits");
    r.set("vsm.commit_fail_ratio",
          ratio(counterDelta(b, a, "vsm.merge_failures"), commits), "ratio");
    r.set("contention.retries_per_commit",
          ratio(counterDelta(b, a, "contention.retries"), commits),
          "count/commit");
    modelCounters(r, b, a, ops);
}

double
dedupHitRatio(const HeapCounters &b, const HeapCounters &a)
{
    return ratio(counterDelta(b, a, "lookup.dedup_hits"),
                 counterDelta(b, a, "ops.lookups"));
}

std::uint64_t
quiescentLiveBytes(Memory &mem)
{
    mem.store().epochSynchronize();
    return mem.liveBytes();
}

double
spanMedianNs(const SpanRecorder &rec, const std::vector<Span> &spans,
             const std::string &name)
{
    std::vector<double> d;
    for (const Span &s : spans)
        if (rec.names()[s.name] == name)
            d.push_back(static_cast<double>(s.durationNs()));
    return median(d);
}

void
probeLayers(Report &r, Hicamp &hc, SpanRecorder &rec,
            const std::vector<std::string> &values,
            const std::vector<std::string> &keys)
{
    Memory &mem = hc.mem;
    SpanBuffer &buf = rec.buffer();
    buf.enabled = true;
    const std::uint32_t nBuild = rec.name("seg.build");
    const std::uint32_t nMat = rec.name("seg.materialize");
    const std::uint32_t nHit = rec.name("mem.lookup_hit");
    const std::uint32_t nMiss = rec.name("mem.lookup_miss");
    const std::uint32_t nRead = rec.name("mem.readline");
    const std::uint32_t nKey = rec.name("lang.key_intern");
    const std::uint32_t nSnap = rec.name("vsm.snapshot");
    const std::size_t first = buf.spans().size();

    // seg: build each value, materialize it back, count its lines.
    double buildNs = 0.0, buildKb = 0.0, matNs = 0.0, matLines = 0.0;
    std::uint64_t req = 0;
    for (const std::string &v : values) {
        ++req;
        SegDesc d;
        std::int64_t t0 = rec.nowNs();
        {
            ScopedSpan s(buf, nBuild, req);
            d = SegBuilder(mem, /*model_staging=*/true)
                    .buildBytes(v.data(), v.size());
        }
        buildNs += static_cast<double>(rec.nowNs() - t0);
        buildKb += static_cast<double>(v.size()) / 1024.0;
        std::vector<Word> w;
        std::vector<WordMeta> m;
        t0 = rec.nowNs();
        {
            ScopedSpan s(buf, nMat, req);
            SegReader(mem).materialize(d.root, d.height, w, m);
        }
        matNs += static_cast<double>(rec.nowNs() - t0);
        std::unordered_set<Plid> seen;
        matLines += static_cast<double>(
            SegReader(mem, false).countLines(d.root, d.height, seen));
        SegBuilder(mem).releaseSeg(d);
    }
    r.set("seg.build_ns_per_kb", ratio(buildNs, buildKb), "ns/KiB");
    r.set("seg.materialize_ns_per_line", ratio(matNs, matLines), "ns/line");

    // mem: the values' lines. A first lookup interns (hit or miss); a
    // second of the same content is a guaranteed dedup hit; a line
    // carrying a never-seen nonce is a guaranteed miss.
    std::vector<Plid> held;
    std::uint64_t nonce = 0x9e3779b97f4a7c15ull;
    for (const std::string &v : values) {
        const std::size_t lb = mem.lineBytes();
        for (std::size_t off = 0; off < v.size() && held.size() < 4096;
             off += lb) {
            Line line = mem.makeLine();
            for (unsigned i = 0; i < line.size(); ++i) {
                Word word = 0;
                const std::size_t at = off + i * kWordBytes;
                if (at < v.size())
                    std::memcpy(&word, v.data() + at,
                                std::min<std::size_t>(kWordBytes,
                                                      v.size() - at));
                line.set(i, word);
            }
            if (line.isZero())
                continue;
            ++req;
            held.push_back(mem.lookup(line));
            {
                ScopedSpan s(buf, nHit, req);
                held.push_back(mem.lookup(line));
            }
            {
                ScopedSpan s(buf, nRead, req);
                (void)mem.readLine(held.back());
            }
            Line fresh = mem.makeLine();
            for (unsigned i = 0; i < fresh.size(); ++i)
                fresh.set(i, nonce += 0x9e3779b97f4a7c15ull);
            Plid p;
            {
                ScopedSpan s(buf, nMiss, req);
                p = mem.lookup(fresh);
            }
            held.push_back(p);
        }
    }
    for (Plid p : held)
        mem.decRef(p);

    // lang: HString construction of each key (destruction unmeasured).
    for (const std::string &k : keys) {
        std::optional<HString> h;
        {
            ScopedSpan s(buf, nKey, ++req);
            h.emplace(hc, k);
        }
    }

    // vsm: snapshot + release of every live VSID, a few rounds.
    std::vector<Vsid> vsids;
    hc.vsm.forEachLive(
        [&](Vsid v, const SegDesc &, std::uint32_t) { vsids.push_back(v); });
    for (int round = 0; round < 64; ++round) {
        for (Vsid v : vsids) {
            ScopedSpan s(buf, nSnap, ++req);
            hc.vsm.releaseSnapshot(hc.vsm.snapshot(v));
        }
    }
    buf.enabled = false;

    const std::vector<Span> mine(buf.spans().begin() + first,
                                 buf.spans().end());
    r.set("mem.lookup_hit_ns", spanMedianNs(rec, mine, "mem.lookup_hit"),
          "ns");
    r.set("mem.lookup_miss_ns", spanMedianNs(rec, mine, "mem.lookup_miss"),
          "ns");
    r.set("mem.readline_ns", spanMedianNs(rec, mine, "mem.readline"), "ns");
    r.set("lang.key_intern_ns", spanMedianNs(rec, mine, "lang.key_intern"),
          "ns");
    r.set("vsm.snapshot_ns", spanMedianNs(rec, mine, "vsm.snapshot"), "ns");
}

} // namespace perfbench

using namespace perfbench;

namespace {

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "serve_zipf|heap_churn|spmv_read [--seed N] "
                 "[--seconds S] [--trace 0|1] [--out-dir DIR] "
                 "[--commit ID] [--model-check]\n",
                 msg);
    return 2;
}

std::string
jsonNumber(double v)
{
    char b[64];
    std::snprintf(b, sizeof b, "%.17g", v);
    return b;
}

std::string
fingerprintJson(const Options &o, const std::string &commit,
                bool modelCheckMode)
{
    const MemoryConfig m = benchMemoryConfig();
#ifdef HICAMP_TRACE
    const char *trace = "on";
#else
    const char *trace = "off";
#endif
    char b[1024];
    std::snprintf(
        b, sizeof b,
        "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
        "\"traced_run\": %s, \"model_check\": %s, \"nproc\": %u, "
        "\"compiler\": \"%s\", \"build_type\": \"%s\", "
        "\"hicamp_trace\": \"%s\", \"commit\": \"%s\", "
        "\"memory_config\": {\"lineBytes\": %u, \"numBuckets\": %llu, "
        "\"l1Bytes\": %llu, \"l1Ways\": %u, \"l2Bytes\": %llu, "
        "\"l2Ways\": %u, \"lockStripes\": %u, \"globalLock\": %s, "
        "\"epochReclaim\": %s, \"epochBatchSize\": %u, "
        "\"refcountBits\": %u}}",
        o.workload.c_str(), static_cast<unsigned long long>(o.seed),
        jsonNumber(o.seconds).c_str(), o.trace ? "true" : "false",
        modelCheckMode ? "true" : "false", o.nproc, PERFBENCH_COMPILER,
        PERFBENCH_BUILD_TYPE, trace, commit.c_str(), m.lineBytes,
        static_cast<unsigned long long>(m.numBuckets),
        static_cast<unsigned long long>(m.l1Bytes), m.l1Ways,
        static_cast<unsigned long long>(m.l2Bytes), m.l2Ways, m.lockStripes,
        m.globalLock ? "true" : "false", m.epochReclaim ? "true" : "false",
        m.epochBatchSize, m.refcountBits);
    return b;
}

std::string
metricsJson(const Report &r)
{
    std::string s = "{";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const auto &m = r.metrics[i];
        s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
             jsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    return s + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    std::string commit = "unknown";
    bool modelCheckMode = false;
    o.nproc = std::max(1u, std::thread::hardware_concurrency());
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (a == "--model-check") {
            modelCheckMode = true;
        } else if (a == "--workload" && (v = value())) {
            o.workload = v;
        } else if (a == "--seed" && (v = value())) {
            o.seed = std::strtoull(v, nullptr, 10);
        } else if (a == "--seconds" && (v = value())) {
            o.seconds = std::strtod(v, nullptr);
        } else if (a == "--trace" && (v = value())) {
            o.trace = std::strcmp(v, "0") != 0;
        } else if (a == "--out-dir" && (v = value())) {
            o.outDir = v;
        } else if (a == "--commit" && (v = value())) {
            commit = v;
        } else {
            return usage(("bad argument: " + a).c_str());
        }
    }
    if (o.workload != "serve_zipf" && o.workload != "heap_churn" &&
        o.workload != "spmv_read")
        return usage("unknown workload");
    if (!(o.seconds >= 0.5 && o.seconds <= 120.0))
        return usage("--seconds must be in [0.5, 120]");

    std::printf("fingerprint %s\n",
                fingerprintJson(o, commit, modelCheckMode).c_str());
    std::fflush(stdout);

    SpanRecorder rec;
    Report r;
    if (modelCheckMode)
        r = modelCheck(o.workload, o.seed);
    else if (o.workload == "serve_zipf")
        r = runServeZipf(o, rec);
    else if (o.workload == "heap_churn")
        r = runHeapChurn(o, rec);
    else
        r = runSpmvRead(o, rec);

    if (!modelCheckMode) {
        r.set("error_rate",
              r.attempted ? static_cast<double>(r.failed) /
                                static_cast<double>(r.attempted)
                          : 0.0,
              "ratio");
        if (!o.trace)
            r.set("peak_rss_mb", peakRssMb(), "MiB");
    }
    for (const auto &m : r.metrics)
        std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("attempted %llu failed %llu audit %s\n",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                r.auditClean ? "clean" : "NOT CLEAN");

    if (o.trace && !modelCheckMode) {
        const auto spans = rec.collect();
        const std::string path =
            o.outDir + "/spans-" + o.workload + ".json";
        if (!rec.writeChromeTrace(path, spans, 100000))
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
        else
            std::printf("wrote %zu spans to %s\n", spans.size(),
                        path.c_str());
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                r.correct() ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                metricsJson(r).c_str());
    return r.correct() ? 0 : 1;
}
