/**
 * @file
 * Shared pieces of the wall-clock benchmark: options, the metric
 * report, the closed-loop measurement window, heap counter deltas and
 * the layer probes every workload runs in its traced pass.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/hicamp.hh"
#include "obs/metrics.hh"
#include "stats.hh"

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".";
    unsigned nproc = 1; ///< busy-thread budget (hardware threads)
};

/** Named metrics with units, in the order they were set. */
struct Report {
    struct Metric {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool auditClean = true;

    void set(const std::string &name, double value, const std::string &unit);
    bool correct() const { return failed == 0 && auditClean; }
};

/** The one MemoryConfig every workload runs on (printed in the
 *  fingerprint). Fault injection is pinned off so no environment
 *  variable can make operations fail. */
hicamp::MemoryConfig benchMemoryConfig();

/** Setup repetitions per run; setup_s is their median. */
constexpr int kSetupReps = 9;

/** Seconds since @p t0 on the steady clock. */
double secondsSince(std::chrono::steady_clock::time_point t0);

/** Peak resident set of this process, MiB. */
double peakRssMb();

/// @name Closed-loop measurement window
/// @{
/** Fewest latencies behind one slice's percentiles: its p99 then has
 *  at least ten samples beyond it. */
constexpr std::size_t kMinSliceSamples = 1000;

/** Per-thread tallies; ops is read by the slice sampler. */
struct alignas(64) ThreadStats {
    std::atomic<std::uint64_t> ops{0}; ///< work units, every phase
    std::vector<Samples> latBySlice;   ///< measured latencies per slice
    std::uint64_t attempted = 0;       ///< operations issued
    std::uint64_t failed = 0;          ///< failures + oracle mismatches
    /** Slice now running, published by the sampler; kNoSlice
     *  outside the measured phase. */
    const std::atomic<std::uint32_t> *slice = nullptr;
    static constexpr std::uint32_t kNoSlice = ~0u;

    /** One measured-phase latency, filed under the current slice. */
    void
    addLatency(double us)
    {
        const std::uint32_t i =
            slice ? slice->load(std::memory_order_relaxed) : 0;
        if (i == kNoSlice)
            return;
        if (i >= latBySlice.size())
            latBySlice.resize(i + 1);
        latBySlice[i].add(us);
    }
};

struct Window {
    double wallS = 0.0;
    std::uint64_t ops = 0;   ///< work units in the measured phase
    double opsPerS = 0.0;    ///< median over fixed-length slices
    std::vector<double> sliceRates;
    Samples latUs;           ///< every latency of the measured slices
    /** Median over the latency slices of each slice's exact p50 and
     *  p99 (slicedPercentiles): a stall of the shared host moves a few
     *  slices, not the figure. */
    double p50Us = 0.0, p99Us = 0.0;
    std::size_t latSlices = 0; ///< latency slices behind p50Us/p99Us
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/**
 * Run @p threads closed-loop workers: each calls step(tid, measuring,
 * stats) back to back until stopped — one operation per call, the
 * next issued only after the previous returned. A false return
 * retires the worker (its connection or state is unusable). The
 * first @p warmupS are not measured; the next @p measureS are cut
 * into 200 ms slices and ops/s is the median slice rate, which a
 * transient stall of the shared host moves less than a plain mean.
 * Latencies a step records with ThreadStats::addLatency are filed
 * under the same slices; p50/p99 are medians of per-slice percentiles
 * (slicedPercentiles with kMinSliceSamples).
 * @p onStart / @p onEnd bracket the measured phase (registry
 * snapshots); @p onSlice runs at each slice boundary.
 */
Window runWindow(
    unsigned threads, double warmupS, double measureS,
    const std::function<bool(unsigned, bool, ThreadStats &)> &step,
    const std::function<void()> &onStart = {},
    const std::function<void()> &onEnd = {},
    const std::function<void()> &onSlice = {});

/**
 * Tracing cost, percent: the traced window's ops/s against the pooled
 * slice rates of the untraced windows run just before and after it.
 */
double traceOverheadPct(const Window &before, const Window &traced,
                        const Window &after);

/** Warmup length for a measured phase of @p seconds. */
double warmupFor(double seconds);
/// @}

/// @name Heap counters at layer boundaries
/// @{
struct HeapCounters {
    hicamp::obs::MetricsSnapshot snap;
    std::uint64_t lockOps = 0; ///< stripe lock acquisitions, both kinds
};

HeapCounters readHeap(hicamp::Memory &mem);

/**
 * The per-op `mem.*`, `epoch.*`, `vsm.*`, `contention.*` and modeled
 * `model.*` metrics from the heap counter difference over a window
 * of @p ops work units.
 */
void heapLayerMetrics(Report &r, const HeapCounters &before,
                      const HeapCounters &after, double ops,
                      std::uint64_t limboMax);

/** Dedup hits / lookups between two readings. */
double dedupHitRatio(const HeapCounters &before, const HeapCounters &after);

/** Live store bytes after an epoch-quiescent point. */
std::uint64_t quiescentLiveBytes(hicamp::Memory &mem);

/** Modeled counters a model-only change must leave bit-identical. */
void modelCounters(Report &r, const HeapCounters &before,
                   const HeapCounters &after, double ops);
/// @}

/**
 * Direct calls into layer APIs on the workload's own data, each under
 * a span: SegBuilder::buildBytes and SegReader::materialize on
 * @p values, Memory::lookup (hit and miss) and readLine on their
 * lines, HString construction of @p keys, and snapshot + release of
 * every live VSID. Sets seg.*, mem.lookup_*, mem.readline_ns,
 * lang.key_intern_ns and vsm.snapshot_ns (0 where the input set is
 * empty). @p hc may have no VSIDs (spmv_read).
 */
void probeLayers(Report &r, hicamp::Hicamp &hc, SpanRecorder &rec,
                 const std::vector<std::string> &values,
                 const std::vector<std::string> &keys);

/** Median span duration of @p name in ns (0 if never recorded). */
double spanMedianNs(const SpanRecorder &rec, const std::vector<Span> &spans,
                    const std::string &name);

/// @name Workloads (workloads.cc)
/// @{
Report runServeZipf(const Options &o, SpanRecorder &rec);
Report runHeapChurn(const Options &o, SpanRecorder &rec);
Report runSpmvRead(const Options &o, SpanRecorder &rec);

/**
 * Single-threaded, fixed-size pass of @p workload: only modeled
 * counters and bytes_per_user_byte, which must repeat exactly.
 */
Report modelCheck(const std::string &workload, std::uint64_t seed);
/// @}

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
