/**
 * @file
 * The benchmark's own measurement arithmetic: exact percentiles over
 * every sample, medians, and a span recorder with self-time
 * derivation. Header-only so the self-test links nothing else.
 *
 * Percentiles are nearest-rank over the full sample set (no
 * bucketing), each reported with its sample count. Spans are kept in
 * per-thread memory buffers and written out once, at exit.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

/** Median (mean of the two middle values for an even count); 0 when
 *  empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    const double hi = v[mid];
    if (v.size() % 2 == 1)
        return hi;
    const double lo = *std::max_element(v.begin(), v.begin() + mid);
    return (lo + hi) / 2.0;
}

/** One percentile reading with the sample count behind it. */
struct Percentile {
    double value = 0.0;
    std::size_t samples = 0; ///< total samples
    std::size_t beyond = 0;  ///< samples strictly above the rank
};

/**
 * Every sample of one latency distribution. at() is the nearest-rank
 * percentile: the smallest sample with at least q of all samples at
 * or below it — an element of the data, exact, never interpolated.
 */
class Samples
{
  public:
    void add(double v) { v_.push_back(v); sorted_ = false; }

    void
    append(const Samples &o)
    {
        v_.insert(v_.end(), o.v_.begin(), o.v_.end());
        sorted_ = false;
    }

    std::size_t size() const { return v_.size(); }

    Percentile
    at(double q)
    {
        Percentile p;
        p.samples = v_.size();
        if (v_.empty())
            return p;
        if (!sorted_) {
            std::sort(v_.begin(), v_.end());
            sorted_ = true;
        }
        const double rank = std::ceil(q * static_cast<double>(v_.size()));
        const std::size_t idx = std::min(
            v_.size() - 1,
            static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
        p.value = v_[idx];
        p.beyond = v_.size() - 1 - idx;
        return p;
    }

  private:
    std::vector<double> v_;
    bool sorted_ = true;
};

/** Median of per-slice percentiles over a measured window. */
struct SlicedPercentiles {
    double p50 = 0.0;
    double p99 = 0.0;
    std::size_t groups = 0; ///< slices the medians are over
};

/**
 * Merges consecutive @p slices into groups of at least @p minSamples
 * samples (a short tail joins the group before it; all slices form one
 * group when they hold fewer), takes each group's exact p50 and p99,
 * and returns the medians over the groups. A stall that covers fewer
 * than half the groups moves neither figure much, unlike a percentile
 * over the pooled samples.
 */
inline SlicedPercentiles
slicedPercentiles(const std::vector<Samples> &slices, std::size_t minSamples)
{
    std::vector<Samples> groups;
    Samples cur;
    for (const Samples &s : slices) {
        cur.append(s);
        if (cur.size() >= minSamples) {
            groups.push_back(std::move(cur));
            cur = Samples();
        }
    }
    if (cur.size() > 0) {
        if (groups.empty())
            groups.push_back(std::move(cur));
        else
            groups.back().append(cur);
    }
    std::vector<double> p50s, p99s;
    for (Samples &g : groups) {
        p50s.push_back(g.at(0.50).value);
        p99s.push_back(g.at(0.99).value);
    }
    return {median(p50s), median(p99s), groups.size()};
}

/** One recorded span. Times are nanoseconds on the recorder's clock. */
struct Span {
    std::uint32_t name = 0;    ///< index into SpanRecorder::names()
    std::uint32_t thread = 0;
    std::uint64_t id = 0;      ///< unique, never 0
    std::uint64_t parent = 0;  ///< enclosing span's id, 0 for a root
    std::uint64_t request = 0; ///< shared by every span of one request
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;

    std::int64_t durationNs() const { return endNs - startNs; }
};

/**
 * Self time of each span: its duration minus the part of its interval
 * covered by its direct children (overlapping children count once,
 * and a child sticking out of its parent is clipped). Result is
 * index-aligned with @p spans.
 */
inline std::vector<std::int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t, std::size_t> byId;
    byId.reserve(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        byId.emplace(spans[i].id, i);
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent == 0)
            continue;
        const auto it = byId.find(s.parent);
        if (it == byId.end())
            continue;
        const Span &p = spans[it->second];
        const std::int64_t lo = std::max(s.startNs, p.startNs);
        const std::int64_t hi = std::min(s.endNs, p.endNs);
        if (hi > lo)
            kids[it->second].emplace_back(lo, hi);
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t curLo = 0, curHi = 0;
        bool open = false;
        for (const auto &[lo, hi] : iv) {
            if (open && lo <= curHi) {
                curHi = std::max(curHi, hi);
                continue;
            }
            if (open)
                covered += curHi - curLo;
            curLo = lo;
            curHi = hi;
            open = true;
        }
        if (open)
            covered += curHi - curLo;
        self[i] = spans[i].durationNs() - covered;
    }
    return self;
}

class SpanRecorder;

/**
 * One thread's span buffer. Owned by the recorder, used by exactly one
 * thread; the open-span stack gives each new span its parent.
 */
class SpanBuffer
{
  public:
    SpanBuffer(const SpanRecorder &rec, std::uint32_t thread)
        : rec_(rec), thread_(thread)
    {
    }
    SpanBuffer(const SpanBuffer &) = delete;
    SpanBuffer &operator=(const SpanBuffer &) = delete;

    /** Spans are kept only while enabled (the traced window). */
    bool enabled = false;
    /** Spans past this many are timed but not kept (bounds memory). */
    std::size_t limit = std::size_t{1} << 18;

    const std::vector<Span> &spans() const { return spans_; }

  private:
    friend class ScopedSpan;
    const SpanRecorder &rec_;
    std::uint32_t thread_;
    std::uint64_t nextSeq_ = 1;
    std::vector<Span> spans_;
    std::vector<std::uint64_t> open_;
};

class SpanRecorder
{
  public:
    using Clock = std::chrono::steady_clock;

    SpanRecorder() : t0_(Clock::now()) {}
    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /** Intern a span name (single-threaded, before workers start). */
    std::uint32_t
    name(std::string_view n)
    {
        for (std::uint32_t i = 0; i < names_.size(); ++i)
            if (names_[i] == n)
                return i;
        names_.emplace_back(n);
        return static_cast<std::uint32_t>(names_.size() - 1);
    }

    const std::vector<std::string> &names() const { return names_; }

    /** A fresh buffer for one thread (single-threaded, before use). */
    SpanBuffer &
    buffer()
    {
        bufs_.emplace_back(*this, static_cast<std::uint32_t>(bufs_.size()));
        return bufs_.back();
    }

    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - t0_)
            .count();
    }

    /** Every span of every buffer (call once all threads joined). */
    std::vector<Span>
    collect() const
    {
        std::vector<Span> all;
        for (const auto &b : bufs_)
            all.insert(all.end(), b.spans().begin(), b.spans().end());
        return all;
    }

    /**
     * Chrome trace_event JSON of at most @p cap spans, with parent and
     * request ids as args. Returns false when the file cannot be
     * written.
     */
    bool
    writeChromeTrace(const std::string &path, const std::vector<Span> &spans,
                     std::size_t cap) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"traceEvents\":[\n");
        const std::size_t n = std::min(cap, spans.size());
        for (std::size_t i = 0; i < n; ++i) {
            const Span &s = spans[i];
            std::fprintf(
                f,
                "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                "\"parent\":%llu,\"request\":%llu}}%s\n",
                names_[s.name].c_str(), s.thread,
                static_cast<double>(s.startNs) / 1e3,
                static_cast<double>(s.durationNs()) / 1e3,
                static_cast<unsigned long long>(s.id),
                static_cast<unsigned long long>(s.parent),
                static_cast<unsigned long long>(s.request),
                i + 1 < n ? "," : "");
        }
        std::fprintf(f, "],\"spansRecorded\":%zu}\n", spans.size());
        return std::fclose(f) == 0;
    }

  private:
    Clock::time_point t0_;
    std::vector<std::string> names_;
    std::deque<SpanBuffer> bufs_; ///< stable addresses across growth
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanBuffer &buf, std::uint32_t name, std::uint64_t request)
        : buf_(buf.enabled && buf.spans_.size() < buf.limit ? &buf
                                                            : nullptr)
    {
        if (!buf_)
            return;
        s_.name = name;
        s_.thread = buf.thread_;
        s_.id = (static_cast<std::uint64_t>(buf.thread_ + 1) << 40) |
                buf.nextSeq_++;
        s_.parent = buf.open_.empty() ? 0 : buf.open_.back();
        s_.request = request;
        buf.open_.push_back(s_.id);
        s_.startNs = buf.rec_.nowNs();
    }

    ~ScopedSpan()
    {
        if (!buf_)
            return;
        s_.endNs = buf_->rec_.nowNs();
        buf_->open_.pop_back();
        buf_->spans_.push_back(s_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanBuffer *buf_;
    Span s_;
};

/** Per-name span summary: count, median duration and self time. */
struct SpanSummary {
    std::size_t count = 0;
    double medianNs = 0.0;
    double medianSelfNs = 0.0;
    double totalNs = 0.0;
};

inline std::unordered_map<std::string, SpanSummary>
summarize(const SpanRecorder &rec, const std::vector<Span> &spans)
{
    const std::vector<std::int64_t> self = selfTimes(spans);
    std::unordered_map<std::uint32_t, std::vector<double>> dur, slf;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        dur[spans[i].name].push_back(
            static_cast<double>(spans[i].durationNs()));
        slf[spans[i].name].push_back(static_cast<double>(self[i]));
    }
    std::unordered_map<std::string, SpanSummary> out;
    for (auto &[name, d] : dur) {
        SpanSummary s;
        s.count = d.size();
        for (double x : d)
            s.totalNs += x;
        s.medianNs = median(d);
        s.medianSelfNs = median(slf[name]);
        out[rec.names()[name]] = s;
    }
    return out;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
