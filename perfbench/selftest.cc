/**
 * @file
 * Arithmetic self-test of the benchmark's measurement code: exact
 * nearest-rank percentiles, medians, sliced percentiles and span self
 * time, each checked on synthetic data with known answers. Exit 0 iff
 * every check holds.
 *
 * Usage: perfbench_selftest
 */

#include <cstdio>
#include <string>
#include <vector>

#include "stats.hh"

using namespace perfbench;

namespace {

int failures = 0;

void
check(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

Span
span(std::uint64_t id, std::uint64_t parent, std::int64_t start,
     std::int64_t end)
{
    Span s;
    s.id = id;
    s.parent = parent;
    s.startNs = start;
    s.endNs = end;
    return s;
}

void
percentiles()
{
    // 1..1000 shuffled: the nearest-rank q-percentile is ceil(q * n).
    Samples s;
    for (int i = 0; i < 1000; ++i)
        s.add(static_cast<double>((i * 617) % 1000 + 1));
    const Percentile p50 = s.at(0.50), p99 = s.at(0.99),
                     p999 = s.at(0.999), p100 = s.at(1.0);
    check(p50.value == 500.0 && p50.samples == 1000 && p50.beyond == 500,
          "p50 of 1..1000 is 500 with 500 samples beyond");
    check(p99.value == 990.0 && p99.beyond == 10,
          "p99 of 1..1000 is 990 with 10 samples beyond");
    check(p999.value == 999.0 && p999.beyond == 1,
          "p999 of 1..1000 is 999");
    check(p100.value == 1000.0 && p100.beyond == 0, "p100 is the max");

    Samples one;
    one.add(7.5);
    check(one.at(0.5).value == 7.5 && one.at(0.99).value == 7.5,
          "single sample is every percentile");
    Samples none;
    check(none.at(0.5).samples == 0 && none.at(0.5).value == 0.0,
          "empty set reports zero samples");

    // Percentiles are samples, never interpolated: {1, 100} -> p50 = 1.
    Samples two;
    two.add(100.0);
    two.add(1.0);
    check(two.at(0.5).value == 1.0 && two.at(0.51).value == 100.0,
          "nearest rank, no interpolation");

    Samples merged;
    merged.append(two);
    merged.append(one);
    check(merged.size() == 3 && merged.at(0.5).value == 7.5,
          "append merges sample sets");

    check(median({3.0, 1.0, 2.0}) == 2.0, "median of odd count");
    check(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of even count");
    check(median({}) == 0.0, "median of nothing is 0");
}

void
sliced()
{
    // Five slices of 100 samples 1..100, one of them stalled (x10):
    // the sliced medians ignore the stall, the pooled p99 does not.
    std::vector<Samples> slices(5);
    Samples pooled;
    for (std::size_t k = 0; k < slices.size(); ++k)
        for (int i = 1; i <= 100; ++i) {
            const double v = k == 2 ? 10.0 * i : i;
            slices[k].add(v);
            pooled.add(v);
        }
    SlicedPercentiles sp = slicedPercentiles(slices, 100);
    check(sp.groups == 5 && sp.p50 == 50.0 && sp.p99 == 99.0,
          "sliced p50/p99 are medians over slices, stall ignored");
    check(pooled.at(0.99).value == 950.0, "pooled p99 sees the stall");

    // 100-sample slices with a 200-sample floor pair up; the odd
    // fifth slice joins the group before it.
    sp = slicedPercentiles(slices, 200);
    check(sp.groups == 2, "small slices merge, a short tail joins the last");

    // Fewer samples than the floor: one group of everything.
    sp = slicedPercentiles({slices[0]}, 1000);
    check(sp.groups == 1 && sp.p50 == 50.0 && sp.p99 == 99.0,
          "a window under the floor is one group");
    sp = slicedPercentiles({}, 1000);
    check(sp.groups == 0 && sp.p50 == 0.0, "no samples, no groups");
}

void
selfTime()
{
    // root [0,100) with children [10,30) and [20,50) overlapping ->
    // covered [10,50) = 40, self 60. Child [20,50) has a grandchild
    // [25,35) -> self 20. A child sticking out [90,120) is clipped to
    // [90,100) -> +10 covered.
    std::vector<Span> spans = {
        span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 20, 50),
        span(4, 3, 25, 35), span(5, 1, 90, 120),
        span(6, 0, 200, 260), // a second root, no children
        span(7, 99, 0, 5),    // parent not recorded: treated as root
    };
    const auto self = selfTimes(spans);
    check(self[0] == 50, "parent self = 100 - union(10..50, 90..100)");
    check(self[1] == 20, "leaf self = its duration");
    check(self[2] == 20, "child self excludes its own child");
    check(self[3] == 10, "grandchild self = duration");
    check(self[4] == 30, "clipped child keeps its own duration");
    check(self[5] == 60, "childless root self = duration");
    check(self[6] == 5, "orphan span self = duration");

    // Recorder path: nested ScopedSpans get parents and request ids.
    SpanRecorder rec;
    const std::uint32_t outer = rec.name("outer"), inner = rec.name("inner");
    check(rec.name("outer") == outer, "names intern once");
    SpanBuffer &buf = rec.buffer();
    {
        ScopedSpan off(buf, outer, 1); // disabled buffer records nothing
    }
    buf.enabled = true;
    {
        ScopedSpan o(buf, outer, 42);
        ScopedSpan i(buf, inner, 42);
    }
    const auto all = rec.collect();
    check(all.size() == 2, "disabled buffer records no span");
    check(all.size() == 2 && all[0].name == inner &&
              all[0].parent == all[1].id && all[1].parent == 0 &&
              all[0].request == 42 && all[1].request == 42,
          "nested span records its parent and request id");
    const auto sum = summarize(rec, all);
    check(sum.count("outer") == 1 && sum.at("outer").count == 1 &&
              sum.at("outer").medianSelfNs <= sum.at("outer").medianNs,
          "summary per name with self time <= duration");
}

} // namespace

int
main()
{
    percentiles();
    sliced();
    selfTime();
    std::printf("%s: %d failure(s)\n", failures ? "FAIL" : "PASS", failures);
    return failures ? 1 : 0;
}
