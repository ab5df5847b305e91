/**
 * @file
 * Concurrency smoke for the daemon's core premise: a Machine is
 * self-contained, so two of them can build and run on parallel host
 * threads with results byte-identical to serial runs. This is the test
 * the shared-state fixes (per-sink reports, read-only-after-init
 * registries, the de-static'd coverage workload) exist for — under
 * TSan (the CI tsan job runs it) any residual cross-machine shared
 * mutable state is a hard failure.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "sim/report.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"

namespace cni::sweep
{
namespace
{

SweepPoint
point(const std::string &workload, ParamList params,
      std::uint64_t seed = 1)
{
    SweepPoint p;
    p.workload = workload;
    p.seed = seed;
    p.params = std::move(params);
    p.key = pointKey(p.workload, p.params, p.seed, kDefaultPointTimeout);
    return p;
}

/**
 * The benchmark grid in miniature: different NIs, nets, protocols and
 * every workload, the two machine-less rigs included.
 */
std::vector<SweepPoint>
smokePoints()
{
    return {
        point("roundtrip", {{"nodes", "2"},
                            {"ni", "CNI4"},
                            {"placement", "memory"},
                            {"rounds", "2"},
                            {"warmup", "1"},
                            {"bytes", "16"}}),
        point("roundtrip", {{"nodes", "2"},
                            {"ni", "NI2w"},
                            {"placement", "io"},
                            {"rounds", "2"},
                            {"warmup", "1"},
                            {"bytes", "64"}}),
        point("bandwidth", {{"nodes", "2"},
                            {"ni", "CNI16Q"},
                            {"placement", "memory"},
                            {"messages", "8"},
                            {"warmup", "2"},
                            {"bytes", "32"}}),
        point("coverage", {{"nodes", "4"},
                           {"ni", "CNI16Qm"},
                           {"net", "mesh"},
                           {"coherence", "directory"},
                           {"dir-entries", "16"},
                           {"dir-assoc", "4"},
                           {"dir-hops", "3"},
                           {"sharing", "3"}}),
        point("hotspot", {{"nodes", "4"}, {"ni", "CNI4"}, {"net", "mesh"}}),
        point("macro", {{"nodes", "4"}, {"ni", "CNI16Qm"}, {"app", "em3d"}},
              0),
        point("protocol", {{"coherence", "hybrid"}, {"pattern", "migratory"}}),
        point("occupancy", {{"op", "cpu-to-ni"}, {"placement", "io"}}),
    };
}

TEST(ConcurrentMachines, ParallelRunsMatchSerialRunsByteForByte)
{
    const std::vector<SweepPoint> pts = smokePoints();

    std::vector<std::string> serial(pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i)
        serial[i] = runPoint(pts[i], kDefaultPointTimeout).doc;

    // All machines in flight at once, one per host thread.
    std::vector<std::string> parallel(pts.size());
    {
        std::vector<std::thread> threads;
        threads.reserve(pts.size());
        for (std::size_t i = 0; i < pts.size(); ++i) {
            threads.emplace_back([&pts, &parallel, i] {
                parallel[i] =
                    runPoint(pts[i], kDefaultPointTimeout).doc;
            });
        }
        for (std::thread &t : threads)
            t.join();
    }

    for (std::size_t i = 0; i < pts.size(); ++i) {
        EXPECT_EQ(parallel[i], serial[i]) << pts[i].key;
        EXPECT_NE(parallel[i].find("\"status\":\"ok\""),
                  std::string::npos)
            << parallel[i];
    }
}

TEST(ConcurrentMachines, IdenticalPointsRacedAgainstThemselvesAgree)
{
    // The daemon's cache treats results as interchangeable with fresh
    // runs; race N copies of the same point and require one answer.
    const SweepPoint p = smokePoints()[0];
    constexpr int kCopies = 4;
    std::vector<std::string> docs(kCopies);
    std::vector<std::thread> threads;
    for (int i = 0; i < kCopies; ++i) {
        threads.emplace_back([&p, &docs, i] {
            docs[i] = runPoint(p, kDefaultPointTimeout).doc;
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (int i = 1; i < kCopies; ++i)
        EXPECT_EQ(docs[i], docs[0]);
}

TEST(ConcurrentMachines, GlobalReportSinkToleratesConcurrentWriters)
{
    // The benches share the process-global sink; it must take
    // concurrent adds without losing or tearing entries.
    ReportSink &sink = report::global();
    sink.clear();
    sink.enable(true);
    constexpr int kThreads = 4, kAdds = 64;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&sink, t] {
            for (int i = 0; i < kAdds; ++i) {
                sink.add("t" + std::to_string(t),
                         "{\"i\":" + std::to_string(i) + "}");
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(sink.count(), std::size_t(kThreads * kAdds));
    std::size_t perThread[kThreads] = {};
    for (const ReportSink::Run &run : sink.take()) {
        ASSERT_EQ(run.label.size(), 2u);
        ++perThread[run.label[1] - '0'];
    }
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(perThread[t], std::size_t(kAdds));
    EXPECT_EQ(sink.count(), 0u); // take() drained it
    sink.enable(false);
}

TEST(ConcurrentMachines, PerRunSinksIsolateConcurrentMeasurements)
{
    // Two measurements with private sinks running in parallel: each
    // sink sees exactly its own machine's report.
    const SweepPoint a = smokePoints()[0];
    const SweepPoint b = smokePoints()[1];
    std::string docA, docB;
    std::thread ta([&] {
        docA = runPoint(a, kDefaultPointTimeout).machineJson;
    });
    std::thread tb([&] {
        docB = runPoint(b, kDefaultPointTimeout).machineJson;
    });
    ta.join();
    tb.join();
    EXPECT_NE(docA, docB);
    EXPECT_NE(docA.find("CNI4"), std::string::npos);
    EXPECT_NE(docB.find("NI2w"), std::string::npos);
    // And nothing leaked into the process-global sink.
    EXPECT_EQ(report::global().count(), 0u);
}

} // namespace
} // namespace cni::sweep
