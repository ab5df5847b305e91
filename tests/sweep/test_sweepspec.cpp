/**
 * @file
 * SweepSpec unit tests: deterministic duplicate-free expansion in
 * odometer order, content keys that are stable across runs (one pinned
 * literal) and insensitive to spelling (axis order, base-vs-axis
 * placement, string-vs-number JSON values), JSON round-tripping, the
 * structured fromJson/validatePoint error paths the daemon's 400
 * responses hang off, the cache's byte-identity premise (the same
 * point always renders the same result document), a point that runs
 * out of its tick budget, the bandwidth workload's default volume, the
 * machine-less protocol and occupancy rigs, and spsolve's refusal of
 * the sharded kernel.
 */

#include <gtest/gtest.h>

#include <set>

#include "sweep/jsonin.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"

namespace cni::sweep
{
namespace
{

SweepSpec
parseSpec(const std::string &json)
{
    JsonValue doc;
    std::string err;
    EXPECT_TRUE(parseJson(json, &doc, &err)) << err;
    SweepSpec spec;
    std::string why;
    EXPECT_TRUE(SweepSpec::fromJson(doc, &spec, &why)) << why;
    return spec;
}

std::string
parseError(const std::string &json)
{
    JsonValue doc;
    std::string err;
    EXPECT_TRUE(parseJson(json, &doc, &err)) << err;
    SweepSpec spec;
    std::string why;
    EXPECT_FALSE(SweepSpec::fromJson(doc, &spec, &why)) << json;
    return why;
}

TEST(SweepSpec, ExpansionIsOdometerOrderFirstAxisSlowest)
{
    SweepSpec spec;
    spec.workload = "roundtrip";
    spec.base = {{"nodes", "2"}};
    spec.axes = {{"ni", {"NI2w", "CNI4"}}, {"bytes", {"8", "64"}}};

    const std::vector<SweepPoint> pts = spec.expand();
    ASSERT_EQ(pts.size(), 4u);
    EXPECT_EQ(paramOr(pts[0].params, "ni", ""), "NI2w");
    EXPECT_EQ(paramOr(pts[0].params, "bytes", ""), "8");
    EXPECT_EQ(paramOr(pts[1].params, "ni", ""), "NI2w");
    EXPECT_EQ(paramOr(pts[1].params, "bytes", ""), "64");
    EXPECT_EQ(paramOr(pts[2].params, "ni", ""), "CNI4");
    EXPECT_EQ(paramOr(pts[2].params, "bytes", ""), "8");
    EXPECT_EQ(paramOr(pts[3].params, "ni", ""), "CNI4");
    EXPECT_EQ(paramOr(pts[3].params, "bytes", ""), "64");
    for (const SweepPoint &p : pts)
        EXPECT_EQ(paramOr(p.params, "nodes", ""), "2");
}

TEST(SweepSpec, SeedsAreTheInnermostAxis)
{
    SweepSpec spec;
    spec.workload = "roundtrip";
    spec.axes = {{"bytes", {"8", "64"}}};
    spec.seeds = {1, 2};

    const std::vector<SweepPoint> pts = spec.expand();
    ASSERT_EQ(pts.size(), 4u);
    EXPECT_EQ(pts[0].seed, 1u);
    EXPECT_EQ(pts[1].seed, 2u);
    EXPECT_EQ(paramOr(pts[1].params, "bytes", ""), "8");
    EXPECT_EQ(pts[2].seed, 1u);
    EXPECT_EQ(paramOr(pts[2].params, "bytes", ""), "64");
}

TEST(SweepSpec, ExpansionIsDuplicateFreeKeepingFirstOccurrence)
{
    // An axis that overlays a base parameter with its existing value
    // produces colliding cells; only the first survives.
    SweepSpec spec;
    spec.workload = "roundtrip";
    spec.base = {{"bytes", "8"}};
    spec.axes = {{"bytes", {"8", "8", "64"}}};

    const std::vector<SweepPoint> pts = spec.expand();
    ASSERT_EQ(pts.size(), 2u);
    EXPECT_EQ(paramOr(pts[0].params, "bytes", ""), "8");
    EXPECT_EQ(paramOr(pts[1].params, "bytes", ""), "64");

    std::set<std::string> keys;
    for (const SweepPoint &p : pts)
        EXPECT_TRUE(keys.insert(p.key).second) << p.key;
}

TEST(SweepSpec, ExpansionIsDeterministicAcrossCalls)
{
    SweepSpec spec;
    spec.workload = "roundtrip";
    spec.base = {{"nodes", "2"}};
    spec.axes = {{"ni", {"NI2w", "CNI4", "CNI16Q"}},
                 {"bytes", {"8", "16", "32", "64"}}};
    spec.seeds = {1, 7};

    const std::vector<SweepPoint> a = spec.expand();
    const std::vector<SweepPoint> b = spec.expand();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].key, b[i].key);
        EXPECT_EQ(a[i].params, b[i].params);
        EXPECT_EQ(a[i].seed, b[i].seed);
    }
}

TEST(SweepSpec, PointKeyIsPinnedAcrossProcessRuns)
{
    // The cache and incremental re-sweeps require keys that never move
    // between builds. If this literal changes, every daemon cache in
    // the field silently cold-starts — change it deliberately.
    EXPECT_EQ(pointKey("roundtrip",
                       {{"placement", "memory"},
                        {"bytes", "64"},
                        {"ni", "NI2w"},
                        {"nodes", "2"}},
                       1, 50'000'000),
              "295550c9e375fb77");
}

TEST(SweepSpec, PointKeyIgnoresParamOrder)
{
    const std::string a = pointKey(
        "roundtrip", {{"bytes", "64"}, {"ni", "NI2w"}}, 1, 1000);
    const std::string b = pointKey(
        "roundtrip", {{"ni", "NI2w"}, {"bytes", "64"}}, 1, 1000);
    EXPECT_EQ(a, b);
}

TEST(SweepSpec, PointKeySeparatesEveryInput)
{
    const std::string base =
        pointKey("roundtrip", {{"bytes", "64"}}, 1, 1000);
    EXPECT_NE(base, pointKey("bandwidth", {{"bytes", "64"}}, 1, 1000));
    EXPECT_NE(base, pointKey("roundtrip", {{"bytes", "65"}}, 1, 1000));
    EXPECT_NE(base, pointKey("roundtrip", {{"bytes", "64"}}, 2, 1000));
    EXPECT_NE(base, pointKey("roundtrip", {{"bytes", "64"}}, 1, 1001));
}

TEST(SweepSpec, KeysInsensitiveToAxisDeclarationOrder)
{
    SweepSpec a;
    a.workload = "roundtrip";
    a.axes = {{"ni", {"NI2w", "CNI4"}}, {"bytes", {"8", "64"}}};

    SweepSpec b;
    b.workload = "roundtrip";
    b.axes = {{"bytes", {"8", "64"}}, {"ni", {"NI2w", "CNI4"}}};

    std::set<std::string> ka, kb;
    for (const SweepPoint &p : a.expand())
        ka.insert(p.key);
    for (const SweepPoint &p : b.expand())
        kb.insert(p.key);
    EXPECT_EQ(ka, kb);
}

TEST(SweepSpec, KeysInsensitiveToBaseVersusAxisPlacement)
{
    SweepSpec a;
    a.workload = "roundtrip";
    a.base = {{"nodes", "2"}};
    a.axes = {{"bytes", {"8", "64"}}};

    SweepSpec b;
    b.workload = "roundtrip";
    b.axes = {{"bytes", {"8", "64"}}, {"nodes", {"2"}}};

    std::set<std::string> ka, kb;
    for (const SweepPoint &p : a.expand())
        ka.insert(p.key);
    for (const SweepPoint &p : b.expand())
        kb.insert(p.key);
    EXPECT_EQ(ka, kb);
}

TEST(SweepSpec, FromJsonParsesTheDocumentedForm)
{
    const SweepSpec spec = parseSpec(
        R"({"workload": "roundtrip",
            "base": {"nodes": 2, "placement": "memory"},
            "axes": [{"name": "ni", "values": ["NI2w", "CNI16Qm"]},
                     {"name": "bytes", "values": [8, 64, 256]}],
            "seeds": [1, 2],
            "timeout_ticks": 12345,
            "allow_invalid": true})");
    EXPECT_EQ(spec.workload, "roundtrip");
    EXPECT_EQ(paramOr(spec.base, "nodes", ""), "2");
    ASSERT_EQ(spec.axes.size(), 2u);
    EXPECT_EQ(spec.axes[1].values.size(), 3u);
    EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{1, 2}));
    EXPECT_EQ(spec.timeoutTicks, Tick{12345});
    EXPECT_TRUE(spec.allowInvalid);
    EXPECT_EQ(spec.expand().size(), 12u);
}

TEST(SweepSpec, JsonNumberAndStringSpellingsAreKeyEquivalent)
{
    const SweepSpec num = parseSpec(
        R"({"workload": "roundtrip", "base": {"bytes": 64}})");
    const SweepSpec str = parseSpec(
        R"({"workload": "roundtrip", "base": {"bytes": "64"}})");
    ASSERT_EQ(num.expand().size(), 1u);
    EXPECT_EQ(num.expand()[0].key, str.expand()[0].key);
}

TEST(SweepSpec, ToJsonRoundTripsThroughFromJson)
{
    SweepSpec spec;
    spec.workload = "coverage";
    spec.base = {{"ni", "CNI16Qm"}, {"net", "mesh"}, {"nodes", "4"}};
    spec.axes = {{"dir-entries", {"0", "32", "16"}},
                 {"sharing", {"1", "3"}}};
    spec.seeds = {3};
    spec.timeoutTicks = 999;
    spec.allowInvalid = true;

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(spec.toJson(), &doc, &err)) << err;
    SweepSpec back;
    std::string why;
    ASSERT_TRUE(SweepSpec::fromJson(doc, &back, &why)) << why;
    EXPECT_EQ(back.toJson(), spec.toJson());

    const std::vector<SweepPoint> a = spec.expand();
    const std::vector<SweepPoint> b = back.expand();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].key, b[i].key);
}

TEST(SweepSpec, FromJsonRejectsMalformedSpecs)
{
    EXPECT_NE(parseError(R"([1, 2])").find("object"), std::string::npos);
    EXPECT_NE(parseError(R"({"base": {}})").find("workload"),
              std::string::npos);
    EXPECT_NE(parseError(R"({"workload": ""})").find("workload"),
              std::string::npos);
    EXPECT_NE(parseError(
                  R"({"workload": "roundtrip", "base": {"no spaces": 1}})")
                  .find("parameter name"),
              std::string::npos);
    EXPECT_NE(parseError(R"({"workload": "roundtrip",
                             "axes": [{"name": "ni"}]})")
                  .find("values"),
              std::string::npos);
    EXPECT_NE(parseError(R"({"workload": "roundtrip",
                             "axes": [{"name": "ni",
                                       "values": []}]})")
                  .find("values"),
              std::string::npos);
    EXPECT_NE(parseError(R"({"workload": "roundtrip", "seeds": []})")
                  .find("seeds"),
              std::string::npos);
    EXPECT_NE(parseError(R"({"workload": "roundtrip", "seeds": [-1]})")
                  .find("seeds"),
              std::string::npos);
    EXPECT_NE(parseError(
                  R"({"workload": "roundtrip", "timeout_ticks": 0})")
                  .find("timeout_ticks"),
              std::string::npos);
    EXPECT_NE(parseError(R"({"workload": "roundtrip", "bogus": 1})")
                  .find("unknown spec field"),
              std::string::npos);
}

TEST(SweepSpec, FromJsonRefusesOversizedGridsBeforeExpansion)
{
    // 4096 * 4096 cells overflows the point cap; the reject happens at
    // parse time, before expand() could allocate anything.
    std::string big = R"({"workload": "roundtrip", "axes": [)";
    for (int a = 0; a < 2; ++a) {
        if (a)
            big += ",";
        big += R"({"name": "p)" + std::to_string(a) +
               R"(", "values": [)";
        for (int v = 0; v < 4096; ++v) {
            if (v)
                big += ",";
            big += std::to_string(v);
        }
        big += "]}";
    }
    big += "]}";
    EXPECT_NE(parseError(big).find("grid larger"), std::string::npos);
}

TEST(SweepRunner, ValidatePointRejectsStructuredly)
{
    SweepPoint p;
    p.workload = "roundtrip";
    p.params = {{"nodes", "2"}, {"ni", "NI2w"}};

    std::string why;
    EXPECT_TRUE(validatePoint(p, &why)) << why;

    SweepPoint badValue = p;
    badValue.params = {{"nodes", "banana"}, {"ni", "NI2w"}};
    EXPECT_FALSE(validatePoint(badValue, &why));
    EXPECT_NE(why.find("nodes"), std::string::npos);

    SweepPoint badModel = p;
    badModel.params = {{"nodes", "2"}, {"ni", "NoSuchNI"}};
    EXPECT_FALSE(validatePoint(badModel, &why));

    SweepPoint badWorkload = p;
    badWorkload.workload = "no-such-workload";
    EXPECT_FALSE(validatePoint(badWorkload, &why));
    EXPECT_NE(why.find("workload"), std::string::npos);

    SweepPoint badParam = p;
    badParam.params.emplace_back("frobnicate", "1");
    EXPECT_FALSE(validatePoint(badParam, &why));
    EXPECT_NE(why.find("frobnicate"), std::string::npos);

    // One node cannot round-trip with itself.
    SweepPoint tooSmall = p;
    tooSmall.params = {{"nodes", "1"}, {"ni", "NI2w"}};
    EXPECT_FALSE(validatePoint(tooSmall, &why));

    // Hard caps: a hostile value over the builder limits is a
    // structured error, not a CHECK-abort.
    SweepPoint huge = p;
    huge.params = {{"nodes", "1000000"}, {"ni", "NI2w"}};
    EXPECT_FALSE(validatePoint(huge, &why));
}

TEST(SweepRunner, RunPointDocumentIsByteStableAcrossRuns)
{
    // The daemon serves cached documents verbatim; a fresh run of the
    // same point must be byte-identical or cache hits would be
    // observable in the results.
    SweepPoint p;
    p.workload = "roundtrip";
    p.seed = 1;
    p.params = {{"bytes", "16"},
                {"ni", "CNI4"},
                {"nodes", "2"},
                {"placement", "memory"},
                {"rounds", "4"},
                {"warmup", "1"}};
    p.key = pointKey(p.workload, p.params, p.seed, kDefaultPointTimeout);

    const PointResult a = runPoint(p, kDefaultPointTimeout);
    const PointResult b = runPoint(p, kDefaultPointTimeout);
    EXPECT_EQ(a.status, "ok");
    EXPECT_EQ(a.doc, b.doc);
    EXPECT_EQ(a.machineJson, b.machineJson);
    EXPECT_NE(a.doc.find("\"key\":\"" + p.key + "\""), std::string::npos);
    EXPECT_NE(a.doc.find("\"status\":\"ok\""), std::string::npos);
}

TEST(SweepRunner, InvalidPointBecomesAnInvalidDocument)
{
    SweepPoint p;
    p.workload = "roundtrip";
    p.params = {{"nodes", "2"}, {"ni", "NoSuchNI"}};
    p.key = pointKey(p.workload, p.params, p.seed, kDefaultPointTimeout);

    const PointResult r = runPoint(p, kDefaultPointTimeout);
    EXPECT_EQ(r.status, "invalid");
    EXPECT_FALSE(r.error.empty());
    EXPECT_NE(r.doc.find("\"status\":\"invalid\""), std::string::npos);
}

TEST(SweepRunner, MacroAndHotspotBadPointsAreInvalidNotAborts)
{
    // An unknown app and a 1-node machine (every message would be to
    // itself) are structured errors at admission and "invalid" rows
    // when run.
    auto point = [](const std::string &workload, ParamList params) {
        SweepPoint p;
        p.workload = workload;
        p.params = std::move(params);
        p.key = pointKey(p.workload, p.params, p.seed,
                         kDefaultPointTimeout);
        return p;
    };
    const SweepPoint bad[] = {
        point("macro", {{"nodes", "4"}, {"app", "quicksort"}}),
        point("macro", {{"nodes", "4"}}),
        point("macro", {{"nodes", "1"}, {"app", "em3d"}}),
        point("hotspot", {{"nodes", "1"}}),
    };
    const char *want[] = {"app", "app", "nodes must be >= 2",
                          "nodes must be >= 2"};
    for (std::size_t i = 0; i < std::size(bad); ++i) {
        std::string why;
        EXPECT_FALSE(validatePoint(bad[i], &why)) << i;
        EXPECT_NE(why.find(want[i]), std::string::npos) << why;
        const PointResult r = runPoint(bad[i], kDefaultPointTimeout);
        EXPECT_EQ(r.status, "invalid") << i;
        EXPECT_EQ(r.error, why);
        EXPECT_NE(r.doc.find("\"status\":\"invalid\""), std::string::npos);
    }
    std::string why;
    EXPECT_TRUE(validatePoint(point("macro", {{"nodes", "2"},
                                              {"app", "em3d"}}),
                              &why))
        << why;
    EXPECT_TRUE(validatePoint(point("hotspot", {{"nodes", "2"}}), &why))
        << why;
}

TEST(SweepRunner, MacroPointOverItsBudgetTimesOutAndTheNextPointRuns)
{
    SweepPoint p;
    p.workload = "macro";
    p.params = {{"app", "em3d"}, {"nodes", "4"}};
    p.key = pointKey(p.workload, p.params, p.seed, 5000);

    // em3d on 4 nodes runs for far more than 5000 ticks: the point
    // stops at its budget instead of finishing (or aborting).
    const PointResult slow = runPoint(p, 5000);
    EXPECT_EQ(slow.status, "timeout");
    EXPECT_EQ(slow.doc.find("\"metrics\""), std::string::npos);
    EXPECT_NE(slow.doc.find("\"status\":\"timeout\""), std::string::npos);
    EXPECT_NE(slow.machineJson.find("\"workload_done\":false"),
              std::string::npos);
    EXPECT_EQ(slow.reportLabel, "em3d " + slow.label);

    const PointResult next = runPoint(p, kDefaultPointTimeout);
    EXPECT_EQ(next.status, "ok");
    EXPECT_GT(next.metric("cycles", 0), 5000);
    EXPECT_GT(next.metric("mem_bus_occupied", 0), 0);
}

TEST(SweepRunner, BandwidthDefaultsToTheFig7Volume)
{
    // Without messages/warmup, a bandwidth point streams
    // max(24, 65536 / max(bytes, 64)) messages, an eighth as warm-up.
    SweepPoint byDefault;
    byDefault.workload = "bandwidth";
    byDefault.params = {{"bytes", "2048"}, {"nodes", "2"}, {"ni", "CNI4"}};
    SweepPoint spelled = byDefault;
    spelled.params.emplace_back("messages", "32");
    spelled.params.emplace_back("warmup", "4");
    SweepPoint other = byDefault;
    other.params.emplace_back("messages", "64");

    const PointResult a = runPoint(byDefault, kDefaultPointTimeout);
    const PointResult b = runPoint(spelled, kDefaultPointTimeout);
    const PointResult c = runPoint(other, kDefaultPointTimeout);
    ASSERT_EQ(a.status, "ok");
    EXPECT_EQ(a.metrics, b.metrics);
    EXPECT_EQ(a.machineJson, b.machineJson);
    EXPECT_NE(a.machineJson, c.machineJson);
}

SweepPoint
makePoint(const std::string &workload, ParamList params)
{
    SweepPoint p;
    p.workload = workload;
    p.params = std::move(params);
    p.key = pointKey(p.workload, p.params, p.seed, kDefaultPointTimeout);
    return p;
}

/** validatePoint refuses `p` with `want` in its message, as runPoint. */
void
expectInvalid(const SweepPoint &p, const std::string &want)
{
    std::string why;
    EXPECT_FALSE(validatePoint(p, &why)) << p.workload;
    EXPECT_NE(why.find(want), std::string::npos) << why;
    const PointResult r = runPoint(p, kDefaultPointTimeout);
    EXPECT_EQ(r.status, "invalid");
    EXPECT_EQ(r.error, why);
    EXPECT_NE(r.doc.find("\"status\":\"invalid\""), std::string::npos);
}

TEST(SweepRunner, ProtocolAndOccupancyBadPointsAreInvalid)
{
    expectInvalid(makePoint("protocol", {{"pattern", "ping-pong"}}),
                  "parameter 'pattern'");
    expectInvalid(makePoint("protocol", {}), "parameter 'pattern'");
    // The rig fixes the fabric and the machine: only coherence rows.
    expectInvalid(makePoint("protocol", {{"pattern", "migratory"},
                                         {"net", "xbar"}}),
                  "does not take parameter 'net'");
    // The flip point is range-checked like the machine row.
    expectInvalid(makePoint("protocol", {{"pattern", "migratory"},
                                         {"hybrid-threshold", "300"}}),
                  "hybridThreshold must be <= 255");
    expectInvalid(makePoint("protocol", {{"pattern", "migratory"},
                                         {"hybrid-threshold", "two"}}),
                  "parameter 'hybrid-threshold'");

    expectInvalid(makePoint("occupancy", {{"op", "flush"}}),
                  "parameter 'op'");
    expectInvalid(makePoint("occupancy", {}), "parameter 'op'");
    expectInvalid(makePoint("occupancy", {{"op", "memory-to-cache"},
                                          {"placement", "io"}}),
                  "no form on the io-bus");
    expectInvalid(makePoint("occupancy", {{"op", "ni-to-cpu"},
                                          {"placement", "cache"}}),
                  "no form on the cache-bus");
    expectInvalid(makePoint("occupancy", {{"op", "uncached-load"},
                                          {"nodes", "4"}}),
                  "does not take parameter 'nodes'");
    // A backend without the placement is the machine's own error.
    expectInvalid(makePoint("occupancy", {{"op", "uncached-load"},
                                          {"placement", "io"},
                                          {"coherence", "directory"},
                                          {"net", "mesh"}}),
                  "directory");

    std::string why;
    EXPECT_TRUE(validatePoint(
        makePoint("protocol", {{"pattern", "migratory"},
                               {"coherence", "directory"},
                               {"hybrid-threshold", "2"}}),
        &why))
        << why;
    EXPECT_TRUE(validatePoint(makePoint("occupancy", {{"op", "ni-to-cpu"},
                                                      {"placement", "io"}}),
                              &why))
        << why;
}

TEST(SweepRunner, ProtocolAndOccupancyDocumentsAreByteStable)
{
    // fig_protocol's and table2_occupancy's default cells.
    const SweepPoint proto =
        makePoint("protocol", {{"coherence", "directory"},
                               {"pattern", "producer-consumer"}});
    const SweepPoint occ = makePoint(
        "occupancy", {{"op", "uncached-load"}, {"placement", "io"}});
    for (const SweepPoint &p : {proto, occ}) {
        const PointResult a = runPoint(p, kDefaultPointTimeout);
        const PointResult b = runPoint(p, kDefaultPointTimeout);
        EXPECT_EQ(a.status, "ok") << a.doc;
        EXPECT_EQ(a.doc, b.doc);
    }
    const PointResult r = runPoint(proto, kDefaultPointTimeout);
    EXPECT_EQ(r.metric("cycles", 0), 159828);
    EXPECT_EQ(r.metric("protocol_msgs", 0), 4092);
    EXPECT_EQ(r.reportLabel, "producer-consumer/directory");
    EXPECT_NE(r.machineJson.find("\"hybrid_threshold\":1,"),
              std::string::npos);
    // Table 2's I/O-bus uncached load: the paper's 48 cycles.
    EXPECT_EQ(runPoint(occ, kDefaultPointTimeout).metric("cycles", 0), 48);
}

TEST(SweepRunner, EveryWorkloadLabelsItsOwnReport)
{
    // A point's report comes back in its result, under the label a
    // bench's run report lists it by. Occupancy times a bare bus and
    // has no report.
    struct Case
    {
        const char *workload;
        ParamList params;
        const char *reportLabel; //!< "": no report
    };
    const Case cases[] = {
        {"roundtrip", {{"nodes", "2"}, {"bytes", "8"}},
         "roundTripLatency CNI16Qm/memory-bus 8B"},
        {"bandwidth", {{"nodes", "2"}, {"bytes", "64"}},
         "streamBandwidth CNI16Qm/memory-bus 64B"},
        {"coverage",
         {{"nodes", "4"}, {"net", "mesh"}, {"coherence", "directory"}},
         "coverage CNI16Qm/memory-bus/mesh/directory"},
        {"macro", {{"nodes", "4"}, {"app", "em3d"}},
         "em3d CNI16Qm/memory-bus"},
        {"hotspot", {{"nodes", "4"}, {"net", "xbar"}}, "xbar/hotspot"},
        {"protocol", {{"pattern", "migratory"}, {"coherence", "hybrid"}},
         "migratory/hybrid"},
        {"occupancy", {{"op", "uncached-load"}}, ""},
    };
    for (const Case &c : cases) {
        const PointResult r =
            runPoint(makePoint(c.workload, c.params), kDefaultPointTimeout);
        EXPECT_EQ(r.status, "ok") << r.doc;
        EXPECT_EQ(r.reportLabel, c.reportLabel) << c.workload;
        EXPECT_EQ(r.machineJson.empty(), *c.reportLabel == '\0')
            << c.workload;
    }
}

TEST(SweepRunner, SpsolveIsRejectedOnTheShardedKernel)
{
    // Every node's handlers count completions in one shared variable:
    // on the sharded kernel that is a cross-shard race.
    expectInvalid(makePoint("macro", {{"nodes", "4"},
                                      {"app", "spsolve"},
                                      {"threads", "1"}}),
                  "spsolve needs the serial kernel");
    std::string why;
    EXPECT_TRUE(validatePoint(makePoint("macro", {{"nodes", "4"},
                                                  {"app", "spsolve"}}),
                              &why))
        << why;
    EXPECT_TRUE(validatePoint(makePoint("macro", {{"nodes", "4"},
                                                  {"app", "em3d"},
                                                  {"threads", "4"}}),
                              &why))
        << why;
}

} // namespace
} // namespace cni::sweep
