/**
 * @file
 * Tests of the time-to-cap benchmark's own code: the cap / settle
 * criterion (scripted, and on tiny clusters whose cap and settle
 * rounds are known), the percentile helpers, and the fingerprint.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "alloc/diba.hh"
#include "alloc/kkt.hh"
#include "criterion.hh"
#include "fingerprint.hh"
#include "graph/topologies.hh"
#include "model/utility.hh"
#include "util/rng.hh"

namespace {

using ttc::EventCheck;

TEST(EventCheck, CapIsFirstRoundWithinBudgetAndAtTheBar)
{
    EventCheck chk(100.0, 10.0, 50);
    EXPECT_TRUE(chk.needsUtility());
    EXPECT_FALSE(chk.round(1, 99.0, 9.8, false));  // below 0.99 * 10
    EXPECT_TRUE(chk.round(2, 99.0, 9.9, false));   // exactly the bar
    EXPECT_FALSE(chk.needsUtility());
    EXPECT_FALSE(chk.round(3, 99.5, 0.0, false));  // utility unread
    EXPECT_FALSE(chk.round(4, 99.5, 9.95, true));
    EXPECT_EQ(chk.capRound(), 2u);
    EXPECT_EQ(chk.settleRound(), 4u);
    EXPECT_DOUBLE_EQ(chk.settleQuality(), 0.995);
    EXPECT_FALSE(chk.failed());
}

TEST(EventCheck, OverBudgetAfterAnyRoundFails)
{
    EventCheck chk(100.0, 10.0, 50);
    EXPECT_TRUE(chk.round(1, 99.0, 9.95, false));
    EXPECT_FALSE(chk.failed());
    chk.round(2, 100.0 + 1e-9, 9.95, false);
    ASSERT_TRUE(chk.failed());
    EXPECT_NE(chk.failure().find("over budget after round 2"),
              std::string::npos);
}

TEST(EventCheck, OverBudgetRoundIsNeverTheCapRound)
{
    EventCheck chk(100.0, 10.0, 50);
    EXPECT_FALSE(chk.round(1, 101.0, 10.0, false));
    EXPECT_EQ(chk.capRound(), 0u);
    EXPECT_TRUE(chk.failed());
}

TEST(EventCheck, SettleBelowTheBarFails)
{
    EventCheck chk(100.0, 10.0, 50);
    chk.round(1, 90.0, 9.0, true);
    EXPECT_EQ(chk.settleRound(), 1u);
    EXPECT_EQ(chk.capRound(), 0u);
    ASSERT_TRUE(chk.failed());
    EXPECT_NE(chk.failure().find("settled at round 1"), std::string::npos);
}

TEST(EventCheck, NoSettleWithinMaxRoundsFails)
{
    EventCheck chk(100.0, 10.0, 3);
    chk.round(1, 99.0, 9.95, false);
    chk.round(2, 99.0, 9.95, false);
    EXPECT_FALSE(chk.failed());
    chk.round(3, 99.0, 9.95, false);
    ASSERT_TRUE(chk.failed());
    EXPECT_EQ(chk.failure(), "not settled after 3 rounds");
}

TEST(EventCheck, FirstFailureIsKept)
{
    EventCheck chk(100.0, 10.0, 50);
    chk.fail("parity: 3 caps differ");
    chk.round(1, 200.0, 10.0, false);
    EXPECT_EQ(chk.failure(), "parity: 3 caps differ");
}

TEST(Percentile, MatchesLinearInterpolation)
{
    // numpy.percentile([1, 2, 3, 4], [50, 90]) == [2.5, 3.7]
    EXPECT_DOUBLE_EQ(ttc::percentile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
    EXPECT_NEAR(ttc::percentile({4.0, 1.0, 3.0, 2.0}, 0.9), 3.7, 1e-12);
    EXPECT_DOUBLE_EQ(ttc::percentile({7.0}, 0.9), 7.0);
    EXPECT_DOUBLE_EQ(ttc::percentile({}, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(ttc::percentile({1.0, 2.0, 3.0}, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(ttc::percentile({1.0, 2.0, 3.0}, 1.0), 3.0);
}

TEST(Percentile, SamplesBeyond)
{
    EXPECT_EQ(ttc::samplesBeyond(100, 0.9), 10u);
    EXPECT_EQ(ttc::samplesBeyond(99, 0.9), 9u);
    EXPECT_EQ(ttc::samplesBeyond(100, 0.5), 50u);
    EXPECT_EQ(ttc::samplesBeyond(0, 0.5), 0u);
}

TEST(SpanLog, DisabledRecordsNothingAndCoverageSumsChildren)
{
    ttc::SpanLog off(false);
    EXPECT_EQ(off.add("x", 0, -1, 0, 10), -1);
    EXPECT_TRUE(off.spans().empty());

    ttc::SpanLog on(true);
    const auto ev = on.open("event", 0, -1, 100);
    on.add("a", 0, ev, 100, 130);
    on.add("b", 0, ev, 140, 190);
    on.close(ev, 200);
    const auto cov = on.childCoverageNs();
    EXPECT_EQ(cov[static_cast<std::size_t>(ev)], 80);
}

TEST(Fingerprint, ParsesCpuinfo)
{
    const std::string text =
        "processor\t: 0\n"
        "model name\t: Example CPU @ 2.00GHz\n"
        "flags\t\t: fpu sse4_2 avx avx2 fma avx512f avx512vl\n"
        "processor\t: 1\n"
        "model name\t: Other\n"
        "flags\t\t: fpu\n";
    std::string model, isa;
    ttc::parseCpuinfo(text, model, isa);
    EXPECT_EQ(model, "Example CPU @ 2.00GHz");
    EXPECT_EQ(isa, "sse4_2 avx avx2 fma avx512f avx512vl");
}

TEST(Fingerprint, HostFingerprintNamesBuildAndSource)
{
    const ttc::Fingerprint fp = ttc::hostFingerprint(TTC_REPO_ROOT);
    EXPECT_FALSE(fp.build_type.empty());
    EXPECT_GT(fp.nproc, 0u);
    EXPECT_EQ(fp.src_digest.size(), 16u);
    const std::string json = fp.json();
    for (const char *key : {"cpu_model", "isa", "nproc", "build_type",
                            "DPC_AVX2", "DPC_AVX512", "compiler",
                            "git_sha", "src_digest"})
        EXPECT_NE(json.find(std::string("\"") + key + "\": "),
                  std::string::npos)
            << key;
}

/** Drives a tiny cluster from reset() through driveLocalEvent. */
ttc::EventRecord
driveCold(dpc::DibaAllocator &alloc, const dpc::AllocationProblem &prob,
          ttc::SpanLog &log)
{
    const double opt = dpc::solveKkt(prob).utility;
    return ttc::driveLocalEvent(
        alloc, prob, opt, 7, log,
        [&](std::int64_t ev) {
            const auto s = ttc::nowNs();
            alloc.reset(prob);
            const auto e = ttc::nowNs();
            log.add("alloc.reset", 7, ev, s, e);
            return static_cast<double>(e - s);
        },
        nullptr);
}

TEST(DriveLocalEvent, SaturatedClusterCapsAtRoundOneSettlesAtQuietRounds)
{
    // Every node's box tops out below its budget share, so the
    // uniform start already sits at the KKT optimum (all p_max): the
    // first round caps, nothing moves, and the stop rule fires after
    // exactly Config::quiet_rounds rounds.
    auto prob = dpc::AllocationProblem::Builder()
                    .quadratic(0.5, 0.3, 100.0, 150.0)
                    .quadratic(0.6, 0.5, 110.0, 140.0)
                    .quadratic(0.4, 0.2, 90.0, 160.0)
                    .quadratic(0.7, 0.6, 120.0, 150.0)
                    .budgetPerNode(200.0)
                    .build();
    dpc::DibaAllocator alloc(dpc::makeRing(4));
    ttc::SpanLog log(true);
    const auto rec = driveCold(alloc, prob, log);
    EXPECT_FALSE(rec.failed) << rec.failure;
    EXPECT_EQ(rec.cap_round, 1u);
    EXPECT_EQ(rec.settle_round, dpc::DibaAllocator::Config().quiet_rounds);
    EXPECT_NEAR(rec.quality, 1.0, 1e-12);
    EXPECT_LE(rec.cap_ns, rec.settle_ns);
    EXPECT_GE(rec.call_ns, 0.0);
}

TEST(DriveLocalEvent, CapAndSettleRoundsMatchAnIndependentReplay)
{
    const std::size_t n = 12;
    const auto prob = dpc::AllocationProblem::Builder()
                          .npbCluster(n, 3)
                          .budgetPerNode(172.0)
                          .build();
    const double opt = dpc::solveKkt(prob).utility;
    dpc::Rng topo_rng(5);
    const dpc::Graph topo = dpc::makeChordalRing(n, 3, topo_rng);

    // Replay the deterministic trajectory by hand: the cap round is
    // the first round at >= 99% of the optimum within budget, the
    // settle round the first converged() round.
    dpc::DibaAllocator replay(topo);
    replay.reset(prob);
    dpc::Rng rng(1);
    std::size_t cap = 0, settle = 0;
    for (std::size_t r = 1; r <= replay.maxIterations() && settle == 0;
         ++r) {
        replay.step(rng);
        double sum = 0.0, u = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            sum += replay.power()[i];
            u += prob.utilities[i]->value(replay.power()[i]);
        }
        if (cap == 0 && sum <= prob.budget && u >= 0.99 * opt)
            cap = r;
        if (replay.converged())
            settle = r;
    }
    ASSERT_GT(cap, 1u);
    ASSERT_GT(settle, cap);

    dpc::DibaAllocator alloc(topo);
    ttc::SpanLog log(true);
    const auto rec = driveCold(alloc, prob, log);
    EXPECT_FALSE(rec.failed) << rec.failure;
    EXPECT_EQ(rec.cap_round, cap);
    EXPECT_EQ(rec.settle_round, settle);
    EXPECT_GE(rec.quality, 0.99);
    EXPECT_LT(rec.cap_ns, rec.settle_ns);

    // One event span; every round left one step and one check span
    // under it, and the reset span is its first child.
    std::size_t events = 0, steps = 0, checks = 0;
    for (const auto &s : log.spans()) {
        events += std::string(s.name) == "event";
        steps += std::string(s.name) == "alloc.step";
        checks += std::string(s.name) == "bench.check";
        if (std::string(s.name) != "event") {
            EXPECT_EQ(s.parent, 0);
            EXPECT_EQ(s.event, 7);
        }
    }
    EXPECT_EQ(events, 1u);
    EXPECT_EQ(steps, settle);
    EXPECT_EQ(checks, settle);
    EXPECT_STREQ(log.spans()[1].name, "alloc.reset");
}

ttc::EventRecord
replayOf(double cap_ns, double settle_ns)
{
    ttc::EventRecord r;
    r.id = 4;
    r.call_ns = cap_ns / 10.0;
    r.cap_ns = cap_ns;
    r.settle_ns = settle_ns;
    r.cap_round = 30;
    r.settle_round = 90;
    r.quality = 0.995;
    return r;
}

TEST(MergeReplays, TimesAreTheMeanOfAgreeingReplays)
{
    const auto m = ttc::mergeReplays(
        {replayOf(10.0, 40.0), replayOf(20.0, 50.0), replayOf(60.0, 90.0)});
    EXPECT_FALSE(m.failed) << m.failure;
    EXPECT_DOUBLE_EQ(m.cap_ns, 30.0);
    EXPECT_DOUBLE_EQ(m.settle_ns, 60.0);
    EXPECT_DOUBLE_EQ(m.call_ns, 3.0);
    EXPECT_EQ(m.cap_round, 30u);
    EXPECT_EQ(m.settle_round, 90u);
}

TEST(MergeReplays, DivergingOrFailedReplayFailsTheEvent)
{
    auto other = replayOf(10.0, 40.0);
    other.settle_round = 91;
    auto m = ttc::mergeReplays({replayOf(10.0, 40.0), other});
    ASSERT_TRUE(m.failed);
    EXPECT_NE(m.failure.find("replay 1 diverged"), std::string::npos);
    EXPECT_NE(m.failure.find("settle round 91 vs 90"), std::string::npos);

    auto failed = replayOf(10.0, 40.0);
    failed.failed = true;
    failed.failure = "over budget after round 3";
    m = ttc::mergeReplays({replayOf(10.0, 40.0), failed, other});
    ASSERT_TRUE(m.failed);
    EXPECT_EQ(m.failure, "over budget after round 3");

    EXPECT_THROW(ttc::mergeReplays({}), std::invalid_argument);
}

} // namespace
