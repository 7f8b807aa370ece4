/**
 * @file
 * Integration tests for the command-level SubChannel: DDR5 timing,
 * REF cadence, ABO flow, and refresh postponement.
 */

#include <gtest/gtest.h>

#include "mitigation/moat.hh"
#include "mitigation/null.hh"
#include "mitigation/panopticon.hh"
#include "mitigation/registry.hh"
#include "sim/system.hh"
#include "subchannel/subchannel.hh"

namespace moatsim::subchannel
{
namespace
{

SubChannelConfig
baseConfig(uint32_t banks = 2)
{
    SubChannelConfig sc;
    sc.numBanks = banks;
    return sc;
}

SubChannel
nullChannel(const SubChannelConfig &sc)
{
    return SubChannel(sc, [](BankId) {
        return std::make_unique<mitigation::NullMitigator>();
    });
}

SubChannel
moatChannel(const SubChannelConfig &sc, const mitigation::MoatConfig &m)
{
    return SubChannel(sc, [&](BankId) {
        return std::make_unique<mitigation::MoatMitigator>(m);
    });
}

TEST(SubChannel, SameBankActsSpacedByTrc)
{
    auto ch = nullChannel(baseConfig());
    const Time t0 = ch.activate(0, 100);
    const Time t1 = ch.activate(0, 200);
    EXPECT_EQ(t1 - t0, ch.timing().tRC);
}

TEST(SubChannel, CrossBankActsSpacedByTrrd)
{
    auto ch = nullChannel(baseConfig());
    const Time t0 = ch.activate(0, 100);
    const Time t1 = ch.activate(1, 100);
    EXPECT_EQ(t1 - t0, ch.timing().tRRD);
}

TEST(SubChannel, SixtySevenActsFitPerRefi)
{
    // Section 2.2's headline number, measured end to end in a steady
    // tREFI window (one that starts with the REF's tRFC busy time).
    auto ch = nullChannel(baseConfig(1));
    const Time lo = ch.timing().tREFI;
    const Time hi = 2 * ch.timing().tREFI;
    uint32_t in_window = 0;
    for (int i = 0; i < 160; ++i) {
        const Time t = ch.activate(0, 100);
        if (t >= lo && t + ch.timing().tRC <= hi)
            ++in_window;
    }
    EXPECT_EQ(in_window, 67u);
}

TEST(SubChannel, RefBlocksActs)
{
    auto ch = nullChannel(baseConfig(1));
    ch.advanceTo(ch.timing().tREFI - fromNs(10));
    const Time t = ch.activate(0, 5);
    // The ACT cannot straddle the REF: it issues after the tRFC busy
    // window.
    EXPECT_GE(t, ch.timing().tREFI + ch.timing().tRFC);
    EXPECT_EQ(ch.stats().refs, 1u);
}

TEST(SubChannel, AutoRefreshFollowsSchedule)
{
    auto ch = nullChannel(baseConfig(1));
    ch.advanceTo(10 * ch.timing().tREFI + 1);
    EXPECT_EQ(ch.stats().refs, 10u);
    EXPECT_EQ(ch.refreshScheduler(0).nextGroup(), 10u);
}

TEST(SubChannel, RefreshResetsHammerState)
{
    auto ch = nullChannel(baseConfig(1));
    // Row 0 belongs to group 0, refreshed by the very first REF.
    for (int i = 0; i < 5; ++i)
        ch.activate(0, 0);
    ch.advanceTo(ch.timing().tREFI + 1);
    EXPECT_EQ(ch.security(0).hammerCount(0), 0u);
}

TEST(SubChannel, MoatAlertStallsAndMitigates)
{
    mitigation::MoatConfig m; // ATH 64
    auto ch = moatChannel(baseConfig(1), m);
    const RowId row = 30000;
    for (uint32_t i = 0; i < m.ath + 1; ++i)
        ch.activate(0, row);
    EXPECT_EQ(ch.abo().alertCount(), 1u);
    // The row is mitigated by the RFM once the alert window elapses.
    ch.advanceTo(ch.now() + fromNs(600));
    EXPECT_EQ(ch.bank(0).counter(row), 0u);
    EXPECT_EQ(ch.mitigationStats().alertMitigations, 1u);
}

TEST(SubChannel, ThreeActsFitInAlertNormalWindow)
{
    // Section 5.1: 3 ACTs fit in the 180 ns window before the RFM.
    mitigation::MoatConfig m;
    auto ch = moatChannel(baseConfig(1), m);
    const RowId row = 30000;
    for (uint32_t i = 0; i < m.ath + 1; ++i)
        ch.activate(0, row);
    const Time assert_time = ch.now() + ch.timing().tRC;
    uint32_t in_window = 0;
    for (int i = 0; i < 6; ++i) {
        const Time t = ch.activate(0, 40000 + 8 * i);
        if (t + ch.timing().tRC <= assert_time + fromNs(180))
            ++in_window;
    }
    EXPECT_EQ(in_window, 3u);
}

TEST(SubChannel, MinimumActsBetweenAlerts)
{
    // After an ALERT's RFM, at least L activations must complete
    // before the next assertion (Figure 8).
    mitigation::MoatConfig m;
    auto ch = moatChannel(baseConfig(1), m);
    // Prime two rows just below ATH, then push both over.
    const RowId a = 30000, b = 30008;
    for (uint32_t i = 0; i < m.ath; ++i)
        ch.activate(0, a);
    for (uint32_t i = 0; i < m.ath; ++i)
        ch.activate(0, b);
    ch.activate(0, a); // alert 1 asserted for a
    ch.activate(0, b); // b now above ATH too
    ch.activate(0, b);
    ch.activate(0, b);
    ch.activate(0, b); // post-RFM act enables alert 2
    ch.activate(0, b);
    EXPECT_EQ(ch.abo().alertCount(), 2u);
    EXPECT_GE(ch.abo().totalStallTime(), 2 * fromNs(350));
}

TEST(SubChannel, AlertMitigatesOneRowInEveryBank)
{
    // Section 7.2: a synchronized multi-bank pattern gains nothing;
    // each ALERT mitigates one row from each bank.
    mitigation::MoatConfig m;
    auto ch = moatChannel(baseConfig(2), m);
    const RowId a = 30000, b = 40000;
    for (uint32_t i = 0; i < m.ath; ++i) {
        ch.activate(0, a);
        ch.activate(1, b);
    }
    ch.activate(0, a); // alert for bank 0
    ch.advanceTo(ch.now() + fromNs(600)); // let the RFM run
    EXPECT_EQ(ch.bank(0).counter(a), 0u);
    EXPECT_EQ(ch.bank(1).counter(b), 0u) << "bank 1's CTA mitigated too";
}

TEST(SubChannel, PostponementBatchesThreeRefs)
{
    auto ch = nullChannel(baseConfig(1));
    ch.setPostponeRefresh(true);
    // Two boundaries postponed, the third issues a batch of three.
    ch.advanceTo(3 * ch.timing().tREFI + 1);
    EXPECT_EQ(ch.stats().postponedRefs, 2u);
    EXPECT_EQ(ch.stats().refs, 3u);
}

TEST(SubChannel, PostponementWindowAllows201Acts)
{
    // Appendix B: up to 201 activations between REF batches.
    auto ch = nullChannel(baseConfig(1));
    ch.setPostponeRefresh(true);
    ch.advanceTo(3 * ch.timing().tREFI + 1); // first batch done
    const Time batch_end = ch.now() + 3 * ch.timing().tRFC;
    uint32_t acts = 0;
    for (int i = 0; i < 250; ++i) {
        ch.activate(0, 100);
        if (ch.stats().refs > 3)
            break;
        ++acts;
    }
    (void)batch_end;
    EXPECT_NEAR(acts, 201, 2);
}

TEST(SubChannel, StatsCountActs)
{
    auto ch = nullChannel(baseConfig());
    for (int i = 0; i < 10; ++i)
        ch.activate(0, 1 + 8 * i);
    EXPECT_EQ(ch.stats().acts, 10u);
}

TEST(SubChannel, SecurityDisabledSkipsTracking)
{
    // The oracle's storage is elided entirely when tracking is off;
    // the aggregate view reports nothing tracked.
    SubChannelConfig sc = baseConfig(1);
    sc.securityBanks = SecurityBanks::none();
    auto ch = nullChannel(sc);
    for (int i = 0; i < 10; ++i)
        ch.activate(0, 100);
    EXPECT_EQ(ch.maxHammerAnyBank(), 0u);
}

TEST(SubChannel, SingleBankScopeObservesOnlyThatBank)
{
    // maxHammerAnyBank() covers observed banks only: bank 2 is hammered
    // harder, but only bank 1 is tracked, so bank 1's count is the max.
    SubChannelConfig sc = baseConfig(4);
    sc.securityBanks = SecurityBanks::only(1);
    auto ch = nullChannel(sc);
    for (int i = 0; i < 5; ++i)
        ch.activate(1, 100);
    for (int i = 0; i < 9; ++i)
        ch.activate(2, 100);
    EXPECT_EQ(ch.security(1).hammerCount(100), 5u);
    EXPECT_EQ(ch.maxHammerAnyBank(), 5u);
    EXPECT_EQ(SecurityBanks::only(1).describe(), "bank 1");
    EXPECT_EQ(SecurityBanks::all().describe(), "all");
    EXPECT_EQ(SecurityBanks::none().describe(), "none");
}

TEST(SubChannel, SecurityScopeNeverChangesBehaviour)
{
    // The oracle only observes: the same ACT stream against MOAT gives
    // the same timing, ALERTs, mitigations and counters at any scope.
    mitigation::MoatConfig m;
    m.ath = 16;
    m.eth = 8;
    std::vector<std::vector<uint64_t>> runs;
    for (const SecurityBanks scope :
         {SecurityBanks::all(), SecurityBanks::none(),
          SecurityBanks::only(1)}) {
        SubChannelConfig sc = baseConfig(4);
        sc.securityBanks = scope;
        auto ch = moatChannel(sc, m);
        std::vector<uint64_t> trace;
        for (int i = 0; i < 400; ++i) {
            const BankId b = static_cast<BankId>(i % 3);
            trace.push_back(static_cast<uint64_t>(
                ch.activate(b, static_cast<RowId>(100 + 2 * (i % 5)))));
        }
        const auto stats = ch.mitigationStats();
        trace.push_back(ch.abo().alertCount());
        trace.push_back(stats.totalMitigations());
        trace.push_back(ch.stats().refs);
        for (BankId b = 0; b < 4; ++b)
            trace.push_back(ch.bank(b).counter(100));
        runs.push_back(std::move(trace));
    }
    EXPECT_GT(runs[0][400], 0u) << "the stream must raise ALERTs";
    EXPECT_EQ(runs[0], runs[1]);
    EXPECT_EQ(runs[0], runs[2]);
}

TEST(SubChannelDeathTest, SecurityOfUnobservedBankNamesTheBank)
{
    SubChannelConfig sc = baseConfig(4);
    sc.securityBanks = SecurityBanks::only(1);
    auto ch = nullChannel(sc);
    EXPECT_EXIT((void)ch.security(2), testing::ExitedWithCode(1),
                "elided on bank 2 .*tracks bank 1");

    sc.securityBanks = SecurityBanks::none();
    auto none = nullChannel(sc);
    EXPECT_EXIT((void)none.security(0), testing::ExitedWithCode(1),
                "elided on bank 0 .*tracks none");
    EXPECT_EXIT((void)none.security(9), testing::ExitedWithCode(1),
                "bank 9 out of range");
}

TEST(SubChannelDeathTest, ScopeOutsideTheChannelIsRejected)
{
    SubChannelConfig sc = baseConfig(4);
    sc.securityBanks = SecurityBanks::only(7);
    EXPECT_EXIT(nullChannel(sc), testing::ExitedWithCode(1),
                "securityBanks names bank 7, outside the 4");
}

/**
 * A design outside the registry: forwards every hook to an owned
 * MoatMitigator but inherits kind() == Custom, so the sub-channel can
 * only reach it through the virtual interface.
 */
class ForwardingMoat final : public mitigation::IMitigator
{
  public:
    explicit ForwardingMoat(const mitigation::MoatConfig &config)
        : inner_(config)
    {
    }

    void onActivate(RowId row, mitigation::MitigationContext &ctx) override
    {
        inner_.onActivate(row, ctx);
    }
    void onRefCommand(mitigation::MitigationContext &ctx) override
    {
        inner_.onRefCommand(ctx);
    }
    void onAutoRefresh(RowId first, RowId last,
                       mitigation::MitigationContext &ctx) override
    {
        inner_.onAutoRefresh(first, last, ctx);
    }
    void onAlertAsserted(mitigation::MitigationContext &ctx) override
    {
        inner_.onAlertAsserted(ctx);
    }
    void onRfm(mitigation::MitigationContext &ctx) override
    {
        inner_.onRfm(ctx);
    }
    bool wantsAlert() const override { return inner_.wantsAlert(); }
    std::string name() const override { return "forwarding-moat"; }
    uint32_t sramBytesPerBank() const override
    {
        return inner_.sramBytesPerBank();
    }

  private:
    mitigation::MoatMitigator inner_;
};

TEST(SubChannel, CustomMitigatorMatchesSealedDispatch)
{
    // The virtual fallback of the sealed dispatch switch must run the
    // same hooks in the same order as the devirtualized registry path.
    const auto spec = mitigation::Registry::parse("moat:ath=32,eth=16");
    const auto probe = spec.factory()(0);
    ASSERT_EQ(probe->kind(), mitigation::MitigatorKind::Moat);
    const mitigation::MoatConfig config =
        static_cast<const mitigation::MoatMitigator &>(*probe).config();
    ASSERT_EQ(ForwardingMoat(config).kind(),
              mitigation::MitigatorKind::Custom);

    // Two cores hammering one row per sub-channel: ALERT-heavy.
    std::vector<workload::CoreTrace> traces(2);
    for (uint32_t sc = 0; sc < 2; ++sc) {
        traces[sc].window = fromNs(80000);
        for (int i = 0; i < 800; ++i)
            traces[sc].events.push_back(
                {.at = static_cast<Time>(i) * fromNs(60),
                 .row = 7,
                 .bank = 0,
                 .subchannel = static_cast<uint16_t>(sc)});
    }
    sim::SystemConfig cfg;
    cfg.channel.numBanks = 4;
    cfg.channel.securityBanks = SecurityBanks::none();
    cfg.subchannels = 2;

    sim::System sealed(cfg, spec.factory());
    sim::System custom(cfg, [&](BankId) {
        return std::make_unique<ForwardingMoat>(config);
    });
    const sim::SystemResult a = sim::runSystem(sealed, traces);
    const sim::SystemResult b = sim::runSystem(custom, traces);

    EXPECT_EQ(a.coreFinish, b.coreFinish);
    EXPECT_EQ(a.alerts, b.alerts);
    EXPECT_EQ(a.refs, b.refs);
    ASSERT_EQ(a.perSubchannel.size(), b.perSubchannel.size());
    for (size_t i = 0; i < a.perSubchannel.size(); ++i)
        EXPECT_EQ(a.perSubchannel[i].rfms, b.perSubchannel[i].rfms);
    const auto ma = sealed.mitigationStats();
    const auto mb = custom.mitigationStats();
    EXPECT_EQ(ma.proactiveMitigations, mb.proactiveMitigations);
    EXPECT_EQ(ma.alertMitigations, mb.alertMitigations);
    EXPECT_EQ(ma.victimRefreshes, mb.victimRefreshes);
    EXPECT_EQ(ma.counterResets, mb.counterResets);
    ASSERT_GT(a.alerts, 0u); // the comparison must bite
}

TEST(SubChannel, RefreshResetsRowsDisabledKeepsCounters)
{
    SubChannelConfig sc = baseConfig(1);
    sc.refreshResetsRows = false;
    mitigation::MoatConfig m;
    auto ch = moatChannel(sc, m);
    for (int i = 0; i < 10; ++i)
        ch.activate(0, 0); // group 0: would be reset by first REF
    ch.advanceTo(2 * ch.timing().tREFI);
    EXPECT_EQ(ch.bank(0).counter(0), 10u);
    EXPECT_EQ(ch.security(0).hammerCount(0), 10u);
}

TEST(SubChannel, DefaultBankCountFromTiming)
{
    SubChannelConfig sc;
    auto ch = nullChannel(sc);
    EXPECT_EQ(ch.numBanks(), 32u);
}

TEST(SubChannel, FawLimitsBurstsAcrossManyBanks)
{
    SubChannelConfig sc = baseConfig(8);
    auto ch = nullChannel(sc);
    // Issue one ACT to each of 8 banks; the 5th must wait for tFAW
    // after the 1st.
    std::vector<Time> times;
    for (BankId b = 0; b < 8; ++b)
        times.push_back(ch.activate(b, 100));
    EXPECT_GE(times[4] - times[0], ch.timing().tFAW);
}

} // namespace
} // namespace moatsim::subchannel
