/**
 * @file
 * Tests of the DDR5 timing parameters and the paper's derived numbers.
 */

#include <gtest/gtest.h>

#include "dram/timing.hh"

namespace moatsim::dram
{
namespace
{

TEST(Timing, PaperTable1Defaults)
{
    TimingParams t;
    EXPECT_EQ(t.tACT, fromNs(12));
    EXPECT_EQ(t.tPRE, fromNs(36));
    EXPECT_EQ(t.tRAS, fromNs(16));
    EXPECT_EQ(t.tRC, fromNs(52));
    EXPECT_EQ(t.tREFW, fromNs(32'000'000));
    EXPECT_EQ(t.tREFI, fromNs(3900));
    EXPECT_EQ(t.tRFC, fromNs(410));
}

TEST(Timing, SixtySevenActsPerRefi)
{
    // Section 2.2: (3900 - 410) / 52 = 67 activations fit in a tREFI.
    TimingParams t;
    EXPECT_EQ(t.actsPerRefi(), 67u);
}

TEST(Timing, RefisPerRefw)
{
    TimingParams t;
    EXPECT_EQ(t.refisPerRefw(), 8205u);
}

TEST(Timing, EightRowsPerRefreshGroup)
{
    // 64K rows / 8192 groups = 8 rows per group (Section 4.3).
    TimingParams t;
    EXPECT_EQ(t.rowsPerGroup(), 8u);
}

TEST(Timing, AvailableWindowMatchesAppendixA)
{
    // Appendix A: tREFW minus refresh time = 28.64 ms.
    TimingParams t;
    EXPECT_NEAR(toMs(t.availableWindow()), 28.64, 0.01);
}

TEST(Timing, VictimsPerMitigation)
{
    TimingParams t;
    EXPECT_EQ(t.victimsPerMitigation(), 4u);
}

TEST(Timing, AlertToAlertPerLevel)
{
    // Appendix A: tA2A = 180ns + (350 + 52)ns * L.
    TimingParams t;
    EXPECT_EQ(t.alertToAlert(1), fromNs(582));
    EXPECT_EQ(t.alertToAlert(2), fromNs(984));
    EXPECT_EQ(t.alertToAlert(4), fromNs(1788));
}

TEST(Timing, ActsPerAlertWindow)
{
    // Figure 8: level 1 -> 4 ACTs, level 4 -> 7 ACTs.
    TimingParams t;
    EXPECT_EQ(t.actsPerAlertWindow(1), 4u);
    EXPECT_EQ(t.actsPerAlertWindow(2), 5u);
    EXPECT_EQ(t.actsPerAlertWindow(4), 7u);
}

TEST(TimingDeathTest, ValidateRejectsBadGeometry)
{
    TimingParams t;
    t.rowsPerBank = 100; // not a multiple of refreshGroups
    EXPECT_EXIT(t.validate(), testing::ExitedWithCode(1), "multiple");
}

TEST(TimingDeathTest, ValidateRejectsHugeRfc)
{
    TimingParams t;
    t.tRFC = t.tREFI + 1;
    EXPECT_EXIT(t.validate(), testing::ExitedWithCode(1), "tRFC");
}

TEST(Timing, TruncationRemainders)
{
    // 32 ms % 3900 ns and (3900 - 410) % 52 ns: what refisPerRefw()
    // and actsPerRefi() drop on the Table-1 device.
    TimingParams t;
    EXPECT_EQ(t.refwRemainder(), fromNs(500));
    EXPECT_EQ(t.refiActRemainder(), fromNs(6));
}

TEST(Timing, ValidateIsQuietOnTruncatingGrades)
{
    // The remainders are a known property of a grade, listed by
    // `moatsim list-devices`; validation stays silent on every grade,
    // not just on the first one a process validates.
    TimingParams fast;
    fast.tRC = fromNs(44);
    fast.tRFC = fromNs(350);
    ASSERT_NE(fast.refiActRemainder(), 0);
    testing::internal::CaptureStderr();
    fast.validate();
    TimingParams{}.validate();
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(Timing, ValidateAcceptsDefaults)
{
    TimingParams t;
    t.validate(); // must not exit
    SUCCEED();
}

} // namespace
} // namespace moatsim::dram
