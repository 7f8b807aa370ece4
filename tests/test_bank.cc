/**
 * @file
 * Unit tests for the DRAM bank model with PRAC counters.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "dram/bank.hh"

namespace moatsim::dram
{
namespace
{

TimingParams
smallTiming()
{
    TimingParams t;
    t.rowsPerBank = 1024;
    t.refreshGroups = 128;
    return t;
}

TEST(Bank, StartsClosedAndZeroed)
{
    Bank b(smallTiming(), CounterInit::Zero);
    EXPECT_EQ(b.openRow(), kInvalidRow);
    EXPECT_EQ(b.numRows(), 1024u);
    for (RowId r = 0; r < b.numRows(); r += 97)
        EXPECT_EQ(b.counter(r), 0u);
    EXPECT_EQ(b.totalActivations(), 0u);
}

TEST(Bank, ActivateIncrementsCounter)
{
    Bank b(smallTiming(), CounterInit::Zero);
    EXPECT_EQ(b.activate(5), 1u);
    EXPECT_EQ(b.activate(5), 2u);
    EXPECT_EQ(b.activate(7), 1u);
    EXPECT_EQ(b.counter(5), 2u);
    EXPECT_EQ(b.counter(7), 1u);
    EXPECT_EQ(b.totalActivations(), 3u);
}

TEST(Bank, ActivateOpensRowPrechargeCloses)
{
    Bank b(smallTiming(), CounterInit::Zero);
    b.activate(11);
    EXPECT_EQ(b.openRow(), 11u);
    b.precharge();
    EXPECT_EQ(b.openRow(), kInvalidRow);
}

TEST(Bank, ResetCounterZeroesOnlyThatRow)
{
    Bank b(smallTiming(), CounterInit::Zero);
    b.activate(3);
    b.activate(3);
    b.activate(4);
    b.resetCounter(3);
    EXPECT_EQ(b.counter(3), 0u);
    EXPECT_EQ(b.counter(4), 1u);
}

TEST(Bank, RandomInitStaysInByteRange)
{
    Rng rng(1);
    Bank b(smallTiming(), CounterInit::RandomByte, &rng);
    std::vector<Bank::StoredCount> slab(smallTiming().rowsPerBank);
    Bank s(smallTiming(), CounterInit::RandomByte, &rng, slab);
    for (const Bank *bank : {&b, &s}) {
        uint32_t nonzero = 0;
        for (RowId r = 0; r < bank->numRows(); ++r) {
            EXPECT_LE(bank->counter(r), 255u);
            nonzero += (bank->counter(r) != 0);
        }
        EXPECT_GT(nonzero, bank->numRows() / 2);
    }
}

TEST(Bank, RandomInitIsSeedDeterministic)
{
    Rng r1(77), r2(77);
    Bank a(smallTiming(), CounterInit::RandomByte, &r1);
    Bank b(smallTiming(), CounterInit::RandomByte, &r2);
    for (RowId r = 0; r < a.numRows(); ++r)
        EXPECT_EQ(a.counter(r), b.counter(r));
}

TEST(BankDeathTest, RandomInitWithoutRngIsFatal)
{
    EXPECT_EXIT(Bank(smallTiming(), CounterInit::RandomByte, nullptr),
                testing::ExitedWithCode(1), "Rng");
}

TEST(Bank, CounterIsFreeRunningPastThresholdBits)
{
    Bank b(smallTiming(), CounterInit::Zero);
    for (int i = 0; i < 300; ++i)
        b.activate(0);
    EXPECT_EQ(b.counter(0), 300u);
}

/** Largest count the 16-bit counter slab stores itself. */
constexpr ActCount kSlabMax = 0xFFFF;

/** @p n activations of @p row, each checked against its exact count. */
void
activateAndCheck(Bank &b, RowId row, ActCount from, ActCount n)
{
    for (ActCount i = 1; i <= n; ++i)
        ASSERT_EQ(b.activate(row), from + i) << "activation " << i;
}

TEST(Bank, CountsPastSixteenBitsStayExact)
{
    // 70,000 ACTs overrun the 16-bit stored counter; the overflow
    // tail must keep every returned and read-back count exact, both
    // for a bank owning its counters and for a slab-backed one.
    std::vector<Bank::StoredCount> slab(smallTiming().rowsPerBank);
    Bank owned(smallTiming(), CounterInit::Zero);
    Bank backed(smallTiming(), CounterInit::Zero, nullptr, slab);
    for (Bank *b : {&owned, &backed}) {
        activateAndCheck(*b, 9, 0, 70000);
        EXPECT_EQ(b->counter(9), 70000u);
        EXPECT_EQ(b->counter(8), 0u);
        EXPECT_EQ(b->counter(10), 0u);
        EXPECT_EQ(b->totalActivations(), 70000u);
    }
    // The slab holds only the storage limit; the exact count is the
    // bank's.
    EXPECT_EQ(slab[9], kSlabMax);
}

TEST(Bank, ResetPastTheTailRestartsFromZero)
{
    Bank b(smallTiming(), CounterInit::Zero);
    // Rows 3 and 700 enter the tail in reverse row order; row 5 stops
    // one short of it.
    activateAndCheck(b, 700, 0, kSlabMax + 1);
    activateAndCheck(b, 3, 0, kSlabMax);
    activateAndCheck(b, 5, 0, kSlabMax - 1);
    activateAndCheck(b, 3, kSlabMax, 10);

    b.resetCounter(700);
    EXPECT_EQ(b.counter(700), 0u);
    EXPECT_EQ(b.activate(700), 1u);
    EXPECT_EQ(b.counter(3), kSlabMax + 10);
    EXPECT_EQ(b.counter(5), kSlabMax - 1);

    b.resetCounter(3);
    EXPECT_EQ(b.counter(3), 0u);
    EXPECT_EQ(b.activate(3), 1u);
    // A row can re-enter the tail after leaving it.
    activateAndCheck(b, 700, 1, kSlabMax + 1);
    EXPECT_EQ(b.counter(700), kSlabMax + 2);
    EXPECT_EQ(b.activate(5), kSlabMax);
}

} // namespace
} // namespace moatsim::dram
