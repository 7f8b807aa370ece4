#include "dram/bank.hh"

#include <algorithm>
#include <cassert>

#include "common/logging.hh"

namespace moatsim::dram
{

namespace
{

void
initCounters(std::span<Bank::StoredCount> counters, CounterInit init,
             Rng *rng)
{
    if (init == CounterInit::RandomByte) {
        if (rng == nullptr)
            fatal("Bank: RandomByte counter init requires an Rng");
        for (auto &c : counters)
            c = static_cast<Bank::StoredCount>(rng->below(256));
    }
}

/** First entry of the row-sorted @p tail whose row is not below @p row. */
template <typename Tail>
auto
tailBound(Tail &tail, RowId row)
{
    return std::lower_bound(
        tail.begin(), tail.end(), row,
        [](const auto &e, RowId r) { return e.row < r; });
}

} // namespace

Bank::Bank(const TimingParams &params, CounterInit init, Rng *rng)
    : owned_(params.rowsPerBank, 0), counters_(owned_)
{
    initCounters(counters_, init, rng);
}

Bank::Bank(const TimingParams &params, CounterInit init, Rng *rng,
           std::span<StoredCount> storage)
    : counters_(storage)
{
    if (storage.size() != params.rowsPerBank)
        fatal("Bank: counter storage size does not match rowsPerBank");
    initCounters(counters_, init, rng);
}

ActCount
Bank::activate(RowId row)
{
    assert(row < counters_.size());
    open_row_ = row;
    ++total_acts_;
    StoredCount &c = counters_[row];
    if (c != kInTail) {
        if (++c != kInTail)
            return c;
        // The row just reached the storage limit: its exact count
        // continues in the tail.
        tail_.insert(tailBound(tail_, row), {row, kInTail});
        return kInTail;
    }
    return ++tailBound(tail_, row)->count;
}

ActCount
Bank::counter(RowId row) const
{
    assert(row < counters_.size());
    const StoredCount c = counters_[row];
    return c != kInTail ? c : tailBound(tail_, row)->count;
}

void
Bank::resetCounter(RowId row)
{
    assert(row < counters_.size());
    if (counters_[row] == kInTail)
        tail_.erase(tailBound(tail_, row));
    counters_[row] = 0;
}

} // namespace moatsim::dram
