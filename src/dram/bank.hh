/**
 * @file
 * Behavioural model of one DRAM bank with PRAC per-row activation
 * counters.
 *
 * The bank tracks only what Rowhammer mitigation needs: one activation
 * counter per row (the PRAC counter stored inline with the row) and the
 * currently open row. Data contents are not modelled.
 *
 * Counters are stored in 16 bits: mitigators compare them with
 * thresholds in the tens to hundreds, and the per-ACT counter update
 * is the replay loop's dominant cache miss, so half the bytes per row
 * is half the slab to miss in. A row whose count reaches 0xFFFF moves
 * to a small per-bank overflow tail that holds its full 32-bit count,
 * so every accessor still returns the exact ActCount: the narrowing
 * is a storage layout, not a saturation semantic. Per the JEDEC
 * PRAC extension, the counter read-modify-write physically happens
 * during precharge; behaviourally we increment it at activate() and the
 * sub-channel delays any resulting ALERT to the precharge point.
 */

#ifndef MOATSIM_DRAM_BANK_HH
#define MOATSIM_DRAM_BANK_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "dram/timing.hh"

namespace moatsim::dram
{

/** How PRAC counters are initialized at power-up. */
enum class CounterInit
{
    /** All counters start at zero (deterministic Panopticon / MOAT). */
    Zero,
    /** Counters start uniformly random in [0, 255] (randomized
     *  Panopticon, Section 3.3). */
    RandomByte,
};

/** One DRAM bank: PRAC counters plus open-row state. */
class Bank
{
  public:
    /** Storage width of one PRAC counter (see the file comment). */
    using StoredCount = uint16_t;

    /**
     * Construct a bank.
     *
     * @param params Geometry (rowsPerBank is taken from here).
     * @param init Counter initialization policy.
     * @param rng Generator for randomized initialization; may be null
     *            when init is CounterInit::Zero.
     */
    Bank(const TimingParams &params, CounterInit init, Rng *rng = nullptr);

    /**
     * Construct a bank whose counters live in caller-owned @p storage
     * (rowsPerBank zero-initialized entries). A SubChannel hands every
     * bank a slice of one flat slab, so building a 64-bank system
     * costs one large allocation instead of one multi-hundred-KB
     * allocation (and its page faults) per bank. The storage must
     * outlive the bank.
     */
    Bank(const TimingParams &params, CounterInit init, Rng *rng,
         std::span<StoredCount> storage);

    /**
     * Moves keep the counters valid (both storage flavours live on
     * the heap); copies are deleted -- a copy's span would alias the
     * source's storage instead of its own.
     */
    Bank(Bank &&) = default;
    Bank &operator=(Bank &&) = default;
    Bank(const Bank &) = delete;
    Bank &operator=(const Bank &) = delete;

    /** Number of rows in this bank. */
    uint32_t numRows() const { return static_cast<uint32_t>(counters_.size()); }

    /**
     * Activate a row: opens it and increments its PRAC counter.
     * @return the counter value after the increment.
     */
    ActCount activate(RowId row);

    /** Precharge the open row (no-op when already closed). */
    void precharge() { open_row_ = kInvalidRow; }

    /** Row currently open, or kInvalidRow. */
    RowId openRow() const { return open_row_; }

    /** Current PRAC counter of a row. */
    ActCount counter(RowId row) const;

    /**
     * Hint that @p row's counter is about to be read-modify-written.
     * The per-ACT counter update is a random access into a multi-MB
     * array, so the replay loop prefetches the next event's counter
     * while earlier events are still being issued. Pure hint: no
     * state changes.
     */
    void prefetchCounter(RowId row) const
    {
        if (row < counters_.size())
            __builtin_prefetch(&counters_[row], 1, 1);
    }

    /** Reset a row's PRAC counter to zero (mitigation / refresh). */
    void resetCounter(RowId row);

    /** Total activations ever issued to this bank. */
    uint64_t totalActivations() const { return total_acts_; }

  private:
    /** Stored value marking a row whose count lives in tail_. */
    static constexpr StoredCount kInTail = 0xFFFF;

    /** A row whose count reached kInTail, with its exact count. */
    struct TailEntry
    {
        RowId row;
        ActCount count;
    };

    /** Backing storage when the bank owns its counters (empty when a
     *  caller-owned slab backs them). */
    std::vector<StoredCount> owned_;
    /** The counters; views owned_ or the caller's slab. Stays valid
     *  across moves (both point at heap storage). */
    std::span<StoredCount> counters_;
    /**
     * Exact counts of the rows whose stored counter is kInTail, sorted
     * by row. Only a row activated 65535 times without a reset lands
     * here, so the tail stays empty unless a row goes unmitigated
     * that long.
     */
    std::vector<TailEntry> tail_;
    RowId open_row_ = kInvalidRow;
    uint64_t total_acts_ = 0;
};

} // namespace moatsim::dram

#endif // MOATSIM_DRAM_BANK_HH
