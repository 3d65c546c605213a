/**
 * @file
 * Shared channel bus with eager reservation and contention accounting.
 *
 * Multiple flash chips share one channel (Section 2.1). A transaction
 * holds the bus for its command/data-in phase, releases it during cell
 * activity (channel pipelining), and for reads re-acquires it to
 * stream data out.
 *
 * The bus is modeled as a timeline of disjoint reservations. A read
 * transaction reserves both of its bus phases through one batched
 * arbitration call (acquirePlan) at launch: the data-out slot is
 * booked no earlier than the cell phases finish, and later command
 * phases from other chips first-fit into the gap the cell latency
 * leaves open — which preserves channel pipelining without the
 * mid-transaction re-arbitration event the lazy scheme needed.
 */

#ifndef SPK_CONTROLLER_CHANNEL_HH
#define SPK_CONTROLLER_CHANNEL_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace spk
{

/** Aggregate channel statistics for the execution-time breakdown. */
struct ChannelStats
{
    Tick busHeldTime = 0;    //!< total time the bus carried traffic
    Tick contentionTime = 0; //!< total time requesters waited
};

/** Both grant ticks of a batched (two-phase) bus reservation. */
struct ChannelGrant
{
    Tick cmdStart = 0;     //!< command/data-in phase start
    Tick dataOutStart = 0; //!< data-out phase start (reads only)
};

/**
 * One channel bus. Grants are reserved eagerly in event order, which
 * keeps the simulation deterministic without a separate arbiter
 * process.
 */
class Channel
{
  public:
    explicit Channel(std::uint32_t index) : index_(index)
    {
        // Islands are bounded by in-flight read transactions (at most
        // one per chip on the channel) plus the rolling front.
        reservations_.reserve(32);
    }

    std::uint32_t index() const { return index_; }

    /**
     * Batched arbitration for a whole transaction: reserve the
     * command/data-in phase (@p cmd_duration ticks, no earlier than
     * @p earliest) and, when @p data_out_duration is non-zero, the
     * data-out phase (no earlier than the command grant plus
     * @p cell_latency). Each phase first-fits into the earliest gap
     * left by existing bookings. Both grants are decided now, so the
     * caller can schedule the transaction end directly instead of
     * re-arbitrating when the cells finish.
     *
     * @pre @p earliest is the caller's current event time (so it is
     *      non-decreasing across calls). Bookings that ended before
     *      it are retired as definitively past; passing a future
     *      tick here would retire still-pending reservations and
     *      double-book the bus.
     */
    ChannelGrant acquirePlan(Tick earliest, Tick cmd_duration,
                             Tick cell_latency, Tick data_out_duration);

    /** Tick at which the last reservation releases the bus. */
    Tick busyUntil() const { return horizon_; }

    const ChannelStats &stats() const { return stats_; }

  private:
    /** Half-open booked interval [start, end). */
    struct Reservation
    {
        Tick start;
        Tick end;
    };

    /** Drop reservations that ended at or before @p before. */
    void retire(Tick before);

    /**
     * Book @p duration ticks at the earliest gap at or after
     * @p earliest, and return the grant tick.
     */
    Tick place(Tick earliest, Tick duration);

    /** place() plus the per-phase statistics. */
    Tick grantPhase(Tick earliest, Tick duration);

    std::uint32_t index_;
    Tick horizon_ = 0; //!< max end over all reservations ever made
    std::vector<Reservation> reservations_; //!< sorted, disjoint
    ChannelStats stats_;
};

} // namespace spk

#endif // SPK_CONTROLLER_CHANNEL_HH
