#include "controller/channel.hh"

#include <algorithm>

namespace spk
{

void
Channel::retire(Tick before)
{
    // Drop bookings that ended at or before `before` (the current
    // arbitration event time): event time never decreases, so no
    // later request can land in front of them. Sorted disjoint
    // intervals have non-decreasing ends, making the expired set a
    // prefix. Future bookings (a data-out slot not yet reached) MUST
    // stay: later command phases still have to steer around them.
    auto keep = reservations_.begin();
    while (keep != reservations_.end() && keep->end <= before)
        ++keep;
    if (keep != reservations_.begin())
        reservations_.erase(reservations_.begin(), keep);
}

Tick
Channel::place(Tick earliest, Tick duration)
{
    // First fit: slide past every booking the request overlaps.
    Tick grant = earliest;
    auto pos = reservations_.begin();
    for (; pos != reservations_.end(); ++pos) {
        if (grant + duration <= pos->start)
            break; // fits in the gap before *pos
        grant = std::max(grant, pos->end);
    }

    horizon_ = std::max(horizon_, grant + duration);
    if (duration == 0)
        return grant;

    // Book [grant, grant + duration), coalescing with neighbors so
    // the vector stays at a handful of islands.
    const Tick end = grant + duration;
    const bool joins_prev = pos != reservations_.begin() &&
                            std::prev(pos)->end == grant;
    const bool joins_next = pos != reservations_.end() &&
                            pos->start == end;
    if (joins_prev && joins_next) {
        std::prev(pos)->end = pos->end;
        reservations_.erase(pos);
    } else if (joins_prev) {
        std::prev(pos)->end = end;
    } else if (joins_next) {
        pos->start = grant;
    } else {
        reservations_.insert(pos, Reservation{grant, end});
    }
    return grant;
}

Tick
Channel::grantPhase(Tick earliest, Tick duration)
{
    const Tick grant = place(earliest, duration);
    stats_.contentionTime += grant - earliest;
    stats_.busHeldTime += duration;
    return grant;
}

ChannelGrant
Channel::acquirePlan(Tick earliest, Tick cmd_duration,
                     Tick cell_latency, Tick data_out_duration)
{
    retire(earliest);
    ChannelGrant grant;
    grant.cmdStart = grantPhase(earliest, cmd_duration);
    if (data_out_duration > 0) {
        // The data stream cannot start before the cells are done; the
        // wait beyond that point is bus contention, exactly as the
        // lazy re-arbitration accounted it. No retire here: this
        // earliest is in the transaction's future, not event time.
        const Tick cells_done = grant.cmdStart + cell_latency;
        grant.dataOutStart = grantPhase(cells_done, data_out_duration);
    }
    return grant;
}

} // namespace spk
