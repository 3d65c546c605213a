/**
 * @file
 * Allocation-free per-LPN hazard chains.
 *
 * The NVMHC keeps, for every logical page with in-flight host
 * requests, the FIFO of those requests (per-LPN ordering is the
 * hazard rule: only the oldest request on an LPN may proceed). A
 * std::unordered_map<Lpn, deque> allocates a node per insert; this
 * map instead threads the chain through the requests themselves
 * (MemoryRequest::lpnNext) and keeps only (key, head, tail) slots in
 * a linear-probing table. The table doubles on growth, so once it
 * reaches its high-water mark — bounded by the in-flight page count,
 * which the NCQ queue depth bounds — enqueue touches the heap never.
 *
 * Each chained request also carries its place on the chain
 * (MemoryRequest::onLpnChain, ::lpnHead): the hazard check of a
 * scheduler poll reads the request's head bit, not the table.
 */

#ifndef SPK_SCHED_LPN_CHAIN_HH
#define SPK_SCHED_LPN_CHAIN_HH

#include <cstdint>
#include <vector>

#include "flash/mem_request.hh"
#include "sim/types.hh"

namespace spk
{

/**
 * Open-addressing map Lpn -> intrusive FIFO of MemoryRequests.
 *
 * Linear probing with backward-shift deletion (no tombstones), so
 * lookup cost stays bounded at steady state. Chains are erased
 * automatically when their last request is popped. A request's
 * onLpnChain bit is set while it is chained and its lpnHead bit while
 * it is its chain's front: pushBack onto an empty chain sets it, and
 * popFront hands it to the next request.
 */
class LpnChainMap
{
  public:
    LpnChainMap() { slots_.resize(kInitialSlots); }

    /** Requests chained across all LPNs. */
    std::size_t size() const { return chained_; }

    /** Distinct LPNs with a non-empty chain. */
    std::size_t chains() const { return used_; }

    /** Append @p req to @p lpn's chain (newest hazard position). */
    void
    pushBack(Lpn lpn, MemoryRequest *req)
    {
        if ((used_ + 1) * 2 > slots_.size())
            grow();
        req->lpnNext = nullptr;
        req->onLpnChain = true;
        Slot &slot = findSlot(lpn);
        if (slot.head == nullptr) {
            slot.key = lpn;
            slot.head = req;
            req->lpnHead = true;
            ++used_;
        } else {
            slot.tail->lpnNext = req;
        }
        slot.tail = req;
        ++chained_;
    }

    /** Oldest pending request on @p lpn; nullptr when none. A
     *  request's lpnHead bit answers "is it the oldest?" without the
     *  probe. */
    MemoryRequest *
    front(Lpn lpn) const
    {
        const Slot *slot = find(lpn);
        return slot == nullptr ? nullptr : slot->head;
    }

    /**
     * Remove the oldest request on @p lpn.
     * @return the removed request, or nullptr if the chain was empty.
     */
    MemoryRequest *
    popFront(Lpn lpn)
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = indexOf(lpn);
        while (true) {
            Slot &slot = slots_[i];
            if (slot.head == nullptr)
                return nullptr;
            if (slot.key == lpn)
                break;
            i = (i + 1) & mask;
        }
        Slot &slot = slots_[i];
        MemoryRequest *req = slot.head;
        slot.head = req->lpnNext;
        req->lpnNext = nullptr;
        req->onLpnChain = false;
        req->lpnHead = false;
        --chained_;
        if (slot.head == nullptr) {
            slot.tail = nullptr;
            erase(i);
            --used_;
        } else {
            slot.head->lpnHead = true;
        }
        return req;
    }

    /** Visit every request on @p lpn's chain, oldest first. */
    template <typename Fn>
    void
    forEach(Lpn lpn, Fn &&fn) const
    {
        const Slot *slot = find(lpn);
        if (slot == nullptr)
            return;
        for (MemoryRequest *req = slot->head; req != nullptr;
             req = req->lpnNext) {
            fn(req);
        }
    }

  private:
    struct Slot
    {
        Lpn key = 0;
        MemoryRequest *head = nullptr; //!< nullptr marks an empty slot
        MemoryRequest *tail = nullptr;
    };

    static constexpr std::size_t kInitialSlots = 64; // power of two

    /** splitmix64 finalizer: LPNs are often sequential. */
    static std::size_t
    mix(Lpn lpn)
    {
        std::uint64_t x = lpn + 0x9E3779B97F4A7C15ull;
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
        x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
        return static_cast<std::size_t>(x ^ (x >> 31));
    }

    std::size_t
    indexOf(Lpn lpn) const
    {
        return mix(lpn) & (slots_.size() - 1);
    }

    const Slot *
    find(Lpn lpn) const
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = indexOf(lpn);
        while (slots_[i].head != nullptr) {
            if (slots_[i].key == lpn)
                return &slots_[i];
            i = (i + 1) & mask;
        }
        return nullptr;
    }

    Slot &
    findSlot(Lpn lpn)
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = indexOf(lpn);
        while (slots_[i].head != nullptr && slots_[i].key != lpn)
            i = (i + 1) & mask;
        return slots_[i];
    }

    /** Backward-shift deletion keeps probe sequences gap-free. */
    void
    erase(std::size_t i)
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t j = i;
        slots_[i] = Slot{};
        while (true) {
            j = (j + 1) & mask;
            if (slots_[j].head == nullptr)
                return;
            const std::size_t k = indexOf(slots_[j].key);
            // Leave entries whose home position k lies in (i, j]
            // (cyclically): moving them would break their probe path.
            const bool home_between =
                i <= j ? (i < k && k <= j) : (i < k || k <= j);
            if (home_between)
                continue;
            slots_[i] = slots_[j];
            slots_[j] = Slot{};
            i = j;
        }
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(old.size() * 2, Slot{});
        for (const Slot &slot : old) {
            if (slot.head == nullptr)
                continue;
            Slot &fresh = findSlot(slot.key);
            fresh = slot;
        }
    }

    std::vector<Slot> slots_;
    std::size_t used_ = 0;    //!< occupied slots (distinct LPNs)
    std::size_t chained_ = 0; //!< total chained requests
};

} // namespace spk

#endif // SPK_SCHED_LPN_CHAIN_HH
