#include "controller/flash_controller.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace spk
{

FlashController::FlashController(EventQueue &events, Channel &channel,
                                 std::vector<FlashChip *> chips,
                                 const FlashTiming &timing,
                                 std::uint32_t page_bytes,
                                 Tick decision_window,
                                 CompletionFn on_complete,
                                 const FaultModel *faults,
                                 SoftDecoder *decoder,
                                 ChipOccupancy *occupancy)
    : events_(events),
      channel_(channel),
      chips_(std::move(chips)),
      timing_(timing),
      pageBytes_(page_bytes),
      decisionWindow_(decision_window),
      onComplete_(std::move(on_complete)),
      faults_(faults),
      decoder_(decoder),
      occupancy_(occupancy),
      state_(chips_.size())
{
    if (chips_.empty())
        fatal("FlashController: needs at least one chip");
}

void
FlashController::reserveSteadyState(std::uint32_t queue_depth)
{
    // Host tags 0..depth-1 land on slots 1..depth (slot 0 is GC).
    growTagSlots(std::size_t{queue_depth} + 1);
    for (auto &cs : state_) {
        cs.pending.reserve(queue_depth);
        cs.executing.reserve(queue_depth);
    }
}

void
FlashController::growTagSlots(std::size_t slots)
{
    if (slots <= tagSlots_)
        return;
    std::vector<std::uint32_t> wider(state_.size() * slots, 0);
    for (std::size_t chip = 0; chip < state_.size(); ++chip) {
        std::copy_n(perTag_.begin() + chip * tagSlots_, tagSlots_,
                    wider.begin() + chip * slots);
    }
    perTag_ = std::move(wider);
    tagSlots_ = slots;
}

void
FlashController::commit(MemoryRequest *req, bool front)
{
    if (!req->translated)
        panic("FlashController::commit untranslated request");
    const std::uint32_t offset = req->addr.chipInChannel;
    if (offset >= state_.size())
        panic("FlashController::commit chip offset out of range");

    req->committedAt = events_.now();
    auto &chip_state = state_[offset];
    const std::size_t slot = tagSlot(req->tag);
    if (slot >= tagSlots_)
        growTagSlots(slot + 1);
    if (perTag_[offset * tagSlots_ + slot]++ == 0 && occupancy_)
        occupancy_->addOwner(chips_[offset]->index(), slot);
    if (front)
        chip_state.pending.push_front(req);
    else
        chip_state.pending.push_back(req);
    armLaunch(offset);
}

std::uint32_t
FlashController::outstanding(std::uint32_t chip_offset) const
{
    const auto &cs = state_.at(chip_offset);
    return static_cast<std::uint32_t>(cs.pending.size()) + cs.inFlight;
}

std::uint32_t
FlashController::pendingCount(std::uint32_t chip_offset) const
{
    return static_cast<std::uint32_t>(state_.at(chip_offset).pending.size());
}

std::uint32_t
FlashController::tagOutstanding(std::uint32_t chip_offset,
                                std::size_t slot) const
{
    if (chip_offset >= state_.size())
        panic("FlashController::tagOutstanding chip offset out of range");
    return slot < tagSlots_ ? perTag_[chip_offset * tagSlots_ + slot] : 0;
}

bool
FlashController::drained() const
{
    for (const auto &cs : state_) {
        if (!cs.pending.empty() || cs.inFlight != 0)
            return false;
    }
    return true;
}

std::array<std::uint64_t, 4>
FlashController::txnPerClass() const
{
    std::array<std::uint64_t, 4> sum{};
    for (const auto *chip : chips_) {
        for (int i = 0; i < 4; ++i)
            sum[i] += chip->stats().txnPerClass[i];
    }
    return sum;
}

void
FlashController::armLaunch(std::uint32_t chip_offset)
{
    auto &cs = state_[chip_offset];
    if (cs.launchScheduled || cs.pending.empty())
        return;
    // Only arm when the chip can actually accept a transaction: the
    // end-of-transaction event re-arms otherwise.
    if (!chips_[chip_offset]->readyAt(events_.now()) || cs.inFlight > 0)
        return;
    cs.launchScheduled = true;
    events_.scheduleAfter(decisionWindow_, [this, chip_offset] {
        state_[chip_offset].launchScheduled = false;
        tryLaunch(chip_offset);
    });
}

void
FlashController::tryLaunch(std::uint32_t chip_offset)
{
    auto &cs = state_[chip_offset];
    FlashChip *chip = chips_[chip_offset];
    const Tick now = events_.now();

    if (cs.pending.empty() || cs.inFlight > 0 || !chip->readyAt(now))
        return;

    // Seed with the oldest pending request, then greedily coalesce
    // every compatible one (same op; distinct die/plane; identical
    // page offset within a multi-plane die). Erases never coalesce.
    MemoryRequest *seed = cs.pending.front();
    FlashTransaction txn(seed->op, seed->chip);
    txn.add(seed);

    // Retried reads re-execute solo: their sense phase runs at an
    // escalated ladder latency no coalesced peer would share.
    if (seed->op != FlashOp::Erase && seed->retryAttempt == 0) {
        const std::size_t max_size =
            chip->planesPerChip(); // one request per (die, plane)
        for (auto it = cs.pending.begin() + 1;
             it != cs.pending.end() && txn.size() < max_size; ++it) {
            if ((*it)->retryAttempt == 0 && canCoalesce(txn, **it))
                txn.add(*it);
        }
    }

    // Remove the selected requests from the pending queue.
    for (const auto *req : txn.requests()) {
        auto it = std::find(cs.pending.begin(), cs.pending.end(), req);
        cs.pending.erase(it);
    }

    TransactionPlan plan;
    if (seed->retryAttempt > 0 && faults_) {
        // Ladder step k senses slower than the base tR; re-plan the
        // transaction around the escalated sense latency.
        FlashTiming retry_timing = timing_;
        retry_timing.readLatency = faults_->senseLatency(
            seed->retryAttempt, timing_.readLatency);
        plan = txn.plan(retry_timing, pageBytes_);
    } else {
        plan = txn.plan(timing_, pageBytes_);
    }

    // One batched arbitration call books the command/data-in phase
    // and (for reads) the data-out phase: the data-out slot starts no
    // earlier than the cells finish, and command phases of other
    // chips first-fit into the cell-latency gap it leaves open
    // (channel pipelining) — so no mid-transaction re-arbitration
    // event is needed.
    const ChannelGrant grant = channel_.acquirePlan(
        now, plan.cmdPhase, plan.cellEnd, plan.dataOutPhase);
    const Tick start = grant.cmdStart;
    const Tick cell_end_abs = start + plan.cellEnd;

    const FlpClass flp = txn.classify();
    const Tick provisional_end = std::max(start + plan.cmdPhase,
                                          cell_end_abs);
    chip->beginTransaction(start, provisional_end, plan, flp,
                           txn.size());

    cs.inFlight += static_cast<std::uint32_t>(txn.size());
    stats_.transactions += 1;
    stats_.requestsServed += txn.size();
    if (txn.size() > 1)
        stats_.coalescedRequests += txn.size();

    cs.executing.assign(txn.requests().begin(), txn.requests().end());
    for (auto *req : cs.executing)
        req->startedAt = start;

    if (plan.dataOutPhase > 0) {
        // Reads: the data-out grant is already known, so the chip's
        // busy window extends now and the transaction completes in a
        // single end event (~2 events per transaction instead of ~3).
        const Tick end = grant.dataOutStart + plan.dataOutPhase;
        chip->extendBusy(end);
        events_.schedule(end, [this, chip_offset, end] {
            finishTransaction(chip_offset, end);
        });
    } else {
        events_.schedule(provisional_end,
                         [this, chip_offset, provisional_end] {
                             finishTransaction(chip_offset,
                                               provisional_end);
                         });
    }
}

void
FlashController::finishTransaction(std::uint32_t chip_offset, Tick end)
{
    auto &cs = state_[chip_offset];
    cs.inFlight -= static_cast<std::uint32_t>(cs.executing.size());
    const bool faulty = faults_ && faults_->enabled();
    for (auto *req : cs.executing) {
        if (faulty && applyFaults(chip_offset, req, end))
            continue; // retrying or decoding; stays in perTag_
        completeRequest(chip_offset, req, end);
    }
    cs.executing.clear();
    // More pending work? Start the next decision window.
    armLaunch(chip_offset);
}

void
FlashController::completeRequest(std::uint32_t chip_offset,
                                 MemoryRequest *req, Tick end)
{
    const std::size_t slot = tagSlot(req->tag);
    if (slot < tagSlots_) {
        std::uint32_t &count = perTag_[chip_offset * tagSlots_ + slot];
        if (count > 0 && --count == 0 && occupancy_)
            occupancy_->removeOwner(chips_[chip_offset]->index(), slot);
    }
    req->finishedAt = end;
    onComplete_(req);
}

bool
FlashController::applyFaults(std::uint32_t chip_offset,
                             MemoryRequest *req, Tick end)
{
    auto &cs = state_[chip_offset];
    switch (req->op) {
      case FlashOp::Read: {
        // A stale read's result is discarded and the request re-issued
        // at the fresh location (NVMHC), so no fault verdict may be
        // charged against the old one — doing so double-counted an I/O
        // whose page then failed again at the new location.
        if (req->stale)
            return false;
        const ReadOutcome out = faults_->readAttempt(
            req->ppn, req->id, req->retryAttempt, end);
        if (out == ReadOutcome::Ok)
            return false;
        if (out == ReadOutcome::Retry) {
            // Re-book the chip for the next ladder step. The request
            // keeps its perTag_ accounting (it is still
            // outstanding from the scheduler's point of view) and
            // jumps the pending queue: a read mid-ladder blocks its
            // I/O until it resolves.
            ++req->retryAttempt;
            ++stats_.readRetries;
            ++stats_.readRetriesByStep[req->retryAttempt - 1];
            cs.pending.push_front(req);
            return true;
        }
        // Ladder exhausted. Fall back to the shared soft decoder when
        // modeled — unless the die itself is gone, in which case there
        // is no soft information to decode.
        if (decoder_ && faults_->config().softDecodeEnabled &&
            !faults_->dieDead(req->ppn, end)) {
            startSoftDecode(chip_offset, req, end);
            return true;
        }
        ++stats_.uncorrectableReads;
        req->faultFailed = true; // deliver the error to the owner
        return false;
      }
      case FlashOp::Program:
        if (faults_->programFails(req->ppn, req->id, end)) {
            ++stats_.programFailures;
            req->faultFailed = true; // owner remaps (FTL/GC)
        }
        return false;
      case FlashOp::Erase:
        // Erase outcomes are decided at FTL collect time, where the
        // block is retired instead of freed; nothing to do here.
        return false;
    }
    return false;
}

void
FlashController::startSoftDecode(std::uint32_t chip_offset,
                                 MemoryRequest *req, Tick end)
{
    // The decoder is one serialized device-wide resource: a decode
    // starts when the previous one finishes, and the wait is the
    // contention component of the read's latency.
    const Tick start = std::max(end, decoder_->busyUntil);
    const Tick cost =
        faults_->softDecodeCost(req->retryAttempt, pageBytes_);
    const Tick done = start + cost;
    decoder_->busyUntil = done;
    decoder_->stats.invocations++;
    decoder_->stats.busyTime += cost;
    decoder_->stats.stallTime += start - end;
    events_.schedule(done, [this, chip_offset, req, done] {
        finishSoftDecode(chip_offset, req, done);
    });
}

void
FlashController::finishSoftDecode(std::uint32_t chip_offset,
                                  MemoryRequest *req, Tick done)
{
    // A readdress while decoding makes the verdict moot: the NVMHC
    // discards the result and re-executes at the fresh location.
    if (!req->stale && faults_->softDecodeFails(req->ppn, req->id)) {
        decoder_->stats.failures++;
        ++stats_.uncorrectableReads;
        req->faultFailed = true;
    }
    completeRequest(chip_offset, req, done);
}

} // namespace spk
