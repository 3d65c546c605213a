#include "controller/flash_controller.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace spk
{

void
PendingQueue::push(MemoryRequest *req, bool front)
{
    const Entry entry{req, CoalesceKey::of(*req)};
    if (front)
        entries.push_front(entry);
    else
        entries.push_back(entry);
    ++opCount[static_cast<std::size_t>(entry.key.op)];
}

void
PendingQueue::take(std::size_t max_size,
                   std::vector<MemoryRequest *> &reqs, CoalesceKeys &keys)
{
    const CoalesceKey seed = entries.front().key;
    reqs.push_back(entries.front().req);
    keys.clear();
    keys.push_back(seed);
    std::uint32_t &count = opCount[static_cast<std::size_t>(seed.op)];

    // Retried reads re-execute solo: their sense phase runs at an
    // escalated ladder latency no coalesced peer would share.
    std::size_t last = 0; // position of the last pick
    if (seed.op != FlashOp::Erase && !seed.retried) {
        // Entries of the seed's op not yet scanned.
        std::uint32_t left = count - 1;
        for (std::size_t i = 1; left > 0 && keys.size() < max_size; ++i) {
            Entry &entry = entries[i];
            if (entry.key.op != seed.op)
                continue;
            --left;
            if (entry.key.retried ||
                !std::all_of(keys.begin(), keys.end(),
                             [&entry](const CoalesceKey &k) {
                                 return coalescible(k, entry.key);
                             })) {
                continue;
            }
            reqs.push_back(entry.req);
            keys.push_back(entry.key);
            entry.req = nullptr;
            last = i;
        }
    }

    // Close the holes the picks left in [0, last]: walking from the
    // last pick to the front, shift each entry kept there toward the
    // back, which gathers the picks at the front; then pop them.
    // Entries past the last pick stay put.
    std::size_t to = last;
    for (std::size_t from = last; from-- > 1;) {
        if (entries[from].req != nullptr)
            entries[to--] = entries[from];
    }
    for (std::size_t i = 0; i < keys.size(); ++i)
        entries.pop_front();
    count -= static_cast<std::uint32_t>(keys.size());
}

FlashController::FlashController(EventQueue &events, Channel &channel,
                                 std::vector<FlashChip *> chips,
                                 ChipOccupancy &occupancy,
                                 const FlashTiming &timing,
                                 std::uint32_t page_bytes,
                                 Tick decision_window,
                                 CompletionFn on_complete,
                                 const FaultModel *faults,
                                 SoftDecoder *decoder)
    : events_(events),
      channel_(channel),
      chips_(std::move(chips)),
      timing_(timing),
      pageBytes_(page_bytes),
      pageTransfer_(timing.transferTime(page_bytes)),
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
    for (auto &cs : state_) {
        cs.pending.entries.reserve(queue_depth);
        cs.executing.reserve(queue_depth);
    }
}

void
FlashController::commit(MemoryRequest *req, bool front)
{
    if (!req->translated)
        panic("FlashController::commit untranslated request");
    const std::uint32_t offset = req->addr.chipInChannel;
    if (offset >= state_.size())
        panic("FlashController::commit chip offset out of range");
    // A launch takes its transaction's chip from the seed alone.
    if (req->chip != chips_[offset]->index())
        panic("FlashController::commit request for another chip");

    occupancy_.hold(chips_[offset]->index(), tagSlot(req->tag));
    state_[offset].pending.push(req, front);
    syncLoad(offset);
    armLaunch(offset);
}

std::uint32_t
FlashController::outstanding(std::uint32_t chip_offset) const
{
    const auto &cs = state_[chip_offset];
    return static_cast<std::uint32_t>(cs.pending.size()) + cs.inFlight;
}

void
FlashController::syncLoad(std::uint32_t chip_offset)
{
    occupancy_.setLoad(chips_[chip_offset]->index(),
                       outstanding(chip_offset));
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

    // One request per (die, plane) at most. No transaction is in
    // flight, so executing is empty and takes the picks.
    CoalesceKeys keys;
    cs.pending.take(chip->planesPerChip(), cs.executing, keys);
    const MemoryRequest *seed = cs.executing.front();

    TransactionPlan plan;
    FlpClass flp;
    if (seed->retryAttempt > 0 && faults_) {
        // Ladder step k senses slower than the base tR; plan the
        // transaction around the escalated sense latency.
        FlashTiming retry_timing = timing_;
        retry_timing.readLatency = faults_->senseLatency(
            seed->retryAttempt, timing_.readLatency);
        flp = planTransaction(keys, retry_timing, pageTransfer_, plan);
    } else {
        flp = planTransaction(keys, timing_, pageTransfer_, plan);
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

    const Tick provisional_end = std::max(start + plan.cmdPhase,
                                          cell_end_abs);
    chip->beginTransaction(start, provisional_end, plan, flp,
                           keys.size());

    cs.inFlight += static_cast<std::uint32_t>(keys.size());

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
    // Before the completions below: each can re-poll the scheduler.
    syncLoad(chip_offset);
    const bool faulty = faults_ && faults_->enabled();
    for (auto *req : cs.executing) {
        if (faulty && applyFaults(chip_offset, req, end))
            continue; // retrying or decoding; still holds the chip
        completeRequest(chip_offset, req);
    }
    cs.executing.clear();
    // More pending work? Start the next decision window.
    armLaunch(chip_offset);
}

void
FlashController::completeRequest(std::uint32_t chip_offset,
                                 MemoryRequest *req)
{
    occupancy_.release(chips_[chip_offset]->index(), tagSlot(req->tag));
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
            // keeps its hold on the chip (it is still outstanding
            // from the scheduler's point of view) and jumps the
            // pending queue: a read mid-ladder blocks its I/O until
            // it resolves.
            ++req->retryAttempt;
            ++stats_.readRetries;
            ++stats_.readRetriesByStep[req->retryAttempt - 1];
            cs.pending.push(req, /*front=*/true);
            syncLoad(chip_offset);
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
    events_.schedule(done, [this, chip_offset, req] {
        finishSoftDecode(chip_offset, req);
    });
}

void
FlashController::finishSoftDecode(std::uint32_t chip_offset,
                                  MemoryRequest *req)
{
    // A readdress while decoding makes the verdict moot: the NVMHC
    // discards the result and re-executes at the fresh location.
    if (!req->stale && faults_->softDecodeFails(req->ppn, req->id)) {
        decoder_->stats.failures++;
        ++stats_.uncorrectableReads;
        req->faultFailed = true;
    }
    completeRequest(chip_offset, req);
}

} // namespace spk
