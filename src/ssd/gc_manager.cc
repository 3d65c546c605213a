#include "ssd/gc_manager.hh"

#include "sim/logging.hh"

namespace spk
{

GcManager::GcManager(FlashBackend &backend, Ftl &ftl,
                     std::uint32_t max_live_per_plane)
    : backend_(backend), ftl_(ftl), maxLivePerPlane_(max_live_per_plane)
{
    if (maxLivePerPlane_ == 0)
        fatal("GcManager: live-batch bound must be >= 1");
    // The admission bound makes the table statically sizable: at most
    // planes x bound batches are ever live outside urgent
    // (emergency-reclaim) launches, which may still grow it.
    const FlashGeometry &geo = backend_.geometry();
    const std::size_t planes = std::size_t{geo.numChips()} *
                               geo.diesPerChip * geo.planesPerDie;
    batches_.reserve(planes * maxLivePerPlane_);
    freeSlots_.reserve(planes * maxLivePerPlane_);
    livePerPlane_.assign(planes, 0);
}

void
GcManager::collect()
{
    // One collectGc round reclaims at most one block per needy plane;
    // loop (bounded) until every plane regains its threshold headroom,
    // or a round collects no victim whole.
    for (int round = 0; round < 64 && ftl_.gcNeeded(); ++round) {
        const GcBatchList &batches = ftl_.collectGc();
        const bool reclaimed = batches.reclaimed();
        launch(batches);
        if (!reclaimed)
            break;
    }
    // Static wear leveling (disabled unless configured): one cold
    // block per trigger keeps the overhead bounded.
    if (ftl_.wearLevelNeeded()) {
        const GcBatchList &batches = ftl_.collectWearLevel();
        if (!batches.empty())
            launch(batches);
    }
}

std::uint32_t
GcManager::acquireBatchSlot()
{
    if (freeSlots_.empty()) {
        batches_.emplace_back();
        return static_cast<std::uint32_t>(batches_.size() - 1);
    }
    const std::uint32_t slot = freeSlots_.back();
    freeSlots_.pop_back();
    return slot;
}

void
GcManager::launch(const GcBatchList &batches, bool urgent)
{
    for (const GcBatch &batch : batches) {
        if (batch.planeIdx >= livePerPlane_.size())
            panic("GcManager::launch batch for unknown plane");
        if (livePerPlane_[batch.planeIdx] >= maxLivePerPlane_) {
            if (!urgent)
                panic("GcManager::launch admission bound violated on "
                      "plane " +
                      std::to_string(batch.planeIdx));
            ++stats_.overCapLaunches;
        }
        ++livePerPlane_[batch.planeIdx];
        const std::uint32_t slot = acquireBatchSlot();
        BatchSlot &active = batches_[slot];
        active.victimBasePpn = batch.victimBasePpn;
        active.planeIdx = batch.planeIdx;
        active.remainingPrograms = batch.migrations.size();
        active.eraseIssued = false;
        active.eraseAfter = batch.eraseAfter;
        active.live = true;
        ++liveBatches_;
        ++stats_.batches;

        if (batch.migrations.empty()) {
            if (!batch.eraseAfter) {
                // Retirement batch with nothing to move: no flash
                // work at all (the FTL normally filters these out).
                retireSlot(slot);
                continue;
            }
            // Nothing live to move: erase right away.
            active.eraseIssued = true;
            ++stats_.erases;
            backend_.issue(RequestOwner::Gc, slot, FlashOp::Erase,
                           batch.victimBasePpn);
            continue;
        }
        for (const auto &mig : batch.migrations) {
            MemoryRequest *read = backend_.issue(
                RequestOwner::Gc, slot, FlashOp::Read, mig.from);
            read->gcPairPpn = mig.to;
            ++stats_.migrationReads;
        }
    }
}

void
GcManager::retireSlot(std::uint32_t slot)
{
    BatchSlot &batch = batches_[slot];
    batch.live = false;
    const std::uint64_t plane = batch.planeIdx;
    if (livePerPlane_[plane] == 0)
        panic("GcManager: per-plane live count underflow");
    --livePerPlane_[plane];
    freeSlots_.push_back(slot);
    --liveBatches_;
    // The plane regained an admission share: retry collection, but
    // only when the bound deferred some since the last retry (without
    // deferrals, collection triggers on host enqueue alone).
    if (ftl_.stats().gcDeferrals > deferralsSeen_) {
        deferralsSeen_ = ftl_.stats().gcDeferrals;
        collect();
    }
}

void
GcManager::onRequestFinished(MemoryRequest *req)
{
    const std::uint32_t slot = req->job;
    if (slot == kNoJob || slot >= batches_.size() ||
        !batches_[slot].live) {
        panic("GcManager: completion for unknown GC request");
    }
    const FlashOp op = req->op;
    const Ppn pair = req->gcPairPpn;
    const Ppn ppn = req->ppn;
    const bool failed = req->faultFailed;

    // Reclaim the request before issuing follow-up work so the arena
    // can hand the hot object straight back.
    backend_.release(req);

    // Re-homing a failed program and retiring a slot can re-enter
    // launch() and grow the batch table, so batches_[slot] must be
    // re-resolved after either (no cached references).
    switch (op) {
      case FlashOp::Read: {
        if (pair == kInvalidPage)
            panic("GcManager: migration read without paired program");
        if (failed) {
            // Uncorrectable migration read: the data is lost, but the
            // paired program still runs — the mapping was rebound at
            // collect time and the batch must complete.
            ++stats_.migrationReadFailures;
        }
        ++stats_.migrationPrograms;
        backend_.issue(RequestOwner::Gc, slot, FlashOp::Program, pair);
        break;
      }
      case FlashOp::Program: {
        if (failed) {
            const Ppn fresh = ftl_.onProgramFail(ppn);
            if (fresh != kInvalidPage) {
                // Re-home the migration onto the replacement page; the
                // batch completes when the re-issue finishes.
                backend_.issue(RequestOwner::Gc, slot, FlashOp::Program,
                               fresh);
                break;
            }
            // Superseded meanwhile: nothing to re-program.
        }
        BatchSlot &batch = batches_[slot];
        if (batch.remainingPrograms == 0)
            panic("GcManager: program count underflow");
        --batch.remainingPrograms;
        if (batch.remainingPrograms == 0 && !batch.eraseIssued) {
            if (batch.eraseAfter) {
                batch.eraseIssued = true;
                ++stats_.erases;
                backend_.issue(RequestOwner::Gc, slot, FlashOp::Erase,
                               batch.victimBasePpn);
            } else {
                // Retirement batch (the victim is Bad, never erased)
                // or a victim GC could not finish (it keeps live data).
                retireSlot(slot);
            }
        }
        break;
      }
      case FlashOp::Erase:
        retireSlot(slot);
        break;
    }
}

} // namespace spk
