#include "sched/nvmhc.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace spk
{

Nvmhc::Nvmhc(EventQueue &events, FlashBackend &backend, Ftl &ftl,
             std::unique_ptr<IoScheduler> sched, const NvmhcConfig &cfg,
             IoCompleteFn on_io_complete)
    : events_(events),
      backend_(backend),
      ftl_(ftl),
      sched_(std::move(sched)),
      cfg_(cfg),
      onIoComplete_(std::move(on_io_complete))
{
    if (cfg_.hostBwBytesPerSec == 0)
        fatal("Nvmhc: hostBwBytesPerSec must be non-zero");
    const FlashGeometry &geo = backend_.geometry();
    // A program also moves its page from the host to the device.
    programComposeCost_ = cfg_.composeOverhead +
                          (std::uint64_t{geo.pageSizeBytes} * kSecond +
                           cfg_.hostBwBytesPerSec - 1) /
                              cfg_.hostBwBytesPerSec;
    backend_.occupancy().setLoadLimit(sched_->loadLimit());

    ctx_.uncomposed = &uncomposed_;
    ctx_.view = this;

    // Single default submission queue until configureStreams() says
    // otherwise; every arbitration policy is FIFO over one stream.
    waiting_.resize(1);
    streamStates_.resize(1);
    streamStats_.resize(1);
    arbiter_ = makeArbiter(cfg_.arbiter);
    arbiter_->prepare(1);

    // Flat NCQ slot slab: tag ids are recycled within [0, queueDepth)
    // so per-tag state everywhere can be a vector, not a map. The
    // slab never resizes after this, so IoRequest pointers are stable.
    slots_.resize(cfg_.queueDepth);
    freeTags_.reserve(cfg_.queueDepth);
    for (TagId tag = cfg_.queueDepth; tag > 0; --tag)
        freeTags_.push_back(tag - 1);
    queue_.reserve(cfg_.queueDepth);

    // Let the strategy pre-size its per-chip state (warm start).
    sched_->prepare(geo.numChips(), cfg_.queueDepth);
}

void
Nvmhc::configureStreams(const std::vector<StreamInfo> &infos)
{
    if (infos.empty())
        fatal("Nvmhc::configureStreams: need at least one stream");
    if (!queue_.empty() || waitingTotal_ != 0 || engineBusy_ ||
        stats().iosSubmitted != 0)
        fatal("Nvmhc::configureStreams called with traffic in flight");

    const auto n = static_cast<std::uint32_t>(infos.size());
    waiting_.resize(n);
    streamStates_.assign(n, QueueArbiter::StreamState{});
    streamStats_.assign(n, NvmhcStats{});
    for (std::uint32_t s = 0; s < n; ++s) {
        streamStates_[s].weight = infos[s].weight;
        streamStates_[s].priority = infos[s].priority;
    }
    arbiter_ = makeArbiter(cfg_.arbiter);
    arbiter_->prepare(n);
}

NvmhcStats
Nvmhc::stats() const
{
    NvmhcStats sum;
    for (const NvmhcStats &s : streamStats_)
        sum += s;
    return sum;
}

void
Nvmhc::translate(MemoryRequest &req)
{
    Ppn ppn;
    if (req.op == FlashOp::Program) {
        ppn = ftl_.allocateWriteReclaiming(req.lpn);
        if (ppn == kInvalidPage)
            fatal("Nvmhc: device out of space");
    } else {
        ppn = ftl_.translateRead(req.lpn);
        if (ppn == kInvalidPage) {
            // Reading a never-written page: backfill a mapping, as if
            // the data existed before the trace started.
            ppn = ftl_.allocateWriteReclaiming(req.lpn);
            if (ppn == kInvalidPage)
                fatal("Nvmhc: cannot backfill read mapping");
            if (StripeParityMap *pm = ftl_.parityMap()) {
                // The fiction extends to parity: data that "already
                // existed" was already protected, untimed like a
                // precondition (otherwise a later die failure would
                // leave backfilled pages unreconstructable).
                pm->markDataWritten(ppn);
                pm->markParityWritten(pm->stripeOf(ppn));
            }
        }
    }
    backend_.place(req, ppn);
}

void
Nvmhc::submit(bool is_write, Lpn first_lpn, std::uint32_t page_count,
              bool fua, Tick arrival, std::uint32_t stream)
{
    if (page_count == 0)
        fatal("Nvmhc::submit zero-page I/O");
    if (stream >= waiting_.size())
        fatal("Nvmhc::submit on unconfigured stream " +
              std::to_string(stream));
    ++streamStats_[stream].iosSubmitted;
    if (outstandingIos() == 0)
        active_.claim(events_.now());

    PendingSubmission sub{is_write, first_lpn, page_count,
                          fua,      arrival,   stream};
    if (queue_.size() >= cfg_.queueDepth) {
        waiting_[stream].push_back(sub);
        ++streamStates_[stream].waiting;
        ++waitingTotal_;
        return;
    }
    enqueue(sub);
}

void
Nvmhc::enqueue(const PendingSubmission &sub)
{
    const Tick now = events_.now();
    if (freeTags_.empty())
        panic("Nvmhc::enqueue no free tag despite queue-depth gate");
    const TagId tag = freeTags_.back();
    freeTags_.pop_back();
    IoRequest *io = &slots_[tag];
    if (io->active)
        panic("Nvmhc::enqueue tag slot still active");
    io->tag = tag;
    io->active = true;
    io->isWrite = sub.isWrite;
    io->fua = sub.fua;
    io->streamId = sub.stream;
    io->firstLpn = sub.firstLpn;
    io->pageCount = sub.pageCount;
    io->arrival = sub.arrival;
    io->completed = 0;
    io->composedCount = 0;
    io->finishedCount = 0;
    io->failedPages = 0;
    streamStats_[sub.stream].queueStallTime += now - sub.arrival;
    ++streamStates_[sub.stream].inDevice;

    const std::uint64_t logical = ftl_.logicalPages();
    io->pages.clear();
    io->pages.reserve(sub.pageCount);
    for (std::uint32_t i = 0; i < sub.pageCount; ++i) {
        MemoryRequest *req = backend_.acquire(RequestOwner::Host);
        req->tag = tag;
        req->idxInIo = i;
        req->op = sub.isWrite ? FlashOp::Program : FlashOp::Read;
        req->lpn = (sub.firstLpn + i) % logical;
        translate(*req);
        lpnChain_.pushBack(req->lpn, req);
        io->pages.push_back(req);
    }

    queue_.push_back(io);
    uncomposed_.pushBack(*io);
    if (io->fua)
        ++fuaQueued_;
    sched_->onEnqueue(*io);
    if (afterEnqueue_)
        afterEnqueue_();
    pump();
}

void
Nvmhc::admitWaiting()
{
    // One arbiter decision per freed tag: the policy picks the stream
    // whose head submission is admitted. With one stream this is the
    // plain FIFO drain the single-queue NVMHC performed.
    while (waitingTotal_ > 0 && queue_.size() < cfg_.queueDepth) {
        const std::uint32_t s = arbiter_->pick(streamStates_);
        if (s >= waiting_.size() || waiting_[s].empty())
            panic("Nvmhc::admitWaiting arbiter picked an idle stream");
        const PendingSubmission sub = waiting_[s].front();
        waiting_[s].pop_front();
        --streamStates_[s].waiting;
        --waitingTotal_;
        enqueue(sub);
    }
}

bool
Nvmhc::hazardFree(const MemoryRequest &req) const
{
    // Per-LPN ordering: only the oldest pending request on a logical
    // page, the head of its LPN chain, may proceed (covers RAW/WAW/WAR
    // across queued I/Os). LpnChainMap marks a chained request, and a
    // chain's head, on the request itself.
    if (!req.onLpnChain) {
        panic("Nvmhc::hazardFree request missing from LPN chain: lpn=" +
              std::to_string(req.lpn) + " tag=" +
              std::to_string(req.tag) + " composed=" +
              std::to_string(req.composed) + " owner=" +
              std::to_string(static_cast<int>(req.owner)) + " id=" +
              std::to_string(req.id));
    }
    if (!req.lpnHead)
        return false;

    // FUA barrier: an FUA I/O is served strictly in order -- nothing
    // younger starts before it finishes, and it waits for everything
    // older (Section 4.4, hazard control).
    if (fuaQueued_ == 0)
        return true;
    for (const IoRequest *io : queue_) {
        if (io->tag == req.tag)
            return !io->fua || io == queue_.front();
        if (io->fua)
            return false; // older FUA I/O still incomplete
    }
    // GC requests never enter the queue; they bypass the barrier.
    return true;
}

void
Nvmhc::pump()
{
    if (engineBusy_)
        return;
    MemoryRequest *req = sched_->next(ctx_);
    if (req == nullptr)
        return;
    if (req->composed || req->composing)
        panic("Nvmhc::pump scheduler returned a composed request");

    req->composing = true;
    engineBusy_ = true;
    const Tick cost = req->op == FlashOp::Program ? programComposeCost_
                                                  : cfg_.composeOverhead;
    events_.scheduleAfter(cost, [this, req] { composeDone(req); });
}

void
Nvmhc::composeDone(MemoryRequest *req)
{
    req->composing = false;
    req->composed = true;

    if (req->tag >= slots_.size() || !slots_[req->tag].active)
        panic("Nvmhc::composeDone orphan request");
    IoRequest &io = slots_[req->tag];
    ++streamStats_[io.streamId].requestsComposed;
    if (++io.composedCount == io.pageCount)
        uncomposed_.erase(io);
    sched_->onComposed(*req);

    backend_.commit(req);
    engineBusy_ = false;
    pump();
}

void
Nvmhc::retryStale(MemoryRequest *req, IoRequest *io)
{
    req->stale = false;
    // The fresh copy restarts the retry ladder; an uncorrectable
    // verdict against the old location no longer applies.
    req->retryAttempt = 0;
    req->faultFailed = false;
    ++streamStats_[io->streamId].staleRetries;
    const Ppn fresh = ftl_.translateRead(req->lpn);
    if (fresh == kInvalidPage)
        panic("Nvmhc: mapping lost for pending read");
    backend_.place(*req, fresh);
    backend_.commit(req);
}

void
Nvmhc::onRequestFinished(MemoryRequest *req)
{
    if (req->tag >= slots_.size() || !slots_[req->tag].active)
        panic("Nvmhc::onRequestFinished orphan request");
    IoRequest *io = &slots_[req->tag];

    // Stale read: live-data migration moved the page while the request
    // was in flight (or, without a readdressing callback, while it sat
    // committed). Re-translate and re-execute.
    if (req->stale) {
        retryStale(req, io);
        return;
    }

    if (req->faultFailed && req->op == FlashOp::Program) {
        // Fault-injected program failure: the FTL re-homes the page
        // and retires the block; re-program the replacement. When the
        // mapping was superseded meanwhile (a newer write owns the
        // data) there is nothing to re-program and the request
        // completes as a success.
        req->faultFailed = false;
        const Ppn fresh = ftl_.onProgramFail(req->ppn);
        if (fresh != kInvalidPage) {
            backend_.place(*req, fresh);
            backend_.commit(req);
            return;
        }
    }

    if (req->faultFailed && req->op == FlashOp::Read) {
        // Retry ladder exhausted (or dead die). With die parity, the
        // engine can rebuild the page from the surviving stripe
        // members; the request resolves via finishReconstructed().
        req->faultFailed = false;
        if (reconstruct_ && reconstruct_(req))
            return;
        // No parity (or unreconstructible): the page is lost. Complete
        // the I/O with the error surfaced instead of hanging.
        ++io->failedPages;
    }

    finishRequestTail(req, io);
}

void
Nvmhc::finishReconstructed(MemoryRequest *req, bool ok)
{
    if (req->tag >= slots_.size() || !slots_[req->tag].active)
        panic("Nvmhc::finishReconstructed orphan request");
    IoRequest *io = &slots_[req->tag];

    // A rebuild relocation can rebind the page while its survivors
    // were being read: the fresh location now serves the read
    // normally, making the reconstruction outcome moot.
    if (req->stale) {
        retryStale(req, io);
        return;
    }

    if (ok) {
        ++streamStats_[io->streamId].reconstructedReads;
    } else {
        ++io->failedPages;
    }
    finishRequestTail(req, io);
}

void
Nvmhc::finishRequestTail(MemoryRequest *req, IoRequest *io)
{
    const Tick now = events_.now();

    // Retire the request from the hazard chain, which it must head;
    // the next request on the page, if any, heads it now.
    MemoryRequest *successor = req->lpnNext;
    if (!req->lpnHead || lpnChain_.popFront(req->lpn) != req)
        panic("Nvmhc: LPN chain corrupted at completion");
    if (successor != nullptr)
        sched_->onSchedulable(*successor);

    io->finishedCount++;

    if (io->done()) {
        io->completed = now;
        NvmhcStats &ss = streamStats_[io->streamId];
        ++ss.iosCompleted;
        if (io->failedPages != 0)
            ++ss.failedIos;
        const std::uint64_t bytes = std::uint64_t{io->pageCount} *
                                    backend_.geometry().pageSizeBytes;
        if (io->isWrite)
            ss.bytesWritten += bytes;
        else
            ss.bytesRead += bytes;
        --streamStates_[io->streamId].inDevice;
        onIoComplete_(*io);

        auto qit = std::find(queue_.begin(), queue_.end(), io);
        if (qit == queue_.end())
            panic("Nvmhc: completed I/O missing from queue");
        // While an FUA barrier is up, the queue's shape decides what
        // it holds back.
        const bool barrier_up = fuaQueued_ != 0;
        queue_.erase(qit);
        if (io->fua)
            --fuaQueued_;
        if (barrier_up)
            sched_->onBarrierChanged();
        const TagId tag = io->tag;
        // Recycle the entry in place: pages return to the arena, the
        // slot keeps its vector's capacity for the next I/O.
        for (MemoryRequest *page : io->pages)
            backend_.release(page);
        io->pages.clear();
        io->active = false;
        freeTags_.push_back(tag);

        admitWaiting();
        if (outstandingIos() == 0)
            active_.release(now);
    }
    pump();
}

void
Nvmhc::readdress(Lpn lpn, Ppn from, Ppn to)
{
    lpnChain_.forEach(lpn, [&](MemoryRequest *req) {
        if (req->op != FlashOp::Read || req->ppn != from)
            return;
        const bool in_flight = req->composed || req->composing;
        if (!in_flight && sched_->wantsReaddressing()) {
            // Sprinkler's readdressing callback: retarget before the
            // request is composed, at no extra flash cost.
            const std::uint32_t old_chip = req->chip;
            backend_.place(*req, to);
            sched_->onRetarget(*req, old_chip);
        } else {
            // Either already executing, or the scheduler has no
            // readdressing support (VAS/PAS): the request runs against
            // the old location and is re-executed at completion.
            req->stale = true;
        }
    });
}

void
Nvmhc::kick()
{
    pump();
}

bool
Nvmhc::idle() const
{
    return queue_.empty() && waitingTotal_ == 0 && !engineBusy_;
}

std::uint32_t
Nvmhc::outstandingIos() const
{
    return static_cast<std::uint32_t>(queue_.size()) + waitingTotal_;
}

} // namespace spk
