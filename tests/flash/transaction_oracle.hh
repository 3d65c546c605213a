/**
 * @file
 * A request-pointer transaction and its coalescing check, as the
 * library had them before FARO's greedy read per-die plane masks and
 * the flash controller's launch scanned coalescing keys. Tests keep
 * them as oracles: the Sprinkler reference scheduler builds its FARO
 * sets with them, and the pending-queue and transaction tests check
 * the shared ONFI rule (coalescible()) against them.
 */

#ifndef SPK_TESTS_FLASH_TRANSACTION_ORACLE_HH
#define SPK_TESTS_FLASH_TRANSACTION_ORACLE_HH

#include <cstddef>
#include <cstdint>

#include "flash/transaction.hh"
#include "sim/static_vec.hh"

namespace spk
{
namespace test
{

/**
 * A set of memory requests coalesced for one chip. It does not own
 * its requests; canCoalesce() checks a request before it joins.
 */
class FlashTransaction
{
  public:
    using RequestSet = StaticVec<MemoryRequest *, kMaxTxnRequests>;

    FlashTransaction(FlashOp op, std::uint32_t chip)
        : op_(op), chip_(chip)
    {}

    FlashOp op() const { return op_; }
    std::uint32_t chip() const { return chip_; }

    /** Append a request. Caller guarantees compatibility. */
    void add(MemoryRequest *req) { requests_.push_back(req); }

    const RequestSet &requests() const { return requests_; }

    std::size_t size() const { return requests_.size(); }
    bool empty() const { return requests_.empty(); }

  private:
    FlashOp op_;
    std::uint32_t chip_;
    RequestSet requests_;
};

/**
 * Whether @p req can join @p txn: same chip and op, and coalescible()
 * with every request already in it. Anything joins an empty
 * transaction.
 */
inline bool
canCoalesce(const FlashTransaction &txn, const MemoryRequest &req)
{
    if (txn.empty())
        return true;
    if (!req.translated || req.chip != txn.chip() || req.op != txn.op())
        return false;
    const CoalesceKey key = CoalesceKey::of(req);
    for (const auto *existing : txn.requests()) {
        if (!coalescible(CoalesceKey::of(*existing), key))
            return false;
    }
    return true;
}

} // namespace test
} // namespace spk

#endif // SPK_TESTS_FLASH_TRANSACTION_ORACLE_HH
