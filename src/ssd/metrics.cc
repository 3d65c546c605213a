#include "ssd/metrics.hh"

#include <ostream>

namespace spk
{

std::ostream &
operator<<(std::ostream &os, const MetricsSnapshot &m)
{
    os << "scheduler            " << m.scheduler << '\n'
       << "makespan (ms)        " << m.makespan / 1000000.0 << '\n'
       << "ios completed        " << m.iosCompleted << '\n'
       << "bandwidth (KB/s)     " << m.bandwidthKBps << '\n'
       << "IOPS                 " << m.iops << '\n'
       << "avg latency (us)     " << m.avgLatencyNs / 1000.0 << '\n'
       << "latency p50/p95/p99 (us) " << m.p50LatencyNs / 1000.0 << '/'
       << m.p95LatencyNs / 1000.0 << '/' << m.p99LatencyNs / 1000.0
       << '\n'
       << "read/write latency (us) " << m.avgReadLatencyNs / 1000.0
       << '/' << m.avgWriteLatencyNs / 1000.0 << '\n'
       << "queue stall (ms)     " << m.queueStallTime / 1000000.0 << '\n'
       << "chip utilization (%) " << m.chipUtilizationPct << '\n'
       << "inter-chip idle (%)  " << m.interChipIdlenessPct << '\n'
       << "intra-chip idle (%)  " << m.intraChipIdlenessPct << '\n'
       << "FLP % (NON/P1/P2/P3) " << m.flpPct[0] << '/' << m.flpPct[1]
       << '/' << m.flpPct[2] << '/' << m.flpPct[3] << '\n'
       << "transactions         " << m.transactions << '\n'
       << "requests served      " << m.requestsServed << '\n'
       << "exec bus/cont/cell/idle (%) " << m.execBusPct << '/'
       << m.execContentionPct << '/' << m.execCellPct << '/'
       << m.execIdlePct << '\n'
       << "stale retries        " << m.staleRetries << '\n'
       << "gc batches           " << m.gcBatches << '\n';
    if (m.readRetries || m.uncorrectableReads || m.programFailures ||
        m.eraseFailures || m.failedIos || m.degradedDies) {
        os << "read retries         " << m.readRetries << '\n'
           << "uncorrectable reads  " << m.uncorrectableReads << '\n'
           << "program failures     " << m.programFailures
           << " (remaps " << m.programRemaps << ")\n"
           << "erase failures       " << m.eraseFailures << '\n'
           << "blocks retired (wear/prog/erase) " << m.blocksRetiredWear
           << '/' << m.blocksRetiredProgram << '/'
           << m.blocksRetiredErase << '\n'
           << "failed I/Os          " << m.failedIos << '\n'
           << "degraded dies        " << m.degradedDies << '\n';
    }
    if (m.parityUpdates || m.reconstructedReads ||
        m.rebuildPagesTotal) {
        os << "parity updates       " << m.parityUpdates
           << " (full " << m.parityFullStripeCloses << ", partial "
           << m.parityPartialCloses << ", rmw reads "
           << m.parityRmwReads << ")\n"
           << "reconstructed reads  " << m.reconstructedReads
           << " (survivor reads " << m.reconstructionReads << ")\n"
           << "rebuild pages        " << m.rebuildPagesRebuilt << '/'
           << m.rebuildPagesTotal << '\n';
    }
    if (m.softDecodeInvocations) {
        os << "soft decodes         " << m.softDecodeInvocations
           << " (failures " << m.softDecodeFailures << ", busy "
           << m.softDecodeBusyTime / 1000000.0 << "ms, stall "
           << m.softDecodeStallTime / 1000000.0 << "ms)\n";
    }
    for (const auto &s : m.streams) {
        os << "stream " << s.name << ": ios=" << s.iosCompleted
           << " bw=" << static_cast<std::uint64_t>(s.bandwidthKBps)
           << "KB/s iops=" << static_cast<std::uint64_t>(s.iops)
           << " lat="
           << static_cast<std::uint64_t>(s.avgLatencyNs / 1000.0)
           << "us p99=" << s.p99LatencyNs / 1000 << "us\n";
    }
    return os;
}

} // namespace spk
