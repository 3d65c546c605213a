/**
 * @file
 * Full command-line front-end for the simulator: configure geometry,
 * timing, scheduler and workload from flags and print one table row
 * per scheduler. This is the entry point a downstream user scripts
 * experiments with. Its options are entries of the exhibit benches'
 * option table (bench/bench_cli.hh), so it also takes their sweep
 * options (--threads, --csv PATH, --cache, ...); its cells, one per
 * scheduler, run through SweepRunner.
 *
 *   $ ./sprinkler_cli --help
 *   $ ./sprinkler_cli --sched spk3 --chips 64 --workload cfs3
 *   $ ./sprinkler_cli --sched all --workload synthetic --ios 2000 \
 *         --read-frac 0.7 --size 16384 --csv cells.csv
 *   $ ./sprinkler_cli --trace-file msr.csv --sched pas --gc
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_cli.hh"
#include "bench/bench_util.hh"
#include "workload/trace_parser.hh"

namespace
{

using namespace spk;

struct Options
{
    std::string sched = "spk3"; //!< or "all"
    std::uint32_t chips = 64;
    std::uint32_t queueDepth = 32;
    std::uint32_t faroWindow = 8;
    std::uint32_t blocksPerPlane = 24;
    std::uint32_t pagesPerBlock = 32;
    std::string allocation = "channel-stripe";
    std::uint32_t wearLevel = 0;

    std::string workload = "synthetic"; //!< Table 1 name or synthetic
    std::string traceFile;
    std::uint64_t ios = 2000;
    double readFrac = 0.7;
    std::uint64_t sizeBytes = 16384;
    double randomness = 0.9;
    double locality = 0.5;
    std::uint64_t interarrivalNs = 10000;
    std::uint64_t seed = 42;

    bool gc = false; //!< precondition for garbage collection
};

std::vector<bench::CliOption>
optionTable(Options &o)
{
    return {
        {"--sched", "NAME", "vas, pas, spk1, spk2, spk3, or all five",
         &o.sched},
        {"--chips", "N", "number of flash chips", &o.chips},
        {"--queue-depth", "N", "NCQ depth", &o.queueDepth},
        {"--faro-window", "N", "over-commitment window", &o.faroWindow},
        {"--blocks", "N", "blocks per plane", &o.blocksPerPlane},
        {"--pages", "N", "pages per block", &o.pagesPerBlock},
        {.flag = "--allocation",
         .help = "page allocation policy",
         .target = &o.allocation,
         .choices = {"channel-stripe", "plane-first"}},
        {"--wear-level", "N", "static wear-leveling threshold (0 = off)",
         &o.wearLevel},
        {"--workload", "NAME",
         "synthetic or a Table 1 trace name (cfs0..proj4)", &o.workload},
        {"--trace-file", "PATH",
         "replay an MSR-format CSV instead of --workload", &o.traceFile},
        {"--ios", "N", "I/O count", &o.ios},
        {"--read-frac", "F", "read fraction for synthetic", &o.readFrac},
        {"--size", "BYTES", "request size for synthetic", &o.sizeBytes},
        {"--randomness", "F", "non-sequential fraction", &o.randomness},
        {"--locality", "F", "hot-window probability", &o.locality},
        {"--interarrival", "NS", "mean interarrival", &o.interarrivalNs},
        {"--seed", "N", "RNG seed", &o.seed},
        {.flag = "--gc",
         .help = "precondition to 95% full + churn",
         .target = &o.gc},
    };
}

/** The device every cell simulates, up to its scheduler. Validated
 *  here, on the main thread: a bad flag is fatal before the trace is
 *  generated from the geometry and before any worker starts. */
SsdConfig
deviceConfig(const Options &opt)
{
    SsdConfig cfg = SsdConfig::withChips(opt.chips);
    cfg.geometry.blocksPerPlane = opt.blocksPerPlane;
    cfg.geometry.pagesPerBlock = opt.pagesPerBlock;
    cfg.nvmhc.queueDepth = opt.queueDepth;
    cfg.faroWindow = opt.faroWindow;
    cfg.seed = opt.seed;
    if (opt.allocation == "plane-first")
        cfg.ftl.allocation = AllocationPolicy::PlaneFirst;
    cfg.ftl.wearLevelThreshold = opt.wearLevel;
    cfg.validate();
    return cfg;
}

Trace
buildWorkload(const Options &opt, const SsdConfig &cfg)
{
    const std::uint64_t span = bench::spanFor(cfg);

    if (!opt.traceFile.empty()) {
        auto parsed = parseMsrTraceFile(opt.traceFile);
        std::fprintf(stderr, "parsed %zu records (%llu skipped)\n",
                     parsed.trace.size(),
                     static_cast<unsigned long long>(parsed.skippedLines));
        Trace trace = std::move(parsed.trace);
        if (trace.size() > opt.ios)
            trace.resize(opt.ios);
        // Fold offsets into the device's logical span.
        for (auto &rec : trace) {
            rec.offsetBytes %= span;
            if (rec.offsetBytes + rec.sizeBytes > span)
                rec.sizeBytes = span - rec.offsetBytes;
            if (rec.sizeBytes == 0)
                rec.sizeBytes = cfg.geometry.pageSizeBytes;
        }
        return trace;
    }
    if (opt.workload != "synthetic")
        return generatePaperTrace(opt.workload, opt.ios, span, opt.seed);

    SyntheticConfig wl;
    wl.numIos = opt.ios;
    wl.readFraction = opt.readFrac;
    wl.readSizes = {{opt.sizeBytes, 1.0}};
    wl.writeSizes = {{opt.sizeBytes, 1.0}};
    wl.readRandomness = opt.randomness;
    wl.writeRandomness = opt.randomness;
    wl.locality = opt.locality;
    wl.spanBytes = span;
    wl.meanInterarrival = opt.interarrivalNs;
    wl.seed = opt.seed;
    return generateSynthetic(wl);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    const bench::BenchCli cli =
        bench::parseCli(argc, argv, optionTable(opt));

    const SsdConfig device = deviceConfig(opt);
    SweepAxes axes;
    axes.traces = {opt.traceFile.empty() ? opt.workload : opt.traceFile};
    axes.schedulers = opt.sched == "all"
                          ? bench::allSchedulers()
                          : std::vector{parseSchedulerKind(opt.sched)};
    axes.seeds = {opt.seed};
    axes.fidelities = {cli.fidelity};
    const TraceRef trace = buildWorkload(opt, device);
    SweepRunner sweep(filterAxes(axes, cli.filter),
                      [&](const SweepPoint &p) {
                          DeviceJob job;
                          job.cfg = device;
                          job.cfg.scheduler = p.scheduler;
                          job.trace = trace;
                          job.preconditionGc = opt.gc;
                          return job;
                      });
    bench::runSweep(sweep, cli, cli.csv);

    std::printf("%-6s %12s %10s %12s %10s %10s %8s\n", "sched",
                "BW KB/s", "IOPS", "latency us", "util %", "flash %",
                "txns");
    for (const MetricsSnapshot &m : sweep.array().results()) {
        std::printf("%-6s %12.0f %10.0f %12.1f %10.1f %10.1f %8llu\n",
                    m.scheduler.c_str(), m.bandwidthKBps, m.iops,
                    m.avgLatencyNs / 1000.0, m.chipUtilizationPct,
                    m.flashLevelUtilizationPct,
                    static_cast<unsigned long long>(m.transactions));
    }
    return 0;
}
