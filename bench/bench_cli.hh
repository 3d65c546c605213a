/**
 * @file
 * Common command line for every bench program and sprinkler_cli.
 *
 * Each option is one CliOption entry: its flag, value name, help text
 * and the variable it sets. The usage text is generated from the
 * entries, with each variable's initial value as the default. The
 * shared entries (sharedOptions) cover the sweep; a program passes its
 * own entries to parseCli, and omits the shared ones it would ignore.
 * Run any program with --help for the list.
 *
 * Every sweep also prints a parseable stderr footer with the run
 * makespan, per-worker busy times and thread imbalance (and cache
 * hits when --cache is active), so scheduling wins are measurable in
 * any exhibit run.
 *
 * Ctrl-C sets the sweep stop flag: in-flight cells finish, the bench
 * reports how far it got and exits 130 without printing tables built
 * from incomplete grids.
 */

#ifndef SPK_BENCH_BENCH_CLI_HH
#define SPK_BENCH_BENCH_CLI_HH

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <unistd.h>
#include <variant>
#include <vector>

#include "sim/cell_cache.hh"
#include "sim/sweep.hh"

namespace spk
{
namespace bench
{

inline unsigned
defaultThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

/** Parsed common options. */
struct BenchCli
{
    unsigned threads = defaultThreads();
    std::string filter;
    std::string csv;
    Fidelity fidelity = Fidelity::Exact;
    /** Cell-cache directory; empty disables the cache. */
    std::string cacheDir;
};

/**
 * One command-line option. A bool variable makes a switch (no value,
 * sets true); every other type takes one value that must parse whole.
 */
struct CliOption
{
    const char *flag;
    /** The value's name in the usage text (unused by a switch, and by
     *  a string option with choices, which shows them instead). */
    const char *value = nullptr;
    const char *help = nullptr;
    std::variant<bool *, std::uint32_t *, std::uint64_t *, double *,
                 std::string *, Fidelity *>
        target = {};
    /** Smallest value an unsigned option accepts. */
    std::uint64_t min = 0;
    /** The values a string option accepts; empty accepts any. */
    std::vector<std::string> choices = {};
};

/** The options every program shares, setting the fields of @p cli,
 *  less the flags in @p omit: a program does not take an option it
 *  would ignore. */
inline std::vector<CliOption>
sharedOptions(BenchCli &cli, const std::vector<std::string> &omit = {})
{
    std::vector<CliOption> options = {
        {.flag = "--threads",
         .value = "N",
         .help = "sweep worker threads; results are identical at any "
                 "count",
         .target = &cli.threads,
         .min = 1},
        {"--filter", "SUBSTR",
         "keep axis values containing SUBSTR (case-insensitive)",
         &cli.filter},
        {"--csv", "PATH",
         "also write the results as CSV, to PATH or to files named "
         "from it",
         &cli.csv},
        {"--fidelity", "exact|fast",
         "the event-accurate engine or the calibrated estimator",
         &cli.fidelity},
        {"--cache", "DIR",
         "serve cells simulated before from this persistent cache",
         &cli.cacheDir},
    };
    std::erase_if(options, [&omit](const CliOption &o) {
        return std::find(omit.begin(), omit.end(), o.flag) != omit.end();
    });
    return options;
}

/** @p option's value name: its choices joined by '|', if any. */
inline std::string
valueName(const CliOption &option)
{
    if (option.choices.empty())
        return option.value;
    std::string name;
    for (const std::string &c : option.choices)
        name += (name.empty() ? "" : "|") + c;
    return name;
}

/** The current value of @p option's variable, as the usage prints
 *  it: "off" for a switch, "none" for an empty string. */
inline std::string
optionValue(const CliOption &option)
{
    return std::visit(
        [](const auto *var) -> std::string {
            using T = std::remove_cv_t<std::remove_pointer_t<decltype(var)>>;
            if constexpr (std::is_same_v<T, bool>) {
                return *var ? "on" : "off";
            } else if constexpr (std::is_same_v<T, std::string>) {
                return var->empty() ? "none" : *var;
            } else if constexpr (std::is_same_v<T, Fidelity>) {
                return fidelityName(*var);
            } else {
                std::ostringstream os;
                os << *var;
                return os.str();
            }
        },
        option.target);
}

/** Usage text for @p options, with their variables' current values
 *  as defaults. */
inline std::string
usage(const char *prog, const std::vector<CliOption> &options)
{
    std::ostringstream os;
    os << "usage: " << prog << " [options]\n" << std::left;
    for (const CliOption &o : options) {
        std::string lhs = o.flag;
        if (!std::holds_alternative<bool *>(o.target))
            lhs.append(" ").append(valueName(o));
        os << "  " << std::setw(24) << lhs << "  " << o.help
           << " (default: " << optionValue(o) << ")\n";
    }
    os << "  " << std::setw(24) << "--help" << "  print this text\n";
    return os.str();
}

/**
 * Set @p option's variable from @p text. False, with the variable
 * unchanged, unless all of @p text is an accepted value (see
 * expectedValue).
 */
inline bool
setOption(const CliOption &option, const std::string &text)
{
    return std::visit(
        [&](auto *var) {
            using T = std::remove_pointer_t<decltype(var)>;
            if constexpr (std::is_same_v<T, bool>) {
                *var = true;
                return true;
            } else if constexpr (std::is_same_v<T, std::string>) {
                const auto &c = option.choices;
                if (!c.empty() &&
                    std::find(c.begin(), c.end(), text) == c.end())
                    return false;
                *var = text;
                return true;
            } else if constexpr (std::is_same_v<T, Fidelity>) {
                return parseFidelity(text, *var);
            } else {
                T v{};
                const char *end = text.data() + text.size();
                const auto [ptr, ec] = std::from_chars(text.data(), end, v);
                if (ec != std::errc{} || ptr != end)
                    return false;
                if constexpr (std::is_integral_v<T>) {
                    if (v < option.min)
                        return false;
                } else if (!std::isfinite(v)) {
                    return false;
                }
                *var = v;
                return true;
            }
        },
        option.target);
}

/** What setOption accepts for @p option, for the error message. */
inline std::string
expectedValue(const CliOption &option)
{
    if (std::holds_alternative<std::uint32_t *>(option.target) ||
        std::holds_alternative<std::uint64_t *>(option.target)) {
        std::string what = "a whole number without sign";
        if (option.min > 0)
            what.append(" >= ").append(std::to_string(option.min));
        return what;
    }
    if (std::holds_alternative<double *>(option.target))
        return "a finite number";
    return valueName(option);
}

[[noreturn]] inline void
usageError(const char *prog, const std::string &msg)
{
    std::fprintf(stderr, "%s: %s (see --help)\n", prog, msg.c_str());
    std::exit(2);
}

/**
 * Parse the shared options but those in @p omit, plus @p extra (a
 * program's own, listed first in the usage). --help prints the usage
 * to stdout and exits 0; an unknown flag (an omitted one too), a
 * missing value or a value setOption rejects exits 2 with a message
 * naming the flag.
 */
inline BenchCli
parseCli(int argc, char **argv, std::vector<CliOption> extra = {},
         const std::vector<std::string> &omit = {})
{
    BenchCli cli;
    std::vector<CliOption> options = std::move(extra);
    for (CliOption &o : sharedOptions(cli, omit))
        options.push_back(std::move(o));
    // Rendered before parsing so the defaults are the initial values.
    const std::string help = usage(argv[0], options);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(help.c_str(), stdout);
            std::exit(0);
        }
        const auto it = std::find_if(
            options.begin(), options.end(),
            [&arg](const CliOption &o) { return arg == o.flag; });
        if (it == options.end())
            usageError(argv[0], "unknown option " + arg);
        if (std::holds_alternative<bool *>(it->target)) {
            setOption(*it, "");
            continue;
        }
        if (i + 1 >= argc)
            usageError(argv[0], arg + " needs a value");
        const std::string value = argv[++i];
        if (!setOption(*it, value))
            usageError(argv[0], (arg + ": invalid value '" + value +
                                 "', expected ")
                                    .append(expectedValue(*it)));
    }
    return cli;
}

/** SIGINT-driven stop flag for clean sweep cancellation. */
inline std::atomic<bool> &
stopFlag()
{
    static std::atomic<bool> stop{false};
    return stop;
}

/**
 * Process-wide cell cache for @p dir; benches with several sub-sweeps
 * share one instance so the footer's hit/store counters accumulate
 * over the whole run. Null when @p dir is empty (cache disabled).
 */
inline CellCache *
processCache(const std::string &dir)
{
    static std::unique_ptr<CellCache> cache;
    if (!dir.empty() && !cache)
        cache = std::make_unique<CellCache>(dir);
    return cache.get();
}

/**
 * Parseable stderr footer: run makespan, per-worker busy seconds and
 * thread imbalance, plus cache hit accounting when a cache is active.
 * The CI cache smoke greps the "cache:" line for the hit percentage.
 */
inline void
printSweepFooter(const DeviceArray &array, const CellCache *cache)
{
    const auto &busy = array.threadBusySeconds();
    if (!busy.empty()) {
        const double max_busy =
            *std::max_element(busy.begin(), busy.end());
        const double min_busy =
            *std::min_element(busy.begin(), busy.end());
        const double imbalance =
            max_busy > 0.0 ? (max_busy - min_busy) / max_busy * 100.0
                           : 0.0;
        std::fprintf(stderr,
                     "sweep: %zu cells in %.3fs wall, %zu workers, "
                     "busy max/min %.3f/%.3fs, imbalance %.1f%%\n",
                     array.completedCount(), array.runWallSeconds(),
                     busy.size(), max_busy, min_busy, imbalance);
    }
    if (cache) {
        const auto lookups = cache->lookups();
        const double pct =
            lookups > 0 ? static_cast<double>(cache->hits()) /
                              static_cast<double>(lookups) * 100.0
                        : 0.0;
        std::fprintf(
            stderr, "cache: %llu hits / %llu lookups (%.1f%%), "
                    "%llu stored\n",
            static_cast<unsigned long long>(cache->hits()),
            static_cast<unsigned long long>(lookups), pct,
            static_cast<unsigned long long>(cache->stores()));
    }
}

inline void
installSigintStop()
{
    // Touch the flag first: the function-local static must finish
    // its (guarded) initialization before a handler could run it
    // from signal context.
    stopFlag();
    std::signal(SIGINT, [](int) {
        stopFlag().store(true, std::memory_order_relaxed);
    });
}

/**
 * Run a SweepRunner under the common CLI policy: SIGINT cancels,
 * progress goes to stderr when it is a terminal, cancellation exits
 * 130 before any table is printed, and the CSV dump (when requested)
 * goes to @p csv_path — benches with several sub-sweeps pass distinct
 * suffixed paths per sweep. @p extra_csv, when set, is invoked with
 * the CSV path right after every writeCsvFile — cancellation
 * included — so companion dumps (e.g. the per-stream CSV) honor the
 * same partial-results-kept contract as the main file.
 */
inline void
runSweep(SweepRunner &sweep, const BenchCli &cli,
         const std::string &csv_path,
         const std::function<void(const std::string &)> &extra_csv =
             {})
{
    installSigintStop();
    DeviceArrayHooks hooks;
    hooks.stop = &stopFlag();
    hooks.cache = processCache(cli.cacheDir);
    const bool show_progress = isatty(fileno(stderr)) != 0;
    const std::size_t total = sweep.cellCount();
    std::size_t done = 0;
    if (show_progress) {
        // DeviceArray serializes onDeviceDone, so the count needs no
        // further synchronization.
        hooks.onDeviceDone = [total, &done](std::size_t,
                                            const MetricsSnapshot &) {
            std::fprintf(stderr, "\rsweep: %zu/%zu cells", ++done,
                         total);
            if (done == total)
                std::fprintf(stderr, "\n");
        };
    }
    sweep.run(cli.threads, hooks);
    printSweepFooter(sweep.array(), hooks.cache);
    if (stopFlag().load(std::memory_order_relaxed)) {
        if (show_progress)
            std::fprintf(stderr, "\n");
        std::fprintf(stderr, "sweep cancelled after %zu/%zu cells\n",
                     sweep.array().completedCount(), total);
        if (!csv_path.empty()) {
            // Completed cells are valid and final; keep them. The
            // completed column marks the skipped ones.
            sweep.writeCsvFile(csv_path);
            if (extra_csv)
                extra_csv(csv_path);
            std::fprintf(stderr, "kept partial results in %s\n",
                         csv_path.c_str());
        }
        std::exit(130);
    }
    if (!csv_path.empty()) {
        sweep.writeCsvFile(csv_path);
        if (extra_csv)
            extra_csv(csv_path);
        std::fprintf(stderr, "wrote %zu cells to %s\n", total,
                     csv_path.c_str());
    }
}

} // namespace bench
} // namespace spk

#endif // SPK_BENCH_BENCH_CLI_HH
