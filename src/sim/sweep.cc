#include "sim/sweep.hh"

#include <algorithm>
#include <cctype>
#include <limits>
#include <fstream>
#include <ostream>
#include <type_traits>
#include <utility>

#include "sim/logging.hh"

namespace spk
{

namespace
{

bool
containsNoCase(const std::string &haystack, const std::string &needle)
{
    if (needle.empty())
        return true;
    const auto it = std::search(
        haystack.begin(), haystack.end(), needle.begin(), needle.end(),
        [](char a, char b) {
            return std::tolower(static_cast<unsigned char>(a)) ==
                   std::tolower(static_cast<unsigned char>(b));
        });
    return it != haystack.end();
}

/** Keep matching values; leave the axis untouched when nothing
 *  matches (the needle is aimed at some other axis). */
template <typename T, typename LabelFn>
void
filterAxis(std::vector<T> &values, const std::string &needle,
           LabelFn label)
{
    std::vector<T> kept;
    for (const auto &v : values) {
        if (containsNoCase(label(v), needle))
            kept.push_back(v);
    }
    if (!kept.empty() && kept.size() < values.size())
        values = std::move(kept);
}

/** The axis columns every per-cell and per-stream row starts with. */
constexpr const char *kAxisColumns =
    "trace,scheduler,seed,variant,arbiter,fault,fidelity";

void
writeAxes(std::ostream &os, const SweepPoint &p)
{
    os << p.trace << ',' << schedulerKindName(p.scheduler) << ','
       << p.seed << ',' << p.variant << ',' << arbiterKindName(p.arbiter)
       << ',' << p.fault << ',' << fidelityName(p.fidelity);
}

/** Append one CSV cell per table column of @p rec, each with a
 *  leading comma: the column names if @p header, else the values. */
template <typename Record>
void
writeColumns(std::ostream &os, const Record &rec, bool header)
{
    Record::forEachField([&](auto field, const char *columns, Merge) {
        const auto &v = rec.*field;
        using T = std::remove_cvref_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::vector<StreamMetrics>>) {
            return; // nested records have a CSV of their own
        } else if constexpr (requires { std::tuple_size<T>::value; }) {
            if (!header) {
                for (const auto &x : v)
                    os << ',' << x;
            } else if (listsColumns(columns)) {
                os << ',' << columns;
            } else {
                for (std::size_t i = 1; i <= v.size(); ++i)
                    os << ',' << columns << i;
            }
        } else if (*columns != '\0') {
            os << ',';
            if (header)
                os << columns;
            else
                os << v;
        }
    });
}

std::vector<SweepPoint>
expandPoints(const SweepAxes &axes)
{
    std::vector<SweepPoint> points;
    points.reserve(axes.cellCount());
    for (const auto &trace : axes.traces) {
        for (const auto scheduler : axes.schedulers) {
            for (const auto seed : axes.seeds) {
                for (const auto &variant : axes.variants) {
                    for (const auto arbiter : axes.arbiters) {
                        for (const auto fault : axes.faults) {
                            for (const auto fid : axes.fidelities) {
                                SweepPoint p;
                                p.trace = trace;
                                p.scheduler = scheduler;
                                p.seed = seed;
                                p.variant = variant;
                                p.arbiter = arbiter;
                                p.fault = fault;
                                p.fidelity = fid;
                                p.index = points.size();
                                points.push_back(std::move(p));
                            }
                        }
                    }
                }
            }
        }
    }
    return points;
}

std::vector<DeviceJob>
buildJobs(const std::vector<SweepPoint> &points,
          const SweepRunner::JobBuilder &build)
{
    std::vector<DeviceJob> jobs;
    jobs.reserve(points.size());
    for (const auto &p : points) {
        DeviceJob job = build(p);
        // The fidelity axis owns engine selection: stamping it here
        // keeps every existing job builder fidelity-agnostic.
        job.fidelity = p.fidelity;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

} // namespace

SweepAxes
filterAxes(SweepAxes axes, const std::string &needle)
{
    if (needle.empty())
        return axes;
    filterAxis(axes.traces, needle,
               [](const std::string &s) { return s; });
    filterAxis(axes.schedulers, needle, [](SchedulerKind k) {
        return std::string(schedulerKindName(k));
    });
    filterAxis(axes.variants, needle,
               [](const std::string &s) { return s; });
    filterAxis(axes.arbiters, needle, [](ArbiterKind k) {
        return std::string(arbiterKindName(k));
    });
    filterAxis(axes.fidelities, needle, [](Fidelity f) {
        return std::string(fidelityName(f));
    });
    return axes;
}

SweepRunner::SweepRunner(SweepAxes axes, const JobBuilder &build)
    : axes_(std::move(axes)), points_(expandPoints(axes_)),
      array_(buildJobs(points_, build))
{
}

const std::vector<MetricsSnapshot> &
SweepRunner::run(unsigned threads, const DeviceArrayHooks &hooks)
{
    return array_.run(threads, hooks);
}

std::size_t
SweepRunner::indexOf(const SweepPoint &point) const
{
    // Axes nest in expansion order. A field left at its default
    // addresses a single-value axis without naming its value;
    // anything else must be on the axis. Trace and scheduler have no
    // such default.
    std::size_t index = 0;
    const auto nest = [&index](const auto &values, const auto &value,
                               bool defaulted, const char *axis) {
        std::size_t i = 0;
        if (!defaulted || values.size() != 1) {
            const auto it = std::find(values.begin(), values.end(), value);
            if (it == values.end())
                fatal(std::string("SweepRunner: value not on the ") +
                      axis + " axis");
            i = static_cast<std::size_t>(it - values.begin());
        }
        index = index * values.size() + i;
    };
    nest(axes_.traces, point.trace, false, "trace");
    nest(axes_.schedulers, point.scheduler, false, "scheduler");
    nest(axes_.seeds, point.seed, point.seed == 0, "seed");
    nest(axes_.variants, point.variant, point.variant.empty(), "variant");
    nest(axes_.arbiters, point.arbiter,
         point.arbiter == ArbiterKind::RoundRobin, "arbiter");
    nest(axes_.faults, point.fault, point.fault == 0.0, "fault");
    nest(axes_.fidelities, point.fidelity,
         point.fidelity == Fidelity::Exact, "fidelity");
    return index;
}

const MetricsSnapshot &
SweepRunner::at(const SweepPoint &point) const
{
    const std::size_t index = indexOf(point);
    if (array_.results().size() != points_.size())
        fatal("SweepRunner: results accessed before run()");
    return array_.results()[index];
}

void
SweepRunner::writeCsv(std::ostream &os) const
{
    if (array_.results().size() != points_.size() &&
        !points_.empty())
        fatal("SweepRunner: CSV requested before run()");
    os << kAxisColumns << ",completed";
    writeColumns(os, MetricsSnapshot{}, true);
    os << ",cell_seconds\n";
    // max_digits10: doubles must round-trip so a CSV diff catches
    // the same drift the golden bit-pattern digests do.
    const auto old_precision =
        os.precision(std::numeric_limits<double>::max_digits10);
    for (const auto &p : points_) {
        writeAxes(os, p);
        os << ',' << (array_.completed(p.index) ? 1 : 0);
        writeColumns(os, array_.results()[p.index], false);
        // Last column on purpose: wall time is the one nondeterministic
        // field; byte-exact CSV diffs drop it by stripping the final
        // column.
        os << ','
           << (p.index < array_.cellSeconds().size()
                   ? array_.cellSeconds()[p.index]
                   : 0.0)
           << '\n';
    }
    os.precision(old_precision);
}

void
SweepRunner::writeCsvFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        fatal("SweepRunner: cannot open CSV file " + path);
    writeCsv(os);
}

void
SweepRunner::writeStreamCsv(std::ostream &os) const
{
    if (array_.results().size() != points_.size() && !points_.empty())
        fatal("SweepRunner: stream CSV requested before run()");
    os << kAxisColumns;
    writeColumns(os, StreamMetrics{}, true);
    os << '\n';
    const auto old_precision =
        os.precision(std::numeric_limits<double>::max_digits10);
    for (const auto &p : points_) {
        for (const auto &s : array_.results()[p.index].streams) {
            writeAxes(os, p);
            writeColumns(os, s, false);
            os << '\n';
        }
    }
    os.precision(old_precision);
}

void
SweepRunner::writeStreamCsvFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        fatal("SweepRunner: cannot open stream CSV file " + path);
    writeStreamCsv(os);
}

} // namespace spk
