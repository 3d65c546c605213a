/**
 * @file
 * Tests for the shared command line (bench/bench_cli.hh): every
 * option of the table parses into its variable, the generated usage
 * lists each flag once with its default, malformed input exits 2, and
 * a shared option a program omits is neither listed nor taken.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_cli.hh"

namespace spk
{
namespace
{

/** One variable of each type an option can set. */
struct Extras
{
    bool flag = false;
    std::uint32_t count = 7;
    std::uint64_t big = 9;
    double frac = 0.25;
    std::string name = "x";
    std::string mode = "a";
};

std::vector<bench::CliOption>
extraOptions(Extras &e)
{
    return {
        {.flag = "--switch", .help = "a switch", .target = &e.flag},
        {"--count", "N", "a 32-bit count", &e.count},
        {"--big", "N", "a 64-bit count", &e.big},
        {"--frac", "F", "a fraction", &e.frac},
        {"--name", "S", "any string", &e.name},
        {.flag = "--mode",
         .help = "a string with choices",
         .target = &e.mode,
         .choices = {"a", "b"}},
    };
}

/** parseCli over @p args (the program name is prepended), without
 *  the shared options in @p omit. */
bench::BenchCli
parse(std::vector<std::string> args, Extras &e,
      const std::vector<std::string> &omit = {})
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    return bench::parseCli(static_cast<int>(args.size()), argv.data(),
                           extraOptions(e), omit);
}

TEST(BenchCli, EveryOptionParsesIntoItsVariable)
{
    Extras e;
    const bench::BenchCli cli = parse(
        {"--threads", "3", "--filter", "hm", "--csv", "out.csv",
         "--fidelity", "FAST", "--cache", "dir", "--switch", "--count", "4000000000", "--big",
         "18446744073709551615", "--frac", "-1.5e-3", "--name", "",
         "--mode", "b"},
        e);
    EXPECT_EQ(cli.threads, 3u);
    EXPECT_EQ(cli.filter, "hm");
    EXPECT_EQ(cli.csv, "out.csv");
    EXPECT_EQ(cli.fidelity, Fidelity::Fast);
    EXPECT_EQ(cli.cacheDir, "dir");
    EXPECT_TRUE(e.flag);
    EXPECT_EQ(e.count, 4000000000u);
    EXPECT_EQ(e.big, 18446744073709551615ull);
    EXPECT_EQ(e.frac, -1.5e-3);
    EXPECT_EQ(e.name, "");
    EXPECT_EQ(e.mode, "b");
}

TEST(BenchCli, UnsetOptionsKeepTheirInitialValues)
{
    Extras e;
    const bench::BenchCli cli = parse({}, e);
    EXPECT_EQ(cli.threads, bench::defaultThreads());
    EXPECT_EQ(cli.fidelity, Fidelity::Exact);
    EXPECT_FALSE(e.flag);
    EXPECT_EQ(e.count, 7u);
    EXPECT_EQ(e.frac, 0.25);
}

TEST(BenchCli, UsageListsEachFlagOnceWithItsDefault)
{
    bench::BenchCli cli;
    Extras e;
    std::vector<bench::CliOption> options = extraOptions(e);
    for (bench::CliOption &o : bench::sharedOptions(cli))
        options.push_back(o);
    const std::string text = bench::usage("prog", options);

    for (const bench::CliOption &o : options) {
        const std::string lead = std::string("\n  ") + o.flag + " ";
        const std::size_t at = text.find(lead);
        ASSERT_NE(at, std::string::npos) << o.flag;
        EXPECT_EQ(text.find(lead, at + 1), std::string::npos)
            << o.flag << " is listed twice";
        const std::string line =
            text.substr(at + 1, text.find('\n', at + 1) - at - 1);
        const std::string value = bench::optionValue(o);
        EXPECT_NE(line.find("(default: " + value + ")"), std::string::npos)
            << line;
    }
    const std::string threads = std::to_string(bench::defaultThreads());
    EXPECT_NE(text.find("(default: " + threads + ")"), std::string::npos);
    EXPECT_NE(text.find("  --mode a|b "), std::string::npos);

    EXPECT_EXIT(parse({"--help"}, e), testing::ExitedWithCode(0), "");
}

TEST(BenchCli, MalformedInputExitsTwo)
{
    Extras e;
    const auto exitsTwo = [&e](std::vector<std::string> args,
                               const char *message) {
        EXPECT_EXIT(parse(args, e), testing::ExitedWithCode(2), message)
            << args.front();
    };
    exitsTwo({"--bogus"}, "unknown option --bogus");
    exitsTwo({"--threads"}, "--threads needs a value");
    exitsTwo({"--threads", "0"}, "--threads: invalid value '0'.* >= 1");
    exitsTwo({"--threads", "2x"}, "--threads: invalid value '2x'");
    exitsTwo({"--threads", ""}, "--threads: invalid value");
    exitsTwo({"--count", "-1"}, "--count: invalid value '-1'");
    exitsTwo({"--count", "+1"}, "--count: invalid value");
    exitsTwo({"--count", "4294967296"}, "--count: invalid value");
    exitsTwo({"--big", " 1"}, "--big: invalid value");
    exitsTwo({"--frac", "x"}, "--frac: invalid value 'x'");
    exitsTwo({"--frac", "0.5s"}, "--frac: invalid value");
    exitsTwo({"--frac", "inf"}, "--frac: invalid value");
    exitsTwo({"--mode", "c"}, "--mode: invalid value 'c', expected a\\|b");
    exitsTwo({"--fidelity", "slow"}, "--fidelity: invalid value");
}

TEST(BenchCli, OmittedSharedOptionIsNeitherListedNorTaken)
{
    bench::BenchCli cli;
    const std::string text = bench::usage(
        "prog", bench::sharedOptions(cli, {"--fidelity", "--cache"}));
    EXPECT_EQ(text.find("--fidelity"), std::string::npos);
    EXPECT_EQ(text.find("--cache"), std::string::npos);
    EXPECT_NE(text.find("  --threads N "), std::string::npos);

    Extras e;
    EXPECT_EQ(parse({"--threads", "2"}, e, {"--fidelity"}).threads, 2u);
    EXPECT_EXIT(parse({"--fidelity", "fast"}, e, {"--fidelity"}),
                testing::ExitedWithCode(2), "unknown option --fidelity");
}

} // namespace
} // namespace spk
