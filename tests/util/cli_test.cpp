#include "util/cli.hpp"

#include <gtest/gtest.h>

namespace nocalert {
namespace {

CommandLine
parse(std::vector<const char *> args, std::vector<std::string> known,
      bool allow_positionals = false)
{
    args.insert(args.begin(), "prog");
    return CommandLine(static_cast<int>(args.size()), args.data(),
                       std::move(known), allow_positionals);
}

TEST(CommandLine, EqualsForm)
{
    const auto cli = parse({"--rate=0.25"}, {"rate"});
    EXPECT_DOUBLE_EQ(cli.getDouble("rate", 0), 0.25);
}

TEST(CommandLine, SpaceForm)
{
    const auto cli = parse({"--sites", "42"}, {"sites"});
    EXPECT_EQ(cli.getInt("sites", 0), 42);
}

TEST(CommandLine, BareSwitch)
{
    const auto cli = parse({"--full"}, {"full"});
    EXPECT_TRUE(cli.getBool("full", false));
    EXPECT_TRUE(cli.has("full"));
}

TEST(CommandLine, DefaultsWhenAbsent)
{
    const auto cli = parse({}, {"x"});
    EXPECT_FALSE(cli.has("x"));
    EXPECT_EQ(cli.getInt("x", 7), 7);
    EXPECT_EQ(cli.getString("x", "d"), "d");
    EXPECT_FALSE(cli.getBool("x", false));
}

TEST(CommandLine, BoolValues)
{
    EXPECT_TRUE(parse({"--f=true"}, {"f"}).getBool("f", false));
    EXPECT_FALSE(parse({"--f=false"}, {"f"}).getBool("f", true));
    EXPECT_TRUE(parse({"--f=1"}, {"f"}).getBool("f", false));
    EXPECT_FALSE(parse({"--f=no"}, {"f"}).getBool("f", true));
}

TEST(CommandLine, UnknownFlagIsFatal)
{
    EXPECT_EXIT(parse({"--oops"}, {"ok"}), testing::ExitedWithCode(1),
                "unknown flag");
}

TEST(CommandLine, BadIntegerIsFatal)
{
    EXPECT_EXIT(parse({"--n=abc"}, {"n"}).getInt("n", 0),
                testing::ExitedWithCode(1), "expects an integer");
}

TEST(CommandLine, TrailingGarbageIsFatal)
{
    // A typo must not silently run as its numeric prefix.
    EXPECT_EXIT(parse({"--sites", "2x"}, {"sites"}).getInt("sites", 0),
                testing::ExitedWithCode(1), "--sites expects an integer");
    EXPECT_EXIT(parse({"--rate", "0.05abc"}, {"rate"}).getDouble("rate", 0),
                testing::ExitedWithCode(1), "--rate expects a number");
    EXPECT_EQ(parse({"--n=-3"}, {"n"}).getInt("n", 0), -3);
    EXPECT_DOUBLE_EQ(parse({"--r=1e-3"}, {"r"}).getDouble("r", 0), 1e-3);
}

TEST(CommandLine, UnsignedReadsCounts)
{
    const auto cli = parse({"--sites", "42"}, {"sites", "jobs"});
    EXPECT_EQ(cli.getUnsigned("sites", 7), 42u);
    EXPECT_EQ(cli.getUnsigned("jobs", 7), 7u);
    EXPECT_EQ(parse({"--n=4294967295"}, {"n"}).getUnsigned("n", 0),
              4294967295u);
}

TEST(CommandLine, UnsignedRejectsNegativeMalformedAndOversized)
{
    // "-1" is a value, not a flag, so it reaches the accessor — which
    // must name the flag instead of wrapping to 4294967295.
    EXPECT_EXIT(parse({"--jobs", "-1"}, {"jobs"}).getUnsigned("jobs", 0),
                testing::ExitedWithCode(1),
                "--jobs expects a non-negative integer, got '-1'");
    EXPECT_EXIT(parse({"--sites=2x"}, {"sites"}).getUnsigned("sites", 0),
                testing::ExitedWithCode(1), "--sites expects");
    EXPECT_EXIT(parse({"--n=4294967296"}, {"n"}).getUnsigned("n", 0),
                testing::ExitedWithCode(1), "--n expects");
    EXPECT_EXIT(parse({"--n="}, {"n"}).getUnsigned("n", 0),
                testing::ExitedWithCode(1), "--n expects");
}

TEST(CommandLine, ListsReadEveryToken)
{
    const auto cli = parse({"--rates", "0.01,0.5,1e-3", "--jobs=1,2,4"},
                           {"rates", "jobs", "absent"});
    EXPECT_EQ(cli.getList<double>("rates", {}),
              (std::vector<double>{0.01, 0.5, 1e-3}));
    EXPECT_EQ(cli.getList<unsigned>("jobs", {8}),
              (std::vector<unsigned>{1, 2, 4}));
    EXPECT_EQ(cli.getList<unsigned>("absent", {1, 8}),
              (std::vector<unsigned>{1, 8}));
}

TEST(CommandLine, ListsRejectAnyMalformedToken)
{
    // A typo must not run as its numeric prefix or abort uncaught.
    for (const char *value : {"0.01x", "abc", "0.01,,0.02", "0.01,", ""}) {
        EXPECT_EXIT(parse({"--rates", value}, {"rates"})
                        .getList<double>("rates", {}),
                    testing::ExitedWithCode(1),
                    "--rates expects comma-separated numbers")
            << value;
    }
    for (const char *value : {"1,-1", "2x", "1.5", "4294967296"}) {
        EXPECT_EXIT(parse({"--jobs", value}, {"jobs"})
                        .getList<unsigned>("jobs", {}),
                    testing::ExitedWithCode(1),
                    "--jobs expects comma-separated counts")
            << value;
    }
}

TEST(CommandLine, SwitchFollowedByFlag)
{
    const auto cli = parse({"--full", "--n", "3"}, {"full", "n"});
    EXPECT_TRUE(cli.getBool("full", false));
    EXPECT_EQ(cli.getInt("n", 0), 3);
}

TEST(CommandLine, PositionalsAreFatalByDefault)
{
    EXPECT_EXIT(parse({"stray.json"}, {"out"}),
                testing::ExitedWithCode(1), "positional");
}

TEST(CommandLine, PositionalsCollectedWhenAllowed)
{
    const auto cli = parse({"a.json", "--out", "m.json", "b.json"},
                           {"out"}, /*allow_positionals=*/true);
    EXPECT_EQ(cli.getString("out", ""), "m.json");
    ASSERT_EQ(cli.positionals().size(), 2u);
    EXPECT_EQ(cli.positionals()[0], "a.json");
    EXPECT_EQ(cli.positionals()[1], "b.json");
}

TEST(CommandLine, ValueFlagStillConsumesNonFlagToken)
{
    // "--out m.json" binds m.json to the flag even in positional mode.
    const auto cli = parse({"--out", "m.json"}, {"out"},
                           /*allow_positionals=*/true);
    EXPECT_EQ(cli.getString("out", ""), "m.json");
    EXPECT_TRUE(cli.positionals().empty());
}

} // namespace
} // namespace nocalert
