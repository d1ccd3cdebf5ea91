#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include "util/cli.hh"

namespace chopin
{
namespace
{

/** Build argv from string literals. */
class Argv
{
  public:
    explicit Argv(std::vector<std::string> args) : strings(std::move(args))
    {
        for (std::string &s : strings)
            ptrs.push_back(s.data());
    }
    int argc() { return static_cast<int>(ptrs.size()); }
    char **argv() { return ptrs.data(); }

  private:
    std::vector<std::string> strings;
    std::vector<char *> ptrs;
};

CommandLine
makeCli()
{
    CommandLine cli("test tool");
    cli.addFlag("count", "3", "a number");
    cli.addFlag("name", "abc", "a string");
    cli.addFlag("ratio", "0.5", "a double");
    cli.addFlag("verbose", "false", "a bool");
    return cli;
}

TEST(CommandLine, DefaultsApply)
{
    CommandLine cli = makeCli();
    Argv a({"prog"});
    cli.parse(a.argc(), a.argv());
    EXPECT_EQ(cli.getInt("count"), 3);
    EXPECT_EQ(cli.getString("name"), "abc");
    EXPECT_DOUBLE_EQ(cli.getDouble("ratio"), 0.5);
    EXPECT_FALSE(cli.getBool("verbose"));
}

TEST(CommandLine, EqualsForm)
{
    CommandLine cli = makeCli();
    Argv a({"prog", "--count=7", "--name=xyz", "--ratio=1.25",
            "--verbose=true"});
    cli.parse(a.argc(), a.argv());
    EXPECT_EQ(cli.getInt("count"), 7);
    EXPECT_EQ(cli.getString("name"), "xyz");
    EXPECT_DOUBLE_EQ(cli.getDouble("ratio"), 1.25);
    EXPECT_TRUE(cli.getBool("verbose"));
}

TEST(CommandLine, SpaceForm)
{
    CommandLine cli = makeCli();
    Argv a({"prog", "--count", "11", "--name", "hello"});
    cli.parse(a.argc(), a.argv());
    EXPECT_EQ(cli.getInt("count"), 11);
    EXPECT_EQ(cli.getString("name"), "hello");
}

TEST(CommandLine, BareBooleanSwitch)
{
    CommandLine cli = makeCli();
    Argv a({"prog", "--verbose"});
    cli.parse(a.argc(), a.argv());
    EXPECT_TRUE(cli.getBool("verbose"));
}

TEST(CommandLine, PositionalArgsCollected)
{
    CommandLine cli = makeCli();
    Argv a({"prog", "one", "--count=2", "two"});
    cli.parse(a.argc(), a.argv());
    ASSERT_EQ(cli.positional().size(), 2u);
    EXPECT_EQ(cli.positional()[0], "one");
    EXPECT_EQ(cli.positional()[1], "two");
}

TEST(CommandLineDeath, UnknownFlagIsFatal)
{
    EXPECT_EXIT(
        {
            CommandLine cli = makeCli();
            Argv a({"prog", "--bogus=1"});
            cli.parse(a.argc(), a.argv());
        },
        ::testing::ExitedWithCode(1), "unknown flag");
}

TEST(CommandLineDeath, NonNumericIntIsFatal)
{
    EXPECT_EXIT(
        {
            CommandLine cli = makeCli();
            Argv a({"prog", "--count=abc"});
            cli.parse(a.argc(), a.argv());
            cli.getInt("count");
        },
        ::testing::ExitedWithCode(1), "expects an integer");
}

TEST(CheckWritablePath, RemovesOnlyTheFileItCreated)
{
    // A fresh path is created by the probe and removed again.
    const std::string fresh = ::testing::TempDir() + "/chopin_probe_new.out";
    std::remove(fresh.c_str());
    checkWritablePath(fresh, "--out");
    EXPECT_FALSE(std::filesystem::exists(fresh));

    // An existing file stays, bytes and all.
    const std::string kept = ::testing::TempDir() + "/chopin_probe_old.out";
    {
        std::ofstream f(kept, std::ios::binary);
        f << "kept bytes";
    }
    checkWritablePath(kept, "--out");
    std::ifstream in(kept, std::ios::binary);
    std::string bytes{std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>()};
    EXPECT_EQ(bytes, "kept bytes");
    std::remove(kept.c_str());
}

} // namespace
} // namespace chopin
