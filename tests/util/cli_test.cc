#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <vector>

#include "util/check.hh"
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

[[noreturn]] void
throwHandler(const CheckFailure &failure)
{
    throw failure;
}

/** The message of the check @p fn fails, or "" if it fails none. */
std::string
failureOf(const std::function<void()> &fn)
{
    ScopedCheckHandler guard(throwHandler);
    try {
        fn();
    } catch (const CheckFailure &f) {
        return f.message;
    }
    return "";
}

CommandLine
makeCli()
{
    CommandLine cli("test tool");
    cli.addFlag("count", "3", "a number");
    cli.addFlag("name", "abc", "a string");
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
    EXPECT_FALSE(cli.getBool("verbose"));
}

TEST(CommandLine, EqualsForm)
{
    CommandLine cli = makeCli();
    Argv a({"prog", "--count=7", "--name=xyz", "--verbose=true"});
    cli.parse(a.argc(), a.argv());
    EXPECT_EQ(cli.getInt("count"), 7);
    EXPECT_EQ(cli.getString("name"), "xyz");
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
            setCliCheckTool("prog");
            CommandLine cli = makeCli();
            Argv a({"prog", "--bogus=1"});
            cli.parse(a.argc(), a.argv());
        },
        ::testing::ExitedWithCode(2),
        "^prog: error: unknown flag --bogus \\(try --help\\)\n$");
}

TEST(CommandLineDeath, NonNumericIntIsFatal)
{
    EXPECT_EXIT(
        {
            setCliCheckTool("prog");
            CommandLine cli = makeCli();
            Argv a({"prog", "--count=abc"});
            cli.parse(a.argc(), a.argv());
            cli.getInt("count");
        },
        ::testing::ExitedWithCode(2),
        "^prog: error: flag --count expects an integer, got 'abc'\n$");
}

TEST(CommandLine, MalformedArgumentsFailChecks)
{
    // An empty numeric value is rejected, not read as 0.
    CommandLine empty = makeCli();
    Argv a({"prog", "--count="});
    empty.parse(a.argc(), a.argv());
    EXPECT_EQ(failureOf([&] { empty.getInt("count"); }),
              "flag --count expects an integer, got ''");

    CommandLine cli = makeCli();
    Argv b({"prog", "--count=12x", "--verbose=yes"});
    cli.parse(b.argc(), b.argv());
    EXPECT_EQ(failureOf([&] { cli.getInt("count"); }),
              "flag --count expects an integer, got '12x'");
    EXPECT_EQ(failureOf([&] { cli.getBool("verbose"); }),
              "flag --verbose expects true/false, got 'yes'");
    EXPECT_EQ(failureOf([&] { cli.getString("colour"); }),
              "flag --colour was never registered");

    // A number outside the type's range is rejected as typed, not
    // clamped to a value the user never wrote.
    CommandLine huge = makeCli();
    Argv d({"prog", "--count=99999999999999999999"});
    huge.parse(d.argc(), d.argv());
    EXPECT_EQ(failureOf([&] { huge.getInt("count"); }),
              "flag --count is out of range, got '99999999999999999999'");

    // getIntIn adds the caller's bounds.
    CommandLine bounded = makeCli();
    Argv e({"prog", "--count=0"});
    bounded.parse(e.argc(), e.argv());
    EXPECT_EQ(failureOf([&] { bounded.getIntIn("count", 1, 64); }),
              "--count must be in [1, 64], got 0");
    EXPECT_EQ(bounded.getIntIn("count", 0, 0), 0);

    CommandLine trailing = makeCli();
    Argv c({"prog", "--count"});
    EXPECT_EQ(failureOf([&] { trailing.parse(c.argc(), c.argv()); }),
              "flag --count requires a value");
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
