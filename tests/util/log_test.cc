#include <gtest/gtest.h>

#include "util/log.hh"

namespace chopin
{
namespace
{

TEST(Log, LevelRoundTrips)
{
    LogLevel before = logLevel();
    setLogLevel(LogLevel::Quiet);
    EXPECT_EQ(logLevel(), LogLevel::Quiet);
    setLogLevel(LogLevel::Verbose);
    EXPECT_EQ(logLevel(), LogLevel::Verbose);
    setLogLevel(before);
}

TEST(Log, InformSuppressedWhenQuiet)
{
    LogLevel before = logLevel();
    setLogLevel(LogLevel::Quiet);
    ::testing::internal::CaptureStderr();
    inform("should not appear");
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
    setLogLevel(before);
}

TEST(Log, InformAndWarnFormatArguments)
{
    LogLevel before = logLevel();
    setLogLevel(LogLevel::Normal);
    ::testing::internal::CaptureStderr();
    inform("value is ", 42, " (", 1.5, ")");
    warn("watch out for ", "x");
    std::string out = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(out.find("info: value is 42 (1.5)"), std::string::npos);
    EXPECT_NE(out.find("warn: watch out for x"), std::string::npos);
    setLogLevel(before);
}

TEST(LogDeath, FatalExitsCleanly)
{
    EXPECT_EXIT(fatal("bad config ", 7), ::testing::ExitedWithCode(1),
                "fatal: bad config 7");
}

TEST(LogDeath, PanicAborts)
{
    EXPECT_DEATH(panic("invariant ", "broken"), "panic: invariant broken");
}

} // namespace
} // namespace chopin
