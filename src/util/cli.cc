#include "util/cli.hh"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "util/check.hh"
#include "util/log.hh"

namespace chopin
{

CommandLine::CommandLine(std::string description) : desc(std::move(description))
{
    addFlag("help", "false", "print this help text and exit");
}

void
CommandLine::addFlag(const std::string &name, const std::string &def,
                     const std::string &help)
{
    flags[name] = Flag{def, def, help};
}

void
CommandLine::parse(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            args.push_back(arg);
            continue;
        }
        std::string name = arg.substr(2);
        std::string value;
        bool have_value = false;
        auto eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            have_value = true;
        }
        auto it = flags.find(name);
        if (it == flags.end())
            fatal("unknown flag --", name, " (try --help)");
        if (!have_value) {
            // Boolean switches may omit the value; others take the next arg.
            bool is_bool = it->second.def == "true" || it->second.def == "false";
            if (is_bool) {
                value = "true";
            } else if (i + 1 < argc) {
                value = argv[++i];
            } else {
                fatal("flag --", name, " requires a value");
            }
        }
        it->second.value = value;
    }
    if (getBool("help")) {
        printHelp(argc > 0 ? argv[0] : "prog");
        // Reached only from main-thread CLI parsing, never a worker.
        std::exit(0); // NOLINT(concurrency-mt-unsafe)
    }
}

const CommandLine::Flag &
CommandLine::find(const std::string &name) const
{
    auto it = flags.find(name);
    if (it == flags.end())
        panic("flag --", name, " was never registered");
    return it->second;
}

std::string
CommandLine::getString(const std::string &name) const
{
    return find(name).value;
}

long
CommandLine::getInt(const std::string &name) const
{
    const Flag &f = find(name);
    char *end = nullptr;
    long v = std::strtol(f.value.c_str(), &end, 10);
    if (end == nullptr || *end != '\0')
        fatal("flag --", name, " expects an integer, got '", f.value, "'");
    return v;
}

double
CommandLine::getDouble(const std::string &name) const
{
    const Flag &f = find(name);
    char *end = nullptr;
    double v = std::strtod(f.value.c_str(), &end);
    if (end == nullptr || *end != '\0')
        fatal("flag --", name, " expects a number, got '", f.value, "'");
    return v;
}

bool
CommandLine::getBool(const std::string &name) const
{
    const Flag &f = find(name);
    if (f.value == "true" || f.value == "1")
        return true;
    if (f.value == "false" || f.value == "0")
        return false;
    fatal("flag --", name, " expects true/false, got '", f.value, "'");
}

void
CommandLine::printHelp(const std::string &prog) const
{
    std::cout << desc << "\n\nusage: " << prog << " [flags]\n\nflags:\n";
    for (const auto &[name, flag] : flags) {
        std::cout << "  --" << name << " (default: " << flag.def << ")\n"
                  << "      " << flag.help << "\n";
    }
}

void
checkWritablePath(const std::string &path, const char *flag)
{
    CHOPIN_CHECK(!path.empty(), flag, " must not be empty");
    // Anything at the path, a dangling link included, is left as it is.
    std::error_code ec;
    const bool created = std::filesystem::symlink_status(path, ec).type() ==
                         std::filesystem::file_type::not_found;
    const bool writable =
        std::ofstream(path, std::ios::binary | std::ios::app).good();
    if (writable && created)
        std::filesystem::remove(path, ec);
    CHOPIN_CHECK(writable, "cannot open '", path, "' for writing (", flag,
                 ")");
}

} // namespace chopin
