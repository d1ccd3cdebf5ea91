/**
 * @file
 * Tiny command-line flag parser shared by the bench and example binaries.
 *
 * Supports --name=value and --name value forms plus boolean switches
 * (--name). Unknown flags are fatal so that typos in sweep scripts are
 * caught rather than silently ignored.
 */

#ifndef CHOPIN_UTIL_CLI_HH
#define CHOPIN_UTIL_CLI_HH

#include <map>
#include <string>
#include <vector>

namespace chopin
{

/** Parsed command line: registered flags with defaults, then parse(). */
class CommandLine
{
  public:
    /** @param description one-line tool description for --help. */
    explicit CommandLine(std::string description);

    /** Register a flag with a default value and help text. */
    void addFlag(const std::string &name, const std::string &def,
                 const std::string &help);

    /**
     * Parse argv. Prints help and exits on --help; fatal() on unknown
     * flags or missing values.
     */
    void parse(int argc, char **argv);

    /** Accessors; fatal() if @p name was never registered. */
    std::string getString(const std::string &name) const;
    long getInt(const std::string &name) const;
    double getDouble(const std::string &name) const;
    bool getBool(const std::string &name) const;

    /** Positional (non-flag) arguments in order. */
    const std::vector<std::string> &positional() const { return args; }

  private:
    struct Flag
    {
        std::string value;
        std::string def;
        std::string help;
    };

    const Flag &find(const std::string &name) const;
    void printHelp(const std::string &prog) const;

    std::string desc;
    std::map<std::string, Flag> flags;
    std::vector<std::string> args;
};

/**
 * Validate an output path *before* any expensive work: probe-open it for
 * appending (existing contents are untouched; a missing file is created
 * and removed again, so a run that fails later leaves nothing behind).
 * Failure goes through the check layer, so a tool that installed
 * setCliCheckTool() prints "<tool>: error: cannot write ..." and exits 2
 * up front instead of simulating for minutes and then failing to save.
 */
void checkWritablePath(const std::string &path, const char *flag);

} // namespace chopin

#endif // CHOPIN_UTIL_CLI_HH
