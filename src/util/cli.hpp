/**
 * @file
 * Minimal command-line flag parser shared by benches and examples.
 *
 * Supports "--name value" and "--name=value" long options plus bare
 * boolean switches ("--full"). Unrecognized flags are fatal so typos in
 * experiment invocations never silently fall back to defaults.
 */

#ifndef NOCALERT_UTIL_CLI_HPP
#define NOCALERT_UTIL_CLI_HPP

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "util/log.hpp"

namespace nocalert {

/** Parsed command line with typed accessors and default values. */
class CommandLine
{
  public:
    /**
     * Parse argv. @p known lists every accepted flag name (without the
     * leading dashes); anything else aborts with a usage hint.
     *
     * With @p allow_positionals, non-flag tokens that do not follow a
     * value-less flag are collected into positionals() instead of
     * aborting (used by subcommand CLIs taking file lists).
     */
    CommandLine(int argc, const char *const *argv,
                std::vector<std::string> known,
                bool allow_positionals = false);

    /** True iff the flag was present (with or without a value). */
    bool has(const std::string &name) const;

    /** String value of a flag, or @p fallback when absent. */
    std::string getString(const std::string &name,
                          const std::string &fallback) const;

    /**
     * Integer value of a flag, or @p fallback when absent. The whole
     * value must parse ("2x" is fatal, not 2).
     */
    std::int64_t getInt(const std::string &name, std::int64_t fallback) const;

    /**
     * Count value of a flag (sites, jobs, budgets), or @p fallback
     * when absent: a non-negative integer that fits in unsigned.
     * Anything else is fatal and names the flag, so "-1" can never
     * wrap into a huge count.
     */
    unsigned getUnsigned(const std::string &name, unsigned fallback) const;

    /**
     * Double value of a flag, or @p fallback when absent. The whole
     * value must parse ("0.05abc" is fatal, not 0.05).
     */
    double getDouble(const std::string &name, double fallback) const;

    /**
     * Comma-separated list value of a flag ("0.01,0.02"), or
     * @p fallback when absent. Every token must parse whole, as
     * getDouble (T = double) or getUnsigned (T = unsigned) reads one
     * value; an empty or malformed token is fatal and names the flag.
     */
    template <typename T>
    std::vector<T> getList(const std::string &name,
                           std::vector<T> fallback) const;

    /** Boolean switch: present without value, or =true/=false. */
    bool getBool(const std::string &name, bool fallback) const;

    /** Non-flag arguments, in order (allow_positionals mode only). */
    const std::vector<std::string> &positionals() const
    {
        return positionals_;
    }

  private:
    /** @p text read whole as one value; false on a leftover or a bad
     *  number. */
    static bool parseWhole(const std::string &text, double &value);
    static bool parseWhole(const std::string &text, unsigned &value);

    std::map<std::string, std::string> values_;
    std::vector<std::string> positionals_;
};

template <typename T>
std::vector<T>
CommandLine::getList(const std::string &name, std::vector<T> fallback) const
{
    const auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    std::vector<T> list;
    for (std::size_t begin = 0;;) {
        const std::size_t comma = it->second.find(',', begin);
        T value{};
        if (!parseWhole(it->second.substr(begin, comma - begin), value))
            NOCALERT_FATAL("flag --", name, " expects comma-separated ",
                           std::is_same_v<T, double> ? "numbers" : "counts",
                           ", got '", it->second, "'");
        list.push_back(value);
        if (comma == std::string::npos)
            return list;
        begin = comma + 1;
    }
}

} // namespace nocalert

#endif // NOCALERT_UTIL_CLI_HPP
