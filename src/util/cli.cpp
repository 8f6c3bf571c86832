#include "util/cli.hpp"

#include <algorithm>
#include <charconv>

namespace nocalert {

bool
CommandLine::parseWhole(const std::string &text, double &value)
{
    try {
        std::size_t used = 0;
        value = std::stod(text, &used);
        return used == text.size();
    } catch (...) {
        return false;
    }
}

bool
CommandLine::parseWhole(const std::string &text, unsigned &value)
{
    // from_chars rejects a sign, where stoul would wrap "-1".
    const auto [end, error] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    return error == std::errc() && end == text.data() + text.size();
}

CommandLine::CommandLine(int argc, const char *const *argv,
                         std::vector<std::string> known,
                         bool allow_positionals)
{
    auto is_known = [&](const std::string &name) {
        return std::find(known.begin(), known.end(), name) != known.end();
    };

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            if (!allow_positionals)
                NOCALERT_FATAL("unexpected positional argument: ", arg);
            positionals_.push_back(std::move(arg));
            continue;
        }
        arg = arg.substr(2);

        std::string name;
        std::string value;
        auto eq = arg.find('=');
        if (eq != std::string::npos) {
            name = arg.substr(0, eq);
            value = arg.substr(eq + 1);
        } else {
            name = arg;
            // "--flag value" form: consume the next token if it does not
            // look like another flag.
            if (i + 1 < argc &&
                std::string(argv[i + 1]).rfind("--", 0) != 0) {
                value = argv[++i];
            } else {
                value = "true";
            }
        }

        if (!is_known(name)) {
            std::string usage = "known flags:";
            for (const auto &k : known)
                usage += " --" + k;
            NOCALERT_FATAL("unknown flag --", name, "; ", usage);
        }
        values_[name] = value;
    }
}

bool
CommandLine::has(const std::string &name) const
{
    return values_.count(name) > 0;
}

std::string
CommandLine::getString(const std::string &name,
                       const std::string &fallback) const
{
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
}

std::int64_t
CommandLine::getInt(const std::string &name, std::int64_t fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    try {
        std::size_t used = 0;
        const std::int64_t value = std::stoll(it->second, &used);
        if (used == it->second.size())
            return value;
    } catch (...) {
    }
    NOCALERT_FATAL("flag --", name, " expects an integer, got '",
                   it->second, "'");
}

unsigned
CommandLine::getUnsigned(const std::string &name, unsigned fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    unsigned value = 0;
    if (parseWhole(it->second, value))
        return value;
    NOCALERT_FATAL("flag --", name, " expects a non-negative integer, got '",
                   it->second, "'");
}

double
CommandLine::getDouble(const std::string &name, double fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    double value = 0.0;
    if (parseWhole(it->second, value))
        return value;
    NOCALERT_FATAL("flag --", name, " expects a number, got '",
                   it->second, "'");
}

bool
CommandLine::getBool(const std::string &name, bool fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    const std::string &v = it->second;
    if (v == "true" || v == "1" || v == "yes")
        return true;
    if (v == "false" || v == "0" || v == "no")
        return false;
    NOCALERT_FATAL("flag --", name, " expects a boolean, got '", v, "'");
}

} // namespace nocalert
