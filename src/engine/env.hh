/**
 * @file
 * Strict parsing of the environment knobs.
 *
 * Outside the `pstat` CLI (src/apps), src/ reads three variables,
 * and all of them move time, never a result bit: PSTAT_THREADS and
 * PSTAT_GRAIN (engine lanes and scheduling grain) and PSTAT_SIMD
 * (kernel dispatch). The knobs that do move bits (PSTAT_COMPENSATED,
 * PSTAT_LADDER, PSTAT_CERT_TOL, PSTAT_GUARD_BITS) are read where a
 * plan is built, never by EvalEngine::run: the CLI records their
 * values in the plans it builds, and the benches read
 * PSTAT_COMPENSATED into theirs. std::atol-style parsing silently
 * accepts trailing garbage ("8x" becomes 8) and saturates
 * out-of-range values, which turns a typo into a misconfigured run
 * with no diagnostic. The helpers here validate the full string and
 * report failure as an empty optional so callers can warn and fall
 * back deliberately.
 */

#ifndef PSTAT_ENGINE_ENV_HH
#define PSTAT_ENGINE_ENV_HH

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>

namespace pstat::engine
{

/**
 * Parse a decimal integer with full-string validation: leading
 * whitespace is accepted (strtol semantics) but any trailing
 * character, an empty string, or an out-of-range value yields an
 * empty optional instead of a silently mangled number.
 */
inline std::optional<long>
parseLong(const char *text)
{
    if (text == nullptr || *text == '\0')
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const long parsed = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE)
        return std::nullopt;
    return parsed;
}

/**
 * Parse a floating-point knob with full-string validation (strtod
 * semantics for the accepted prefix): leading whitespace is fine, but
 * trailing garbage, an empty string, an overflowing magnitude, or a
 * NaN yields an empty optional instead of a silently mangled number.
 * Infinities are accepted — some knobs (thresholds in log2) are
 * legitimately unbounded.
 */
inline std::optional<double>
parseDouble(const char *text)
{
    if (text == nullptr || *text == '\0')
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const double parsed = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE ||
        parsed != parsed) {
        return std::nullopt;
    }
    return parsed;
}

/**
 * Parse a boolean knob: a validated integer (nonzero is true) or one
 * of the case-insensitive tokens true/false/yes/no/on/off. Leading
 * whitespace is accepted on both paths (matching strtol); anything
 * else — including integers or tokens with trailing garbage — yields
 * an empty optional.
 */
inline std::optional<bool>
parseBool(const char *text)
{
    if (const auto n = parseLong(text))
        return *n != 0;
    if (text == nullptr)
        return std::nullopt;
    while (std::isspace(static_cast<unsigned char>(*text)))
        ++text;
    std::string lowered;
    for (const char *p = text; *p != '\0'; ++p)
        lowered += static_cast<char>(
            std::tolower(static_cast<unsigned char>(*p)));
    const std::string_view v(lowered);
    if (v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "no" || v == "off")
        return false;
    return std::nullopt;
}

/**
 * Parse a keyword knob (e.g. PSTAT_SIMD=auto|scalar|avx2|neon):
 * leading whitespace is accepted (matching strtol), the rest is
 * lowercased and must match one of the given tokens in full. Returns
 * the matched token, or an empty optional for anything else —
 * including tokens with trailing garbage — so callers can warn and
 * fall back deliberately.
 */
inline std::optional<std::string>
parseToken(const char *text,
           std::initializer_list<std::string_view> tokens)
{
    if (text == nullptr || *text == '\0')
        return std::nullopt;
    while (std::isspace(static_cast<unsigned char>(*text)))
        ++text;
    std::string lowered;
    for (const char *p = text; *p != '\0'; ++p)
        lowered += static_cast<char>(
            std::tolower(static_cast<unsigned char>(*p)));
    for (const std::string_view token : tokens) {
        if (lowered == token)
            return lowered;
    }
    return std::nullopt;
}

} // namespace pstat::engine

#endif // PSTAT_ENGINE_ENV_HH
