/**
 * @file
 * Minimal gem5-flavoured logging and error helpers.
 *
 * panic() flags simulator bugs and aborts; fatal() flags user/config
 * errors and exits; warn() reports a condition without stopping the
 * simulation.
 */

#ifndef SPK_SIM_LOGGING_HH
#define SPK_SIM_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace spk
{

/** Severity used by the message helpers below. */
enum class LogLevel { Warn, Fatal, Panic };

namespace detail
{
/** Emit a formatted message to stderr with a severity prefix. */
void logMessage(LogLevel level, const std::string &msg);
} // namespace detail

/**
 * Report an unrecoverable simulator bug and abort.
 * Mirrors gem5's panic(): "this should never happen".
 */
[[noreturn]] void panic(const std::string &msg);

/**
 * Report an unrecoverable user error (bad configuration, invalid
 * arguments) and exit(1). Mirrors gem5's fatal().
 */
[[noreturn]] void fatal(const std::string &msg);

/** Report a suspicious-but-survivable condition. */
void warn(const std::string &msg);

} // namespace spk

#endif // SPK_SIM_LOGGING_HH
