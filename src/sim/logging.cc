#include "sim/logging.hh"

namespace spk
{

namespace detail
{

void
logMessage(LogLevel level, const std::string &msg)
{
    const char *prefix = "";
    switch (level) {
      case LogLevel::Warn:
        prefix = "warn";
        break;
      case LogLevel::Fatal:
        prefix = "fatal";
        break;
      case LogLevel::Panic:
        prefix = "panic";
        break;
    }
    std::fprintf(stderr, "[%s] %s\n", prefix, msg.c_str());
}

} // namespace detail

void
panic(const std::string &msg)
{
    detail::logMessage(LogLevel::Panic, msg);
    std::abort();
}

void
fatal(const std::string &msg)
{
    detail::logMessage(LogLevel::Fatal, msg);
    std::exit(1);
}

void
warn(const std::string &msg)
{
    detail::logMessage(LogLevel::Warn, msg);
}

} // namespace spk
