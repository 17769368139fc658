#ifndef DECA_COMMON_LOGGING_H_
#define DECA_COMMON_LOGGING_H_

#include <cstdlib>
#include <sstream>
#include <string>

namespace deca {

/// Severity levels for the lightweight logger. kFatal aborts the process
/// after emitting the message.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kFatal = 4 };

/// Returns the minimum severity that is actually emitted (kWarning).
/// Messages below it are swallowed.
LogLevel MinLogLevel();

namespace internal {

/// Accumulates one log line and flushes it (with file/line prefix) on
/// destruction. Not for direct use; see the DECA_LOG / DECA_CHECK macros.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

/// Swallows a log stream when the message is compiled out or filtered.
struct LogMessageVoidify {
  void operator&(std::ostream&) {}
};

}  // namespace internal
}  // namespace deca

#define DECA_LOG_INTERNAL(level) \
  ::deca::internal::LogMessage(level, __FILE__, __LINE__).stream()

#define DECA_LOG(severity)                                             \
  (::deca::LogLevel::k##severity < ::deca::MinLogLevel())              \
      ? (void)0                                                        \
      : ::deca::internal::LogMessageVoidify() &                        \
            DECA_LOG_INTERNAL(::deca::LogLevel::k##severity)

/// Always-on invariant check; logs the failed condition and aborts.
#define DECA_CHECK(cond)                                            \
  (cond) ? (void)0                                                  \
         : ::deca::internal::LogMessageVoidify() &                  \
               DECA_LOG_INTERNAL(::deca::LogLevel::kFatal)          \
                   << "Check failed: " #cond " "

#define DECA_CHECK_OP(a, b, op)                                          \
  ((a)op(b)) ? (void)0                                                   \
             : ::deca::internal::LogMessageVoidify() &                   \
                   DECA_LOG_INTERNAL(::deca::LogLevel::kFatal)           \
                       << "Check failed: " #a " " #op " " #b " (" << (a) \
                       << " vs " << (b) << ") "

#define DECA_CHECK_EQ(a, b) DECA_CHECK_OP(a, b, ==)
#define DECA_CHECK_NE(a, b) DECA_CHECK_OP(a, b, !=)
#define DECA_CHECK_LT(a, b) DECA_CHECK_OP(a, b, <)
#define DECA_CHECK_LE(a, b) DECA_CHECK_OP(a, b, <=)
#define DECA_CHECK_GT(a, b) DECA_CHECK_OP(a, b, >)
#define DECA_CHECK_GE(a, b) DECA_CHECK_OP(a, b, >=)

#ifdef NDEBUG
#define DECA_DCHECK(cond) DECA_CHECK(true || (cond))
#define DECA_DCHECK_EQ(a, b) DECA_DCHECK((a) == (b))
#define DECA_DCHECK_LT(a, b) DECA_DCHECK((a) < (b))
#define DECA_DCHECK_LE(a, b) DECA_DCHECK((a) <= (b))
#else
#define DECA_DCHECK(cond) DECA_CHECK(cond)
#define DECA_DCHECK_EQ(a, b) DECA_CHECK_EQ(a, b)
#define DECA_DCHECK_LT(a, b) DECA_CHECK_LT(a, b)
#define DECA_DCHECK_LE(a, b) DECA_CHECK_LE(a, b)
#endif

#endif  // DECA_COMMON_LOGGING_H_
