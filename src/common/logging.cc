#include "common/logging.h"

#include <cstdio>
#include <cstring>

namespace deca {
namespace {

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

}  // namespace

LogLevel MinLogLevel() { return LogLevel::kWarning; }

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level), file_(file), line_(line) {}

LogMessage::~LogMessage() {
  std::fprintf(stderr, "[%s %s:%d] %s\n", LevelName(level_), Basename(file_),
               line_, stream_.str().c_str());
  if (level_ == LogLevel::kFatal) {
    std::fflush(stderr);
    std::abort();
  }
}

}  // namespace internal
}  // namespace deca
