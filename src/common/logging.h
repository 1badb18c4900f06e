#ifndef LAN_COMMON_LOGGING_H_
#define LAN_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace lan {

/// \brief Severity levels for the process-wide logger.
enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kFatal = 4,
};

/// Sets the minimum severity that is actually emitted (default: kInfo).
void SetLogLevel(LogLevel level);

namespace internal {

/// Stream-style log line; emits on destruction. Fatal lines abort.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Swallows the streamed expression when the level is disabled.
class NullStream {
 public:
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

}  // namespace internal
}  // namespace lan

#define LAN_LOG_INTERNAL(level) \
  ::lan::internal::LogMessage(level, __FILE__, __LINE__)

#define LAN_LOG(severity) LAN_LOG_INTERNAL(::lan::LogLevel::k##severity)

/// CHECK macros: invariant assertions that stay on in release builds.
#define LAN_CHECK(cond)                                      \
  if (!(cond))                                               \
  LAN_LOG(Fatal) << "Check failed: " #cond " "

#define LAN_CHECK_OP(lhs, rhs, op)                                       \
  if (!((lhs)op(rhs)))                                                   \
  LAN_LOG(Fatal) << "Check failed: " #lhs " " #op " " #rhs " (" << (lhs) \
                 << " vs " << (rhs) << ") "

#define LAN_CHECK_EQ(a, b) LAN_CHECK_OP(a, b, ==)
#define LAN_CHECK_NE(a, b) LAN_CHECK_OP(a, b, !=)
#define LAN_CHECK_LT(a, b) LAN_CHECK_OP(a, b, <)
#define LAN_CHECK_LE(a, b) LAN_CHECK_OP(a, b, <=)
#define LAN_CHECK_GT(a, b) LAN_CHECK_OP(a, b, >)
#define LAN_CHECK_GE(a, b) LAN_CHECK_OP(a, b, >=)

#define LAN_CHECK_OK(expr)                                 \
  do {                                                     \
    ::lan::Status _st = (expr);                            \
    if (!_st.ok())                                         \
      LAN_LOG(Fatal) << "Check failed (status): "          \
                     << _st.ToString();                    \
  } while (false)

#ifndef NDEBUG
#define LAN_DCHECK(cond) LAN_CHECK(cond)
#define LAN_DCHECK_EQ(a, b) LAN_CHECK_EQ(a, b)
#define LAN_DCHECK_LT(a, b) LAN_CHECK_LT(a, b)
#define LAN_DCHECK_LE(a, b) LAN_CHECK_LE(a, b)
#else
#define LAN_DCHECK(cond) \
  if (false) LAN_LOG(Fatal)
#define LAN_DCHECK_EQ(a, b) \
  if (false) LAN_LOG(Fatal)
#define LAN_DCHECK_LT(a, b) \
  if (false) LAN_LOG(Fatal)
#define LAN_DCHECK_LE(a, b) \
  if (false) LAN_LOG(Fatal)
#endif

#endif  // LAN_COMMON_LOGGING_H_
