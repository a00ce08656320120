// Contract-checking macros for kstable.
//
// Follows the C++ Core Guidelines (I.6/I.8 style Expects/Ensures): precondition
// violations are programming errors and throw `kstable::ContractViolation`
// with file/line context so tests can assert on them (failure injection).
// Hot inner loops use KSTABLE_ASSERT, compiled out in NDEBUG builds.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace kstable {

/// Thrown when a KSTABLE_REQUIRE / KSTABLE_ENSURE contract is violated.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what) : std::logic_error(what) {}
};

/// Malformed serialized input (bad header, out-of-range ids, duplicate or
/// missing lines, non-permutation lists). Thrown by the IO modules only.
class ParseError : public ContractViolation {
 public:
  explicit ParseError(const std::string& what) : ContractViolation(what) {}
};

namespace detail {
[[noreturn]] inline void contract_fail(const char* kind, const char* expr,
                                       const char* file, int line,
                                       const std::string& msg) {
  std::ostringstream os;
  os << kind << " failed: (" << expr << ") at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw ContractViolation(os.str());
}
}  // namespace detail

}  // namespace kstable

/// Precondition check; always on. `msg` is streamed, e.g.
///   KSTABLE_REQUIRE(n > 0, "n=" << n);
#define KSTABLE_REQUIRE(cond, msg)                                              \
  do {                                                                          \
    if (!(cond)) {                                                              \
      std::ostringstream kstable_req_os_;                                       \
      kstable_req_os_ << msg; /* NOLINT */                                      \
      ::kstable::detail::contract_fail("precondition", #cond, __FILE__,         \
                                       __LINE__, kstable_req_os_.str());        \
    }                                                                           \
  } while (false)

/// Postcondition / invariant check; always on.
#define KSTABLE_ENSURE(cond, msg)                                               \
  do {                                                                          \
    if (!(cond)) {                                                              \
      std::ostringstream kstable_ens_os_;                                       \
      kstable_ens_os_ << msg; /* NOLINT */                                      \
      ::kstable::detail::contract_fail("postcondition", #cond, __FILE__,        \
                                       __LINE__, kstable_ens_os_.str());        \
    }                                                                           \
  } while (false)

/// Cheap internal sanity check for hot paths; compiled out under NDEBUG.
#ifdef NDEBUG
#define KSTABLE_ASSERT(cond) ((void)0)
#else
#define KSTABLE_ASSERT(cond)                                                    \
  do {                                                                          \
    if (!(cond)) {                                                              \
      ::kstable::detail::contract_fail("assertion", #cond, __FILE__, __LINE__,  \
                                       std::string{});                          \
    }                                                                           \
  } while (false)
#endif
