// Runtime error taxonomy for the resilience subsystem.
//
// The library's original catch-all was ContractViolation: programming errors
// and malformed input were indistinguishable, and there was no way to tell
// "the solver was stopped" from "the solver is broken". This header splits the
// space three ways:
//
//   ContractViolation   — programming error (unchanged; util/check.hpp)
//   ParseError          — malformed *input* at a serialization boundary
//                         (prefs/io, roommates/io, prefs/matching_io; in
//                         util/check.hpp, below the util tokenizer). Derives
//                         from ContractViolation so legacy catch sites keep
//                         working, but can now be caught separately.
//   ExecutionAborted    — a solve was stopped cooperatively: deadline expired,
//                         proposal budget exhausted, cancellation requested,
//                         or a deterministic fault fired (InjectedFault).
//
// SolveStatus is the structured, non-throwing record of how a solve ended; it
// is carried in solver results (core::BindingResult, rm::RoommatesResult) and
// in resilience::FallbackReport.
#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/check.hpp"

namespace kstable {

/// Why a solve stopped before producing a result.
enum class AbortReason : std::uint8_t {
  none = 0,         ///< not aborted
  deadline,         ///< wall-clock budget expired
  proposal_budget,  ///< proposal-count budget exhausted
  cancelled,        ///< CancellationToken was triggered
  injected_fault    ///< a deterministic fault point fired
};

[[nodiscard]] constexpr const char* to_string(AbortReason reason) noexcept {
  switch (reason) {
    case AbortReason::none: return "none";
    case AbortReason::deadline: return "deadline";
    case AbortReason::proposal_budget: return "proposal-budget";
    case AbortReason::cancelled: return "cancelled";
    case AbortReason::injected_fault: return "injected-fault";
  }
  return "unknown";
}

/// A solver was stopped cooperatively (deadline / budget / cancel / fault).
/// NOT a logic error: the input may be fine and a retry may succeed, which is
/// exactly what resilience::solve_with_fallback does.
class ExecutionAborted : public std::runtime_error {
 public:
  ExecutionAborted(AbortReason reason, const std::string& what)
      : std::runtime_error(what), reason_(reason) {}

  [[nodiscard]] AbortReason reason() const noexcept { return reason_; }

 private:
  AbortReason reason_;
};

/// A deterministic fault point fired (resilience/fault_injection.hpp).
class InjectedFault : public ExecutionAborted {
 public:
  explicit InjectedFault(const std::string& point)
      : ExecutionAborted(AbortReason::injected_fault,
                         "injected fault at point '" + point + "'"),
        point_(point) {}

  /// Name of the fault point that fired, e.g. "core/binding_edge".
  [[nodiscard]] const std::string& point() const noexcept { return point_; }

 private:
  std::string point_;
};

namespace resilience {

/// How a solve ended, as data rather than control flow.
enum class SolveOutcome : std::uint8_t {
  ok = 0,    ///< a matching was produced
  aborted,   ///< stopped by deadline / budget / cancel / injected fault
  no_stable  ///< the instance provably has no stable matching (roommates)
};

[[nodiscard]] constexpr const char* to_string(SolveOutcome outcome) noexcept {
  switch (outcome) {
    case SolveOutcome::ok: return "ok";
    case SolveOutcome::aborted: return "aborted";
    case SolveOutcome::no_stable: return "no-stable";
  }
  return "unknown";
}

/// Structured completion record carried in solver results.
struct SolveStatus {
  SolveOutcome outcome = SolveOutcome::ok;
  AbortReason abort_reason = AbortReason::none;  ///< set iff outcome==aborted
  std::string detail;        ///< human-readable context (abort message, ...)
  std::int64_t proposals = 0;  ///< work spent (accumulated proposals)
  double wall_ms = 0.0;        ///< wall-clock spent

  [[nodiscard]] bool ok() const noexcept { return outcome == SolveOutcome::ok; }

  [[nodiscard]] std::string summary() const {
    std::ostringstream os;
    os << to_string(outcome);
    if (outcome == SolveOutcome::aborted) {
      os << '(' << kstable::to_string(abort_reason) << ')';
    }
    os << " after " << proposals << " proposals";
    return os.str();
  }
};

}  // namespace resilience
}  // namespace kstable

/// Input-validation check for the IO layer: like KSTABLE_REQUIRE but throws
/// ParseError — malformed input, not a programming error.
#define KSTABLE_PARSE_REQUIRE(cond, msg)                                       \
  do {                                                                         \
    if (!(cond)) {                                                             \
      std::ostringstream kstable_parse_os_;                                    \
      kstable_parse_os_ << "parse error: " << msg; /* NOLINT */                \
      throw ::kstable::ParseError(kstable_parse_os_.str());                    \
    }                                                                          \
  } while (false)
