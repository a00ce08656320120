// Text serialization for RoommatesInstance.
//
// Format (line oriented, '#' comments allowed):
//   kstable-roommates v1
//   <n>
//   list <p> : <q_0> <q_1> ...     (one line per person; may be empty lists)
// All n persons must appear; lists must be symmetric (validated on load).
// The ':' may touch <p>; nothing may follow a line's last token.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "roommates/instance.hpp"

namespace kstable::rm::io {

void save(const RoommatesInstance& inst, std::ostream& os);

void save_file(const RoommatesInstance& inst, const std::string& path);
RoommatesInstance load_file(const std::string& path);

std::string to_string(const RoommatesInstance& inst);
/// Parses in place; throws ParseError on malformed input, including a body
/// too short to hold the n list lines its size line announces.
RoommatesInstance from_string(std::string_view text);

}  // namespace kstable::rm::io
