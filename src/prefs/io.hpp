// Text serialization for KPartiteInstance.
//
// Format (line oriented, '#' comments allowed):
//   kstable-kpartite v1
//   <k> <n>
//   pref <g> <i> <h> : <idx_0> <idx_1> ... <idx_{n-1}>   (one line per list)
// Lists may appear in any order; all k*n*(k-1) lists must be present. The
// ':' may touch <h>; nothing may follow a line's last token.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "prefs/kpartite.hpp"

namespace kstable::io {

/// Writes `inst` in the v1 text format.
void save(const KPartiteInstance& inst, std::ostream& os);

/// Convenience wrappers over save/from_string using files.
void save_file(const KPartiteInstance& inst, const std::string& path);
KPartiteInstance load_file(const std::string& path);

/// Round-trip helper: serialize to a string.
std::string to_string(const KPartiteInstance& inst);

/// Parses a v1 text instance in place; throws ParseError on malformed input.
/// A body too short to encode its dimensions line is rejected before the
/// instance is allocated, so memory stays proportional to the input size.
KPartiteInstance from_string(std::string_view text);

}  // namespace kstable::io
