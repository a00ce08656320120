// Text serialization for KPartiteInstance.
//
// Format (line oriented, '#' comments allowed):
//   kstable-kpartite v1
//   <k> <n>
//   pref <g> <i> <h> : <idx_0> <idx_1> ... <idx_{n-1}>   (one line per list)
// Lists may appear in any order; all k*n*(k-1) lists must be present.
#pragma once

#include <iosfwd>
#include <string>

#include "prefs/kpartite.hpp"

namespace kstable::io {

/// Writes `inst` in the v1 text format.
void save(const KPartiteInstance& inst, std::ostream& os);

/// Parses a v1 text instance; throws ContractViolation on malformed input.
/// On a seekable stream (files, strings) a body too short to encode its
/// dimensions line is rejected with ParseError before the instance is
/// allocated, so memory stays proportional to the input size.
KPartiteInstance load(std::istream& is);

/// Convenience wrappers over save/load using files.
void save_file(const KPartiteInstance& inst, const std::string& path);
KPartiteInstance load_file(const std::string& path);

/// Round-trip helper: serialize to a string.
std::string to_string(const KPartiteInstance& inst);
KPartiteInstance from_string(const std::string& text);

}  // namespace kstable::io
