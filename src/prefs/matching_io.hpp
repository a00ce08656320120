// Text serialization for matching results, so pipelines can persist and
// exchange solver outputs.
//
// KaryMatching format:
//   kstable-kary v1
//   <k> <n>
//   family <t> : <idx_gender0> <idx_gender1> ... <idx_gender{k-1}>
// BinaryMatchingKP format:
//   kstable-binary v1
//   <k> <n>
//   pair <flat_a> <flat_b>            (each unordered pair once)
// '#' comments allowed; the ':' may touch <t>; nothing may follow a line's
// last token. The parsers read in place and throw ParseError on malformed
// input, including a body too short for the records its header announces.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "prefs/matching.hpp"

namespace kstable::io {

void save(const KaryMatching& matching, std::ostream& os);
std::string to_string(const KaryMatching& matching);
KaryMatching kary_from_string(std::string_view text);

void save(const BinaryMatchingKP& matching, std::ostream& os);
std::string to_string(const BinaryMatchingKP& matching);
BinaryMatchingKP binary_from_string(std::string_view text);

}  // namespace kstable::io
