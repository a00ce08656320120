#include "prefs/matching_io.hpp"

#include <sstream>
#include <vector>

#include "resilience/errors.hpp"
#include "resilience/fault_injection.hpp"
#include "util/check.hpp"
#include "util/text_reader.hpp"

namespace kstable::io {

void save(const KaryMatching& matching, std::ostream& os) {
  os << "kstable-kary v1\n"
     << matching.genders() << ' ' << matching.per_gender() << '\n';
  for (Index t = 0; t < matching.family_count(); ++t) {
    os << "family " << t << " :";
    for (Gender g = 0; g < matching.genders(); ++g) {
      os << ' ' << matching.member_at(t, g).index;
    }
    os << '\n';
  }
}

KaryMatching kary_from_string(std::string_view text) {
  KSTABLE_FAULT_POINT("io/load");
  util::TextReader r(text);
  const auto [k, n] = r.header<Gender, Index>("kstable-kary", "v1");
  r.check(k >= 2 && n >= 1, "dimensions out of range");
  const auto members = static_cast<std::size_t>(k);
  r.require_room(static_cast<std::size_t>(n), 9 + 2 * members,
                 "\"family t: <k members>\" lines");
  std::vector<Index> families(members * static_cast<std::size_t>(n), -1);
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  while (r.next_line()) {
    r.keyword("family");
    const auto t = r.number<Index>();
    r.colon();
    r.check(t >= 0 && t < n, "family index out of range");
    r.check(!seen[static_cast<std::size_t>(t)], "duplicate family");
    seen[static_cast<std::size_t>(t)] = true;
    for (std::size_t g = 0; g < members; ++g) {
      families[static_cast<std::size_t>(t) * members + g] = r.number<Index>();
    }
    r.end_line();
  }
  for (Index t = 0; t < n; ++t) {
    KSTABLE_PARSE_REQUIRE(seen[static_cast<std::size_t>(t)], "missing family " << t);
  }
  return util::parse_checked(
      [&] { return KaryMatching(k, n, std::move(families)); });
}

std::string to_string(const KaryMatching& matching) {
  std::ostringstream os;
  save(matching, os);
  return os.str();
}

void save(const BinaryMatchingKP& matching, std::ostream& os) {
  os << "kstable-binary v1\n"
     << matching.genders() << ' ' << matching.per_gender() << '\n';
  const auto& raw = matching.raw();
  for (std::size_t f = 0; f < raw.size(); ++f) {
    if (raw[f] > static_cast<std::int32_t>(f)) {
      os << "pair " << f << ' ' << raw[f] << '\n';
    }
  }
}

BinaryMatchingKP binary_from_string(std::string_view text) {
  KSTABLE_FAULT_POINT("io/load");
  util::TextReader r(text);
  const auto [k, n] = r.header<Gender, Index>("kstable-binary", "v1");
  r.check(k >= 2 && n >= 1, "dimensions out of range");
  const auto total = static_cast<std::size_t>(k) * static_cast<std::size_t>(n);
  r.require_room(total / 2, 8, "\"pair a b\" lines");
  std::vector<std::int32_t> partner(total, -1);
  while (r.next_line()) {
    r.keyword("pair");
    const auto a = r.number<std::int32_t>();
    const auto b = r.number<std::int32_t>();
    r.end_line();
    r.check(a >= 0 && b >= 0 && static_cast<std::size_t>(a) < total &&
                static_cast<std::size_t>(b) < total,
            "pair out of range");
    r.check(partner[static_cast<std::size_t>(a)] == -1 &&
                partner[static_cast<std::size_t>(b)] == -1,
            "member in two pairs");
    partner[static_cast<std::size_t>(a)] = b;
    partner[static_cast<std::size_t>(b)] = a;
  }
  return util::parse_checked(
      [&] { return BinaryMatchingKP(k, n, std::move(partner)); });
}

std::string to_string(const BinaryMatchingKP& matching) {
  std::ostringstream os;
  save(matching, os);
  return os.str();
}

}  // namespace kstable::io
