#include "prefs/io.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

#include "prefs/arena.hpp"
#include "resilience/errors.hpp"
#include "resilience/fault_injection.hpp"
#include "util/check.hpp"
#include "util/text_reader.hpp"

namespace kstable::io {

namespace {

constexpr const char* kMagic = "kstable-kpartite";
constexpr const char* kVersion = "v1";

/// Fewest bytes a pref line of an n-member instance can take: "pref g i h:"
/// (11 bytes) followed by the n distinct indices 0..n-1, each with one
/// leading separator.
std::size_t min_pref_line_bytes(Index n) {
  const auto members = static_cast<std::size_t>(n);
  std::size_t digits = 0;  // decimal digits of 0..n-1
  for (std::size_t first = 0, next = 10, width = 1; first < members;
       first = next, next *= 10, ++width) {
    digits += (std::min(next, members) - first) * width;
  }
  return 11 + members + digits;
}

}  // namespace

void save(const KPartiteInstance& inst, std::ostream& os) {
  os << kMagic << ' ' << kVersion << '\n';
  os << inst.genders() << ' ' << inst.per_gender() << '\n';
  for (Gender g = 0; g < inst.genders(); ++g) {
    for (Index i = 0; i < inst.per_gender(); ++i) {
      for (Gender h = 0; h < inst.genders(); ++h) {
        if (h == g) continue;
        os << "pref " << g << ' ' << i << ' ' << h << " :";
        for (Index idx : inst.pref_list({g, i}, h)) os << ' ' << idx;
        os << '\n';
      }
    }
  }
}

KPartiteInstance from_string(std::string_view text) {
  KSTABLE_FAULT_POINT("io/load");
  util::TextReader r(text);
  const auto [k, n] = r.header<Gender, Index>(kMagic, kVersion);
  r.check(k >= 2 && n >= 1, "dimensions out of range");
  // The arena for (k, n) is sized from the dimensions line alone, so a tiny
  // body with a large header would otherwise commit gigabytes before the
  // line count check fails. Refuse any body too short to hold the lines.
  const std::size_t expected_lists = prefs::checked_mul(
      static_cast<std::size_t>(k) * static_cast<std::size_t>(n),
      static_cast<std::size_t>(k - 1));
  r.require_room(expected_lists, min_pref_line_bytes(n), "pref lines");
  auto inst = util::parse_checked([&] { return KPartiteInstance(k, n); });
  // One slot per (observer member, target gender): duplicates are rejected
  // outright instead of trusting the final count (a duplicate plus a missing
  // line would otherwise pass the seen == expected_lists check).
  std::vector<bool> filled(expected_lists, false);
  std::size_t seen = 0;
  std::vector<Index> order;
  while (r.next_line()) {
    r.keyword("pref");
    const auto g = r.number<Gender>();
    const auto i = r.number<Index>();
    const auto h = r.number<Gender>();
    r.colon();
    // Bounds-check before indexing anything with g/i/h.
    r.check(g >= 0 && g < k, "gender out of range");
    r.check(i >= 0 && i < n, "member out of range");
    r.check(h >= 0 && h < k && h != g, "target gender invalid");
    const std::size_t slot =
        (static_cast<std::size_t>(g) * static_cast<std::size_t>(n) +
         static_cast<std::size_t>(i)) *
            static_cast<std::size_t>(k - 1) +
        static_cast<std::size_t>(h < g ? h : h - 1);
    r.check(!filled[slot], "duplicate pref line");
    filled[slot] = true;
    order.clear();
    while (!r.at_end()) order.push_back(r.number<Index>());
    util::parse_checked([&] { inst.set_pref_list({g, i}, h, order); });
    ++seen;
  }
  KSTABLE_PARSE_REQUIRE(seen == expected_lists,
                        "instance has " << seen << " pref lines, expected "
                                        << expected_lists);
  util::parse_checked([&] { inst.validate(); });
  return inst;
}

void save_file(const KPartiteInstance& inst, const std::string& path) {
  std::ofstream os(path);
  KSTABLE_REQUIRE(os.good(), "cannot open '" << path << "' for writing");
  save(inst, os);
  KSTABLE_REQUIRE(os.good(), "write to '" << path << "' failed");
}

KPartiteInstance load_file(const std::string& path) {
  return from_string(util::read_file(path));
}

std::string to_string(const KPartiteInstance& inst) {
  std::ostringstream os;
  save(inst, os);
  return os.str();
}

}  // namespace kstable::io
