#include "prefs/io.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

#include "prefs/arena.hpp"
#include "resilience/errors.hpp"
#include "resilience/fault_injection.hpp"
#include "util/check.hpp"

namespace kstable::io {

namespace {

constexpr const char* kMagic = "kstable-kpartite";
constexpr const char* kVersion = "v1";

/// Strips comments and returns the next non-blank line, or nullopt at EOF.
std::optional<std::string> next_line(std::istream& is) {
  std::string line;
  while (std::getline(is, line)) {
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    if (line.find_first_not_of(" \t\r") != std::string::npos) return line;
  }
  return std::nullopt;
}

/// Fewest bytes the pref lines of any v1 encoding of a (k, n) instance can
/// take: k·n·(k−1) lines, each at least "pref g i h:" (11 bytes) followed by
/// the n distinct indices 0..n-1, each with one leading separator. Throws
/// ParseError when the count overflows (no such body can exist).
std::size_t min_pref_bytes(Gender k, Index n) {
  const auto members = static_cast<std::size_t>(n);
  std::size_t digits = 0;  // decimal digits of 0..n-1
  for (std::size_t first = 0, next = 10, width = 1; first < members;
       first = next, next *= 10, ++width) {
    digits += (std::min(next, members) - first) * width;
  }
  const std::size_t lines = prefs::checked_mul(
      prefs::checked_mul(static_cast<std::size_t>(k), members),
      static_cast<std::size_t>(k - 1));
  return prefs::checked_mul(lines, 11 + members + digits);
}

/// Bytes left in a seekable stream, or nullopt (pipes, sockets).
std::optional<std::size_t> remaining_bytes(std::istream& is) {
  if (is.eof()) return 0;  // the dimensions line ended the stream
  const auto here = is.tellg();
  if (here < 0) return std::nullopt;
  is.seekg(0, std::ios::end);
  const auto end = is.tellg();
  is.seekg(here);
  if (end < here) return std::nullopt;
  return static_cast<std::size_t>(end - here);
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

KPartiteInstance load(std::istream& is) {
  KSTABLE_FAULT_POINT("io/load");
  auto header = next_line(is);
  KSTABLE_PARSE_REQUIRE(header.has_value(), "empty instance stream");
  {
    std::istringstream hs(*header);
    std::string magic, version;
    hs >> magic >> version;
    KSTABLE_PARSE_REQUIRE(magic == kMagic && version == kVersion,
                          "bad header '" << *header << "'");
  }
  auto dims = next_line(is);
  KSTABLE_PARSE_REQUIRE(dims.has_value(), "missing dimensions line");
  Gender k = 0;
  Index n = 0;
  {
    std::istringstream ds(*dims);
    ds >> k >> n;
    KSTABLE_PARSE_REQUIRE(!ds.fail(), "bad dimensions line '" << *dims << "'");
    KSTABLE_PARSE_REQUIRE(k >= 2 && n >= 1,
                          "dimensions out of range: k=" << k << " n=" << n);
  }
  // The arena for (k, n) is sized from the dimensions line alone, so a tiny
  // body with a large header would otherwise commit gigabytes before the
  // line count check fails. Refuse any body too short to hold the lines.
  if (const auto left = remaining_bytes(is)) {
    const std::size_t needed = min_pref_bytes(k, n);
    KSTABLE_PARSE_REQUIRE(*left >= needed,
                          "body has " << *left << " bytes after the "
                                      << "dimensions line; k=" << k << " n="
                                      << n << " needs at least " << needed);
  }
  KPartiteInstance inst = [&] {
    try {
      return KPartiteInstance(k, n);
    } catch (const std::bad_alloc&) {
      throw ParseError("parse error: instance dimensions too large");
    }
  }();
  const std::size_t expected_lists = static_cast<std::size_t>(k) *
                                     static_cast<std::size_t>(n) *
                                     static_cast<std::size_t>(k - 1);
  // One slot per (observer member, target gender): duplicates are rejected
  // outright instead of trusting the final count (a duplicate plus a missing
  // line would otherwise pass the seen == expected_lists check).
  std::vector<bool> filled(expected_lists, false);
  std::size_t seen = 0;
  while (auto line = next_line(is)) {
    std::istringstream ls(*line);
    std::string tag, colon;
    Gender g = 0, h = 0;
    Index i = 0;
    ls >> tag >> g >> i >> h >> colon;
    KSTABLE_PARSE_REQUIRE(!ls.fail() && tag == "pref" && colon == ":",
                          "bad pref line '" << *line << "'");
    // Bounds-check before indexing anything with g/i/h.
    KSTABLE_PARSE_REQUIRE(g >= 0 && g < k, "gender " << g
                              << " out of range on line '" << *line << "'");
    KSTABLE_PARSE_REQUIRE(i >= 0 && i < n, "member " << i
                              << " out of range on line '" << *line << "'");
    KSTABLE_PARSE_REQUIRE(h >= 0 && h < k && h != g,
                          "target gender " << h << " invalid on line '"
                                           << *line << "'");
    const std::size_t slot =
        (static_cast<std::size_t>(g) * static_cast<std::size_t>(n) +
         static_cast<std::size_t>(i)) *
            static_cast<std::size_t>(k - 1) +
        static_cast<std::size_t>(h < g ? h : h - 1);
    KSTABLE_PARSE_REQUIRE(!filled[slot], "duplicate pref line for member ("
                                             << g << ',' << i
                                             << ") over gender " << h);
    filled[slot] = true;
    std::vector<Index> order;
    order.reserve(static_cast<std::size_t>(n));
    Index idx = 0;
    while (ls >> idx) order.push_back(idx);
    try {
      inst.set_pref_list({g, i}, h, order);
    } catch (const ContractViolation& e) {
      // Non-permutation list: malformed input, not a programming error.
      throw ParseError(std::string("parse error: ") + e.what());
    }
    ++seen;
  }
  KSTABLE_PARSE_REQUIRE(seen == expected_lists,
                        "instance has " << seen << " pref lines, expected "
                                        << expected_lists);
  try {
    inst.validate();
  } catch (const ContractViolation& e) {
    throw ParseError(std::string("parse error: ") + e.what());
  }
  return inst;
}

void save_file(const KPartiteInstance& inst, const std::string& path) {
  std::ofstream os(path);
  KSTABLE_REQUIRE(os.good(), "cannot open '" << path << "' for writing");
  save(inst, os);
  KSTABLE_REQUIRE(os.good(), "write to '" << path << "' failed");
}

KPartiteInstance load_file(const std::string& path) {
  std::ifstream is(path);
  KSTABLE_REQUIRE(is.good(), "cannot open '" << path << "' for reading");
  return load(is);
}

std::string to_string(const KPartiteInstance& inst) {
  std::ostringstream os;
  save(inst, os);
  return os.str();
}

KPartiteInstance from_string(const std::string& text) {
  std::istringstream is(text);
  return load(is);
}

}  // namespace kstable::io
