#include "roommates/io.hpp"

#include <fstream>
#include <sstream>
#include <vector>

#include "resilience/errors.hpp"
#include "resilience/fault_injection.hpp"
#include "util/check.hpp"
#include "util/text_reader.hpp"

namespace kstable::rm::io {

namespace {

constexpr const char* kMagic = "kstable-roommates";
constexpr const char* kVersion = "v1";

}  // namespace

void save(const RoommatesInstance& inst, std::ostream& os) {
  os << kMagic << ' ' << kVersion << '\n' << inst.size() << '\n';
  for (Person p = 0; p < inst.size(); ++p) {
    os << "list " << p << " :";
    for (const Person q : inst.list(p)) os << ' ' << q;
    os << '\n';
  }
}

RoommatesInstance from_string(std::string_view text) {
  KSTABLE_FAULT_POINT("io/load");
  util::TextReader r(text);
  const auto [n] = r.header<Person>(kMagic, kVersion);
  r.check(n >= 1, "size out of range");
  r.require_room(static_cast<std::size_t>(n), 7, "\"list p:\" lines");
  std::vector<std::vector<Person>> lists(static_cast<std::size_t>(n));
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  while (r.next_line()) {
    r.keyword("list");
    const auto p = r.number<Person>();
    r.colon();
    r.check(p >= 0 && p < n, "person out of range");
    r.check(!seen[static_cast<std::size_t>(p)], "duplicate list");
    seen[static_cast<std::size_t>(p)] = true;
    while (!r.at_end()) {
      lists[static_cast<std::size_t>(p)].push_back(r.number<Person>());
    }
  }
  for (Person p = 0; p < n; ++p) {
    KSTABLE_PARSE_REQUIRE(seen[static_cast<std::size_t>(p)],
                    "missing list for person " << p);
  }
  // The constructor rejects bad entries, self-references and duplicates.
  return util::parse_checked(
      [&] { return RoommatesInstance(std::move(lists)); });
}

void save_file(const RoommatesInstance& inst, const std::string& path) {
  std::ofstream os(path);
  KSTABLE_REQUIRE(os.good(), "cannot open '" << path << "' for writing");
  save(inst, os);
  KSTABLE_REQUIRE(os.good(), "write to '" << path << "' failed");
}

RoommatesInstance load_file(const std::string& path) {
  return from_string(util::read_file(path));
}

std::string to_string(const RoommatesInstance& inst) {
  std::ostringstream os;
  save(inst, os);
  return os.str();
}

}  // namespace kstable::rm::io
