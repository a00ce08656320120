// Strictness and resource bounds shared by the four text loaders
// (k-partite instances, roommates instances, k-ary and binary matchings):
// a line must be consumed exactly, a body too short for the records its
// header announces is refused before anything sized by that header is
// allocated, and a parse error quotes a bounded slice of the offending line.
//
// This binary replaces the global operator new with byte-counting hooks so
// the body-size guard can be shown to allocate almost nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <new>
#include <string>
#include <vector>

#include "prefs/io.hpp"
#include "prefs/matching_io.hpp"
#include "resilience/errors.hpp"
#include "roommates/io.hpp"

namespace {
std::atomic<std::size_t> g_bytes{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(align, (size + align - 1) / align * align)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 16); }
void* operator new[](std::size_t size) { return counted_alloc(size, 16); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
// Out of line, so the compiler cannot pair an inlined free() with an
// operator new it does not see replaced and warn about a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}

namespace kstable {
namespace {

using Loader = std::function<void(const std::string&)>;

const Loader kKPartite = [](const std::string& s) {
  (void)io::from_string(s);
};
const Loader kRoommates = [](const std::string& s) {
  (void)rm::io::from_string(s);
};
const Loader kKary = [](const std::string& s) {
  (void)io::kary_from_string(s);
};
const Loader kBinary = [](const std::string& s) {
  (void)io::binary_from_string(s);
};

const std::string kPrefs =
    "pref 0 0 1 : 1 0\npref 0 1 1 : 0 1\npref 1 0 0 : 0 1\npref 1 1 0 : 1 0\n";

struct Case {
  const char* name;
  const Loader& load;
  std::string body;
};

TEST(StrictTokens, ValidBodiesLoad) {
  const std::vector<Case> cases = {
      {"kpartite", kKPartite, "kstable-kpartite v1\n2 2\n" + kPrefs},
      {"kpartite, CRLF and comments", kKPartite,
       "# c\r\nkstable-kpartite v1\r\n2 2 # dims\r\npref 0 0 1: 1 0\r\n"
       "pref 0 1 1 : 0 1\r\npref 1 0 0 : 0 1\r\n\r\npref 1 1 0 : 1 0\r\n"},
      {"roommates", kRoommates,
       "kstable-roommates v1\n2\nlist 0 : 1\nlist 1: 0"},
      {"kary", kKary, "kstable-kary v1\n2 2\nfamily 0 : 0 1\nfamily 1: 1 0\n"},
      {"binary", kBinary, "kstable-binary v1\n2 1\npair 0 1\n"},
  };
  for (const auto& c : cases) {
    EXPECT_NO_THROW(c.load(c.body)) << c.name;
  }
}

TEST(StrictTokens, TrailingJunkIsRejectedInEveryFormat) {
  // Each body is valid but for one token a stream extractor would have
  // stopped at silently.
  const std::string kp = "kstable-kpartite v1\n2 2\n";
  const std::string rest = kPrefs.substr(kPrefs.find('\n') + 1);
  const std::vector<Case> cases = {
      {"word after a list", kKPartite, kp + "pref 0 0 1 : 1 0 junk\n" + rest},
      {"fraction", kKPartite, kp + "pref 0 0 1 : 1 0.5\n" + rest},
      {"hex", kKPartite, kp + "pref 0 0 1 : 1 0x9\n" + rest},
      {"colon touching the list", kKPartite, kp + "pref 0 0 1 :1 0\n" + rest},
      {"header word", kKPartite, "kstable-kpartite v1 extra\n2 2\n" + kPrefs},
      {"dimensions word", kKPartite,
       "kstable-kpartite v1\n2 2 junk\n" + kPrefs},
      {"roommates list", kRoommates,
       "kstable-roommates v1\n2\nlist 0 : 1 x\nlist 1 : 0\n"},
      {"roommates size", kRoommates,
       "kstable-roommates v1\n2 2\nlist 0 : 1\nlist 1 : 0\n"},
      {"kary extra member", kKary,
       "kstable-kary v1\n2 2\nfamily 0 : 0 0 7\nfamily 1 : 1 1\n"},
      {"binary pair", kBinary, "kstable-binary v1\n2 1\npair 0 1 zz\n"},
  };
  for (const auto& c : cases) {
    EXPECT_THROW(c.load(c.body), ParseError) << c.name;
  }
}

/// Bytes requested from operator new while running `fn`.
std::size_t bytes_during(const std::function<void()>& fn) {
  const std::size_t before = g_bytes.load(std::memory_order_relaxed);
  fn();
  return g_bytes.load(std::memory_order_relaxed) - before;
}

TEST(BodySizeGuard, HugeHeaderOnTinyBodyAllocatesAlmostNothing) {
  // Each header announces hundreds of megabytes of records over a body of a
  // few dozen bytes.
  const std::vector<Case> cases = {
      {"kpartite", kKPartite, "kstable-kpartite v1\n2 12000\n"},
      {"roommates", kRoommates, "kstable-roommates v1\n30000000\n"},
      {"kary", kKary, "kstable-kary v1\n4 50000000\n"},
      {"binary", kBinary, "kstable-binary v1\n4 50000000\n"},
  };
  for (const auto& c : cases) {
    const std::size_t bytes = bytes_during([&] {
      try {
        c.load(c.body);
        ADD_FAILURE() << c.name << ": loaded";
      } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("needs at least"),
                  std::string::npos)
            << e.what();
      }
    });
    EXPECT_LT(bytes, 64u * 1024) << c.name;
  }
}

TEST(BodySizeGuard, FileEntryPointsShareTheGuard) {
  const std::string path = ::testing::TempDir() + "kstable_guard_body.txt";
  const auto load_from_file = [&](const std::string& body,
                                  const std::function<void()>& load) {
    {
      std::ofstream os(path);
      os << body;
    }
    const std::size_t bytes = bytes_during([&] {
      EXPECT_THROW(load(), ParseError) << body;
    });
    EXPECT_LT(bytes, 64u * 1024) << body;
  };
  load_from_file("kstable-kpartite v1\n2 12000\n",
                 [&] { (void)io::load_file(path); });
  load_from_file("kstable-roommates v1\n30000000\n",
                 [&] { (void)rm::io::load_file(path); });
  std::remove(path.c_str());
}

TEST(ErrorMessages, QuoteABoundedSliceOfTheOffendingLine) {
  // One malformed 1 MiB record line per format: the message names the line
  // but must not echo it.
  std::string filler;
  for (int i = 0; i < 512 * 1024; ++i) filler += "1 ";
  const std::vector<Case> cases = {
      {"kpartite", kKPartite,
       "kstable-kpartite v1\n2 2\npref 0 0 1 ; " + filler + '\n'},
      {"roommates", kRoommates,
       "kstable-roommates v1\n2\nlist 0 ; " + filler + '\n'},
      {"kary", kKary, "kstable-kary v1\n2 2\nfamily 0 ; " + filler + '\n'},
      {"binary", kBinary, "kstable-binary v1\n2 1\npair 0 1 " + filler + '\n'},
  };
  for (const auto& c : cases) {
    try {
      c.load(c.body);
      ADD_FAILURE() << c.name << ": loaded";
    } catch (const ParseError& e) {
      const std::string what = e.what();
      EXPECT_LT(what.size(), 256u) << c.name;
      EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    }
  }
}

}  // namespace
}  // namespace kstable
