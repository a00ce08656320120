// Line and token reader over an in-memory body: the one tokenizer behind
// every on-disk format (prefs/io, prefs/matching_io, roommates/io).
//
// Grammar: '#' starts a comment running to the end of the line; blanks are
// ' ', '\t' and '\r'; blank lines are skipped; an integer may touch a
// following ':' ("h:" reads like "h :"); nothing may follow a line's last
// token. Errors throw ParseError quoting at most kQuoteBytes of the line.
#pragma once

#include <charconv>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>

#include "util/check.hpp"

namespace kstable::util {

class TextReader {
 public:
  static constexpr std::size_t kQuoteBytes = 80;

  /// `body` must outlive the reader.
  explicit TextReader(std::string_view body) noexcept : rest_(body) {}

  /// Moves to the next non-blank line; false once the body is exhausted.
  bool next_line() noexcept {
    while (!rest_.empty()) {
      const std::size_t eol = rest_.find('\n');
      line_ = rest_.substr(0, eol);
      line_ = line_.substr(0, line_.find('#'));
      rest_.remove_prefix(eol == rest_.npos ? rest_.size() : eol + 1);
      ++line_no_;
      pos_ = 0;
      if (!at_end()) return true;
    }
    return false;
  }

  /// next_line(), failing with "missing <what>" at the end of the body.
  void require_line(std::string_view what) {
    if (next_line()) return;
    throw ParseError("parse error: missing " + std::string(what) +
                     " after line " + std::to_string(line_no_));
  }

  /// True when only blanks remain on the current line.
  bool at_end() noexcept {
    while (pos_ < line_.size() && is_blank(line_[pos_])) ++pos_;
    return pos_ == line_.size();
  }

  /// Fails unless the current line has been consumed exactly.
  void end_line() { check(at_end(), "unexpected text after the last token"); }

  /// Consumes the next blank-delimited token, failing unless it is `word`.
  void keyword(std::string_view word) {
    at_end();
    const std::size_t start = pos_;
    while (pos_ < line_.size() && !is_blank(line_[pos_])) ++pos_;
    check(line_.substr(start, pos_ - start) == word, "unexpected token");
  }

  /// Consumes a ':' followed by a blank or the end of the line.
  void colon() {
    check(!at_end() && line_[pos_] == ':' &&
              (pos_ + 1 == line_.size() || is_blank(line_[pos_ + 1])),
          "expected ':'");
    ++pos_;
  }

  /// Next base-10 integer; it must fit T and end at a blank, ':' or the end
  /// of the line, so "1x", "0.5" and "0x9" are errors.
  template <typename T>
  T number() {
    at_end();
    const char* const last = line_.data() + line_.size();
    T value{};
    const auto [ptr, ec] = std::from_chars(line_.data() + pos_, last, value);
    check(ec == std::errc{} && (ptr == last || is_blank(*ptr) || *ptr == ':'),
          "expected an integer");
    pos_ = static_cast<std::size_t>(ptr - line_.data());
    return value;
  }

  /// Reads the "<magic> <version>" line every format starts with and the
  /// size line after it, which holds exactly one integer of each type T.
  template <typename... T>
  std::tuple<T...> header(std::string_view magic, std::string_view version) {
    require_line("header line");
    keyword(magic);
    keyword(version);
    end_line();
    require_line("size line");
    std::tuple<T...> sizes{number<T>()...};  // braces: read left to right
    end_line();
    return sizes;
  }

  /// Bytes of the body after the current line.
  [[nodiscard]] std::size_t bytes_left() const noexcept { return rest_.size(); }

  /// Body-size guard, run before allocating anything a header sizes: fails
  /// unless bytes_left() can hold `records` records (named `what`) of at
  /// least `bytes_each` > 0 bytes each.
  void require_room(std::size_t records, std::size_t bytes_each,
                    std::string_view what) const {
    if (records > rest_.size() / bytes_each) {
      fail("body needs at least " + std::to_string(bytes_each) +
           " bytes for each of " + std::to_string(records) + ' ' +
           std::string(what) + ", has " + std::to_string(rest_.size()));
    }
  }

  /// fail(what) unless `ok`.
  void check(bool ok, std::string_view what) const {
    if (!ok) fail(what);
  }

  /// Throws ParseError("parse error: <what> at line N '<line>'").
  [[noreturn]] void fail(std::string_view what) const {
    throw ParseError("parse error: " + std::string(what) + " at line " +
                     std::to_string(line_no_) + " '" +
                     std::string(line_.substr(0, kQuoteBytes)) +
                     (line_.size() > kQuoteBytes ? "...'" : "'"));
  }

 private:
  static bool is_blank(char c) noexcept {
    return c == ' ' || c == '\t' || c == '\r';
  }

  std::string_view rest_;  ///< body after the current line
  std::string_view line_;  ///< current line, comment stripped
  std::size_t pos_ = 0;    ///< read position in line_
  std::size_t line_no_ = 0;
};

/// Returns fn(), which builds or validates an object from parsed input,
/// rethrowing what its checks reject (ContractViolation, or bad_alloc for
/// dimensions no machine can hold) as ParseError: malformed input.
template <typename Fn>
auto parse_checked(Fn&& fn) {
  try {
    return fn();
  } catch (const std::bad_alloc&) {
    throw ParseError("parse error: instance dimensions too large");
  } catch (const ContractViolation& e) {
    throw ParseError(std::string("parse error: ") + e.what());
  }
}

/// Reads the whole file at `path`, pipes included, into one buffer.
inline std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  KSTABLE_REQUIRE(is.good(), "cannot open '" << path << "' for reading");
  std::ostringstream text;
  text << is.rdbuf();
  return std::move(text).str();
}

}  // namespace kstable::util
