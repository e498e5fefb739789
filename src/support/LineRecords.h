//===-- support/LineRecords.h - Line-oriented record parsing ----*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reading side shared by the two checkpoint formats (sim/Checkpoint.cpp
/// and check/Checkpoint.cpp): one record per line, a keyword followed by
/// space-separated fields. Both parse text from outside the program, so
/// every field is checked strictly and every failure names its line.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_SUPPORT_LINERECORDS_H
#define COMPASS_SUPPORT_LINERECORDS_H

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <string_view>

namespace compass {

/// Line cursor over a text; skips empty lines and a trailing '\r'. It can
/// hand the unconsumed remainder to an embedded parser.
struct LineCursor {
  std::string_view Text;
  const char *What; ///< Names the input in the end-of-input error.
  size_t Pos = 0;
  size_t LineNo = 0;
  std::string Line;
  std::string Err;

  LineCursor(std::string_view T, const char *What) : Text(T), What(What) {}

  bool next() {
    while (Pos < Text.size()) {
      size_t E = Text.find('\n', Pos);
      std::string_view L = (E == std::string_view::npos)
                               ? Text.substr(Pos)
                               : Text.substr(Pos, E - Pos);
      Pos = (E == std::string_view::npos) ? Text.size() : E + 1;
      ++LineNo;
      if (!L.empty() && L.back() == '\r')
        L.remove_suffix(1);
      if (!L.empty()) {
        Line.assign(L);
        return true;
      }
    }
    Err = std::string("unexpected end of ") + What;
    return false;
  }

  bool fail(const std::string &Msg) {
    Err = "line " + std::to_string(LineNo) + ": " + Msg +
          (Line.empty() ? "" : " (got: " + Line + ")");
    return false;
  }

  std::string_view rest() const { return Text.substr(Pos); }
};

/// Splits one line into keyword + fields.
struct LineFields {
  std::istringstream In;
  explicit LineFields(const std::string &Line) : In(Line) {}

  /// A token free of control characters: a NUL inside a token would be
  /// cut off when the token is written back.
  bool word(std::string &Out) {
    if (!(In >> Out))
      return false;
    for (unsigned char C : Out)
      if (std::iscntrl(C))
        return false;
    return true;
  }

  /// An unsigned decimal token that fits \p T. Stream extraction alone
  /// would accept a sign and wrap "-1" to the largest value.
  template <typename T> bool num(T &Out) {
    std::string W;
    if (!(In >> W) || W.find_first_not_of("0123456789") != std::string::npos)
      return false;
    errno = 0;
    const uint64_t V = std::strtoull(W.c_str(), nullptr, 10);
    if (errno == ERANGE)
      return false;
    Out = static_cast<T>(V);
    return static_cast<uint64_t>(Out) == V;
  }

  bool flag(bool &Out) {
    unsigned V = 0;
    if (!num(V) || V > 1)
      return false;
    Out = V != 0;
    return true;
  }

  /// Reads the record keyword; on a mismatch fails \p C.
  bool keyword(LineCursor &C, const char *Kw) {
    std::string W;
    if (!word(W) || W != Kw)
      return C.fail(std::string("expected '") + Kw + "'");
    return true;
  }
};

} // namespace compass

#endif // COMPASS_SUPPORT_LINERECORDS_H
