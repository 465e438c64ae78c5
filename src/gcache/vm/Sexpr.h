//===- Sexpr.h - S-expression reader ----------------------------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Host-side S-expression datum and reader for Scheme source text. The
/// reader supports the subset of R4RS syntax the workloads use: lists,
/// dotted pairs, symbols, exact integers, decimal reals, strings with
/// escapes, characters (#\a, #\space, #\newline, #\tab), booleans, quote
/// ('x) and quasi-free comments (; to end of line).
///
/// Sexprs exist only at read/compile time; runtime data lives in the
/// simulated heap as tagged Values.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_VM_SEXPR_H
#define GCACHE_VM_SEXPR_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace gcache {

/// One parsed datum.
struct Sexpr {
  enum class Kind : uint8_t {
    Symbol,
    Integer,
    Real,
    String,
    Char,
    Bool,
    List, ///< Proper list; dotted tails are normalized via DottedTail.
  };

  Kind K = Kind::List;
  std::string Text;          ///< Symbol name or string contents.
  int64_t Int = 0;           ///< Integer value / char code / bool.
  double Real = 0.0;
  std::vector<Sexpr> Elems;  ///< List elements.
  /// For an improper list (a b . c), Elems = [a, b] and DottedTail holds c.
  std::shared_ptr<Sexpr> DottedTail;

  bool isSymbol(const char *Name) const {
    return K == Kind::Symbol && Text == Name;
  }
  bool isList() const { return K == Kind::List; }
  size_t size() const { return Elems.size(); }
  const Sexpr &operator[](size_t I) const { return Elems[I]; }

  static Sexpr symbol(std::string Name);
  static Sexpr list(std::vector<Sexpr> Elems);

  /// Renders the datum back to text (for diagnostics and tests).
  std::string toString() const;
};

/// Reader outcome: the parsed data or a message with a line number.
struct ReadResult {
  bool Ok = false;
  std::string Error;
  std::vector<Sexpr> Data; ///< All top-level datums in the input.
};

/// Parses every datum in \p Source.
ReadResult readAll(const std::string &Source);

/// Parses exactly one datum (error if the input holds zero or several).
ReadResult readOne(const std::string &Source);

} // namespace gcache

#endif // GCACHE_VM_SEXPR_H
