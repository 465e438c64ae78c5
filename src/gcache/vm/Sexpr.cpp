//===- Sexpr.cpp - S-expression reader --------------------------------------===//

#include "gcache/vm/Sexpr.h"

#include <cassert>
#include <cctype>
#include <cstdio>

using namespace gcache;

Sexpr Sexpr::symbol(std::string Name) {
  Sexpr S;
  S.K = Kind::Symbol;
  S.Text = std::move(Name);
  return S;
}

Sexpr Sexpr::list(std::vector<Sexpr> Elems) {
  Sexpr S;
  S.K = Kind::List;
  S.Elems = std::move(Elems);
  return S;
}

std::string Sexpr::toString() const {
  switch (K) {
  case Kind::Symbol:
    return Text;
  case Kind::Integer:
    return std::to_string(Int);
  case Kind::Real: {
    char Buf[48];
    snprintf(Buf, sizeof(Buf), "%g", Real);
    return Buf;
  }
  case Kind::String:
    return "\"" + Text + "\"";
  case Kind::Char:
    if (Int == ' ')
      return "#\\space";
    if (Int == '\n')
      return "#\\newline";
    return std::string("#\\") + static_cast<char>(Int);
  case Kind::Bool:
    return Int ? "#t" : "#f";
  case Kind::List: {
    std::string Out = "(";
    for (size_t I = 0; I != Elems.size(); ++I) {
      if (I)
        Out += ' ';
      Out += Elems[I].toString();
    }
    if (DottedTail) {
      Out += " . ";
      Out += DottedTail->toString();
    }
    Out += ')';
    return Out;
  }
  }
  return "?";
}

namespace {

/// Recursive-descent reader over a source string.
class Reader {
public:
  explicit Reader(const std::string &Src) : Src(Src) {}

  ReadResult readAll() {
    ReadResult R;
    for (;;) {
      skipSpace();
      if (Pos >= Src.size())
        break;
      Sexpr S;
      if (!readDatum(S)) {
        R.Ok = false;
        R.Error = Error;
        return R;
      }
      R.Data.push_back(std::move(S));
    }
    R.Ok = true;
    return R;
  }

private:
  bool fail(const std::string &Msg) {
    char Buf[160];
    snprintf(Buf, sizeof(Buf), "read error (line %u): %s", Line, Msg.c_str());
    Error = Buf;
    return false;
  }

  void skipSpace() {
    while (Pos < Src.size()) {
      char C = Src[Pos];
      if (C == ';') {
        while (Pos < Src.size() && Src[Pos] != '\n')
          ++Pos;
        continue;
      }
      if (!isspace(static_cast<unsigned char>(C)))
        return;
      if (C == '\n')
        ++Line;
      ++Pos;
    }
  }

  /// Hostile input like "((((((..." would otherwise recurse once per
  /// bracket (and again in Sexpr's destructor chain), so nesting is
  /// capped well above anything the workloads use.
  static constexpr unsigned MaxDepth = 256;

  bool readDatum(Sexpr &Out) {
    if (Depth >= MaxDepth)
      return fail("nesting too deep");
    ++Depth;
    bool Ok = readDatumInner(Out);
    --Depth;
    return Ok;
  }

  bool readDatumInner(Sexpr &Out) {
    skipSpace();
    if (Pos >= Src.size())
      return fail("unexpected end of input");
    char C = Src[Pos];
    if (C == '(' || C == '[')
      return readList(Out, C == '(' ? ')' : ']');
    if (C == ')' || C == ']')
      return fail("unexpected ')'");
    if (C == '\'' || C == '`' || C == ',') {
      const char *Tag = "quote";
      ++Pos;
      if (C == '`') {
        Tag = "quasiquote";
      } else if (C == ',') {
        Tag = "unquote";
        if (Pos < Src.size() && Src[Pos] == '@') {
          ++Pos;
          Tag = "unquote-splicing";
        }
      }
      Sexpr Quoted;
      if (!readDatum(Quoted))
        return false;
      Out = Sexpr::list({Sexpr::symbol(Tag), std::move(Quoted)});
      return true;
    }
    if (C == '"')
      return readString(Out);
    if (C == '#')
      return readHash(Out);
    return readAtom(Out);
  }

  bool readList(Sexpr &Out, char Close) {
    ++Pos; // consume '('
    Out = Sexpr();
    Out.K = Sexpr::Kind::List;
    for (;;) {
      skipSpace();
      if (Pos >= Src.size())
        return fail("unterminated list");
      if (Src[Pos] == Close) {
        ++Pos;
        return true;
      }
      // Dotted tail: a '.' followed by a delimiter.
      if (Src[Pos] == '.' && Pos + 1 < Src.size() &&
          (isspace(static_cast<unsigned char>(Src[Pos + 1])) ||
           Src[Pos + 1] == '(' || Src[Pos + 1] == ')')) {
        ++Pos;
        Sexpr Tail;
        if (!readDatum(Tail))
          return false;
        Out.DottedTail = std::make_shared<Sexpr>(std::move(Tail));
        skipSpace();
        if (Pos >= Src.size() || Src[Pos] != Close)
          return fail("malformed dotted list");
        ++Pos;
        return true;
      }
      Sexpr Elem;
      if (!readDatum(Elem))
        return false;
      Out.Elems.push_back(std::move(Elem));
    }
  }

  bool readString(Sexpr &Out) {
    ++Pos; // consume '"'
    Out = Sexpr();
    Out.K = Sexpr::Kind::String;
    while (Pos < Src.size() && Src[Pos] != '"') {
      char C = Src[Pos++];
      if (C == '\\') {
        if (Pos >= Src.size())
          return fail("unterminated string escape");
        char E = Src[Pos++];
        switch (E) {
        case 'n':
          C = '\n';
          break;
        case 't':
          C = '\t';
          break;
        case '\\':
        case '"':
          C = E;
          break;
        default:
          return fail("unknown string escape");
        }
      }
      if (C == '\n')
        ++Line;
      Out.Text.push_back(C);
    }
    if (Pos >= Src.size())
      return fail("unterminated string");
    ++Pos;
    return true;
  }

  bool readHash(Sexpr &Out) {
    ++Pos; // consume '#'
    if (Pos >= Src.size())
      return fail("lone '#'");
    char C = Src[Pos];
    if (C == 't' || C == 'f') {
      ++Pos;
      Out = Sexpr();
      Out.K = Sexpr::Kind::Bool;
      Out.Int = C == 't';
      return true;
    }
    if (C == '\\') {
      ++Pos;
      // Named characters first.
      static const struct {
        const char *Name;
        char Value;
      } Named[] = {{"space", ' '}, {"newline", '\n'}, {"tab", '\t'}};
      for (const auto &N : Named) {
        size_t Len = std::char_traits<char>::length(N.Name);
        if (Src.compare(Pos, Len, N.Name) == 0 && !isAtomChar(Pos + Len)) {
          Pos += Len;
          Out = Sexpr();
          Out.K = Sexpr::Kind::Char;
          Out.Int = N.Value;
          return true;
        }
      }
      if (Pos >= Src.size())
        return fail("unterminated character literal");
      Out = Sexpr();
      Out.K = Sexpr::Kind::Char;
      Out.Int = static_cast<unsigned char>(Src[Pos++]);
      return true;
    }
    return fail("unsupported '#' syntax");
  }

  bool isAtomChar(size_t At) const {
    if (At >= Src.size())
      return false;
    char C = Src[At];
    return !isspace(static_cast<unsigned char>(C)) && C != '(' && C != ')' &&
           C != '[' && C != ']' && C != '"' && C != ';';
  }

  bool readAtom(Sexpr &Out) {
    size_t Start = Pos;
    while (isAtomChar(Pos))
      ++Pos;
    assert(Pos > Start && "empty atom");
    std::string Tok = Src.substr(Start, Pos - Start);

    // Try number: [+-]?digits or [+-]?digits.digits([eE]exp)?
    bool Numeric = false, HasDot = false, HasExp = false;
    size_t I = 0;
    if (Tok[0] == '+' || Tok[0] == '-')
      I = 1;
    if (I < Tok.size() && (isdigit(static_cast<unsigned char>(Tok[I])) ||
                           (Tok[I] == '.' && I + 1 < Tok.size() &&
                            isdigit(static_cast<unsigned char>(Tok[I + 1]))))) {
      Numeric = true;
      for (size_t J = I; J < Tok.size(); ++J) {
        char C = Tok[J];
        if (isdigit(static_cast<unsigned char>(C)))
          continue;
        if (C == '.' && !HasDot && !HasExp) {
          HasDot = true;
          continue;
        }
        if ((C == 'e' || C == 'E') && !HasExp && J + 1 < Tok.size()) {
          HasExp = true;
          if (Tok[J + 1] == '+' || Tok[J + 1] == '-')
            ++J;
          continue;
        }
        Numeric = false;
        break;
      }
    }

    Out = Sexpr();
    if (Numeric && (HasDot || HasExp)) {
      Out.K = Sexpr::Kind::Real;
      Out.Real = std::strtod(Tok.c_str(), nullptr);
    } else if (Numeric) {
      Out.K = Sexpr::Kind::Integer;
      Out.Int = std::strtoll(Tok.c_str(), nullptr, 10);
    } else {
      Out.K = Sexpr::Kind::Symbol;
      Out.Text = std::move(Tok);
    }
    return true;
  }

  const std::string &Src;
  size_t Pos = 0;
  unsigned Line = 1;
  unsigned Depth = 0;
  std::string Error;
};

} // namespace

ReadResult gcache::readAll(const std::string &Source) {
  return Reader(Source).readAll();
}

ReadResult gcache::readOne(const std::string &Source) {
  ReadResult R = readAll(Source);
  if (R.Ok && R.Data.size() != 1) {
    R.Ok = false;
    R.Error = "expected exactly one datum, found " +
              std::to_string(R.Data.size());
  }
  return R;
}
