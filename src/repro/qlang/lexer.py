"""Tokenizer for the Q language.

Q's lexical grammar is unusual in several ways that this module handles
explicitly:

* numeric literals carry type suffixes (``1i``, ``1h``, ``1f``, ``0Nj``),
  and boolean vectors are written as digit runs (``101b``);
* temporal literals have dedicated shapes (``2016.06.26``, ``09:30:00.123``,
  ``2016.06.26D09:30:00.000000000``);
* symbols are backtick-prefixed and runs of adjacent symbols form a symbol
  vector (`` `a`b`c ``);
* ``/`` and ``\\`` are *adverbs* when glued to the preceding token but start
  a comment / system command when preceded by whitespace;
* ``-`` glued to a number at the start of an expression is a sign, but is
  the subtraction verb when it follows a noun.

The lexer is deliberately lightweight (Section 3.2.1 of the paper): it does
no name resolution and no typing — those belong to the binder.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, auto

from repro.errors import QSyntaxError
from repro.qlang.qtypes import INF_LONG, QType, type_from_char
from repro.qlang.values import QAtom, QVector


class TokenKind(Enum):
    NUMBER = auto()  # value: QAtom (numeric or temporal)
    SYMBOL = auto()  # value: QAtom(symbol) or QVector(symbol)
    STRING = auto()  # value: str
    NAME = auto()  # identifier
    KEYWORD = auto()  # select / exec / update / delete / by / from / where
    OPERATOR = auto()  # + - * % etc.
    ADVERB = auto()  # ' /: \: ': / \
    LPAREN = auto()
    RPAREN = auto()
    LBRACKET = auto()
    RBRACKET = auto()
    LBRACE = auto()
    RBRACE = auto()
    SEMI = auto()
    COMMA = auto()  # the ',' verb; template parser treats it as separator
    EOF = auto()


#: Template keywords recognized by the parser (lower-case only, as in q).
TEMPLATE_KEYWORDS = {"select", "exec", "update", "delete", "by", "from", "where"}

#: Verb characters.  ``:`` is assignment/amend, handled by the parser.
OPERATOR_CHARS = "+-*%&|^=<>,#_?@.!$~:"

#: Multi-character operators, longest first.
MULTI_OPERATORS = ["<>", "<=", ">=", "::"]

#: Adverbs, longest first.  Bare ``/`` and ``\`` are adverbs only when glued
#: to the previous token.
ADVERBS = ["/:", "\\:", "':", "'", "/", "\\"]

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*(?:\.[A-Za-z][A-Za-z0-9_]*)*")
_SYMBOL_RE = re.compile(r"`(?:[A-Za-z0-9_.:][A-Za-z0-9_.:/]*)?")

_TIMESTAMP_RE = re.compile(
    r"\d{4}\.\d{2}\.\d{2}D\d{2}:\d{2}:\d{2}(?:\.\d{1,9})?"
)
_DATE_RE = re.compile(r"\d{4}\.\d{2}\.\d{2}")
_MONTH_RE = re.compile(r"\d{4}\.\d{2}m")
_TIME_RE = re.compile(r"\d{2}:\d{2}(?::\d{2}(?:\.\d{1,3})?)?")
_NUMBER_RE = re.compile(
    r"-?(?:0[NnWw][jihefpdtznuvm]?|\d+\.\d*(?:[eE][-+]?\d+)?[ef]?|"
    r"\.\d+(?:[eE][-+]?\d+)?[ef]?|\d+(?:[eE][-+]?\d+)?[bjihef]?)"
)
_BOOL_VECTOR_RE = re.compile(r"[01]{2,}b")


@dataclass
class Token:
    kind: TokenKind
    text: str
    pos: int
    value: object = None
    #: True when the token is directly adjacent to the previous one
    #: (no intervening whitespace) — needed for adverb/comment rules.
    glued: bool = False

    def __repr__(self):
        return f"Token({self.kind.name}, {self.text!r})"


_DAYS_IN_MONTH = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]


def _is_leap(year: int) -> bool:
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def days_from_2000(year: int, month: int, day: int) -> int:
    """Days between 2000.01.01 and the given date (kdb+ date encoding)."""
    total = 0
    if year >= 2000:
        for y in range(2000, year):
            total += 366 if _is_leap(y) else 365
    else:
        for y in range(year, 2000):
            total -= 366 if _is_leap(y) else 365
    for m in range(1, month):
        total += _DAYS_IN_MONTH[m - 1]
        if m == 2 and _is_leap(year):
            total += 1
    return total + (day - 1)


def date_from_days(days: int) -> tuple[int, int, int]:
    """Inverse of :func:`days_from_2000`."""
    year = 2000
    remaining = days
    while True:
        year_len = 366 if _is_leap(year) else 365
        if remaining >= year_len:
            remaining -= year_len
            year += 1
        elif remaining < 0:
            year -= 1
            remaining += 366 if _is_leap(year) else 365
        else:
            break
    month = 1
    while True:
        month_len = _DAYS_IN_MONTH[month - 1] + (
            1 if month == 2 and _is_leap(year) else 0
        )
        if remaining >= month_len:
            remaining -= month_len
            month += 1
        else:
            break
    return year, month, remaining + 1


def _parse_temporal(text: str) -> QAtom:
    """Parse a matched temporal literal into its kdb+ integer encoding."""
    if "D" in text and "." in text[:10]:
        date_part, time_part = text.split("D", 1)
        y, m, d = (int(p) for p in date_part.split("."))
        nanos = _time_to_nanos(time_part)
        days = days_from_2000(y, m, d)
        return QAtom(QType.TIMESTAMP, days * 86_400_000_000_000 + nanos)
    if text.endswith("m"):
        y, m = (int(p) for p in text[:-1].split("."))
        return QAtom(QType.MONTH, (y - 2000) * 12 + (m - 1))
    if "." in text and ":" not in text:
        y, m, d = (int(p) for p in text.split("."))
        return QAtom(QType.DATE, days_from_2000(y, m, d))
    parts = text.split(":")
    if len(parts) == 2:
        return QAtom(QType.MINUTE, int(parts[0]) * 60 + int(parts[1]))
    seconds_txt = parts[2]
    if "." in seconds_txt:
        sec, frac = seconds_txt.split(".")
        millis = int(frac.ljust(3, "0")[:3])
        total = (int(parts[0]) * 3600 + int(parts[1]) * 60 + int(sec)) * 1000 + millis
        return QAtom(QType.TIME, total)
    return QAtom(
        QType.SECOND, int(parts[0]) * 3600 + int(parts[1]) * 60 + int(seconds_txt)
    )


def _time_to_nanos(text: str) -> int:
    h, m, rest = text.split(":")
    if "." in rest:
        sec, frac = rest.split(".")
        nanos = int(frac.ljust(9, "0")[:9])
    else:
        sec, nanos = rest, 0
    return (int(h) * 3600 + int(m) * 60 + int(sec)) * 1_000_000_000 + nanos


def _parse_number(text: str) -> QAtom:
    sign = 1
    body = text
    if body.startswith("-"):
        sign = -1
        body = body[1:]
    if body[0] == "0" and len(body) >= 2 and body[1] in "NnWw":
        suffix = body[2:] if len(body) > 2 else ""
        if body[1] == "n" and not suffix:
            return QAtom(QType.FLOAT, float("nan"))
        if body[1] == "w" and not suffix:
            return QAtom(QType.FLOAT, sign * float("inf"))
        if body[1] == "N":
            # _NUMBER_RE admits only the suffixes of nullable types
            qtype = type_from_char(suffix or "j")
            return QAtom(qtype, qtype.spec.null)
        # 0W / -0W infinities
        if suffix in ("", "j"):
            return QAtom(QType.LONG, sign * INF_LONG)
        if suffix == "f":
            return QAtom(QType.FLOAT, sign * float("inf"))
        return QAtom(QType.LONG, sign * INF_LONG)
    if body.endswith("b"):
        return QAtom(QType.BOOLEAN, body[:-1] != "0")
    suffix = ""
    if body[-1] in "jihef" and not body[-1].isdigit():
        suffix = body[-1]
        body = body[:-1]
    is_float = "." in body or "e" in body or "E" in body or suffix in ("e", "f")
    if is_float:
        qtype = QType.REAL if suffix == "e" else QType.FLOAT
        return QAtom(qtype, sign * float(body))
    qtype = type_from_char(suffix or "j")
    if qtype in (QType.REAL, QType.FLOAT):
        return QAtom(qtype, sign * float(body))
    return QAtom(qtype, sign * int(body))


class Lexer:
    """Streaming tokenizer producing :class:`Token` objects."""

    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.tokens: list[Token] = []

    def tokenize(self) -> list[Token]:
        while self.pos < len(self.source):
            glued = self._skip_whitespace_and_comments()
            if self.pos >= len(self.source):
                break
            self._next_token(glued)
        self.tokens.append(Token(TokenKind.EOF, "", self.pos))
        return self.tokens

    # -- helpers ------------------------------------------------------------

    def _skip_whitespace_and_comments(self) -> bool:
        """Advance past whitespace/comments; return True if the next token
        is glued (no whitespace separated it from the previous one)."""
        glued = True
        src = self.source
        while self.pos < len(src):
            ch = src[self.pos]
            if ch in " \t\r":
                glued = False
                self.pos += 1
            elif ch == "\n":
                glued = False
                self.pos += 1
            elif ch == "/" and not glued:
                # whitespace-preceded slash: comment to end of line
                while self.pos < len(src) and src[self.pos] != "\n":
                    self.pos += 1
            elif ch == "/" and self.pos == 0:
                while self.pos < len(src) and src[self.pos] != "\n":
                    self.pos += 1
            else:
                break
        return glued and self.pos != 0

    def _next_token(self, glued: bool) -> None:
        src = self.source
        start = self.pos
        ch = src[start]

        if ch == "`":
            self._lex_symbols(start, glued)
            return
        if ch == '"':
            self._lex_string(start, glued)
            return

        simple = {
            "(": TokenKind.LPAREN,
            ")": TokenKind.RPAREN,
            "[": TokenKind.LBRACKET,
            "]": TokenKind.RBRACKET,
            "{": TokenKind.LBRACE,
            "}": TokenKind.RBRACE,
            ";": TokenKind.SEMI,
        }
        if ch in simple:
            self.pos += 1
            self._emit(simple[ch], ch, start, glued)
            return

        if ch.isdigit() or (
            ch == "." and start + 1 < len(src) and src[start + 1].isdigit()
        ):
            self._lex_number_or_temporal(start, glued)
            return
        if ch == "-" and self._minus_is_sign(glued) and start + 1 < len(src) and (
            src[start + 1].isdigit() or src[start + 1] == "."
        ):
            self._lex_number_or_temporal(start, glued)
            return

        if ch.isalpha():
            match = _NAME_RE.match(src, start)
            text = match.group(0)
            self.pos = match.end()
            kind = (
                TokenKind.KEYWORD if text in TEMPLATE_KEYWORDS else TokenKind.NAME
            )
            self._emit(kind, text, start, glued)
            return

        for adverb in ADVERBS:
            if src.startswith(adverb, start):
                if adverb in ("/", "\\") and not glued:
                    break  # handled as comment/system cmd by whitespace rule
                self.pos = start + len(adverb)
                self._emit(TokenKind.ADVERB, adverb, start, glued)
                return

        for op in MULTI_OPERATORS:
            if src.startswith(op, start):
                self.pos = start + len(op)
                self._emit(TokenKind.OPERATOR, op, start, glued)
                return

        if ch == ",":
            self.pos += 1
            self._emit(TokenKind.COMMA, ",", start, glued)
            return
        if ch in OPERATOR_CHARS:
            self.pos += 1
            self._emit(TokenKind.OPERATOR, ch, start, glued)
            return

        raise QSyntaxError(
            f"unexpected character {ch!r} at position {start}", signal="parse"
        )

    def _minus_is_sign(self, glued: bool) -> bool:
        """q's disambiguation rule: ``-`` glued to a digit is a numeric sign
        unless it is *also* glued to a preceding noun-ish token.  ``x-5`` is
        subtraction; ``x -5`` applies x to the literal -5; ``signum -5``
        negates the literal."""
        if not self.tokens:
            return True
        if not glued:
            return True
        prev = self.tokens[-1]
        return prev.kind not in (
            TokenKind.NAME,
            TokenKind.NUMBER,
            TokenKind.SYMBOL,
            TokenKind.STRING,
            TokenKind.RPAREN,
            TokenKind.RBRACKET,
        )

    def _lex_symbols(self, start: int, glued: bool) -> None:
        names = []
        src = self.source
        while self.pos < len(src) and src[self.pos] == "`":
            match = _SYMBOL_RE.match(src, self.pos)
            names.append(match.group(0)[1:])
            self.pos = match.end()
        text = src[start : self.pos]
        if len(names) == 1:
            value: object = QAtom(QType.SYMBOL, names[0])
        else:
            value = QVector(QType.SYMBOL, names)
        self._emit(TokenKind.SYMBOL, text, start, glued, value)

    def _lex_string(self, start: int, glued: bool) -> None:
        src = self.source
        self.pos += 1
        chars: list[str] = []
        while self.pos < len(src):
            ch = src[self.pos]
            if ch == "\\" and self.pos + 1 < len(src):
                escape = src[self.pos + 1]
                mapping = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
                chars.append(mapping.get(escape, escape))
                self.pos += 2
            elif ch == '"':
                self.pos += 1
                text = src[start : self.pos]
                self._emit(TokenKind.STRING, text, start, glued, "".join(chars))
                return
            else:
                chars.append(ch)
                self.pos += 1
        raise QSyntaxError("unterminated string literal", signal="parse")

    def _lex_number_or_temporal(self, start: int, glued: bool) -> None:
        src = self.source
        for regex in (_TIMESTAMP_RE, _MONTH_RE, _DATE_RE, _TIME_RE):
            match = regex.match(src, start if src[start] != "-" else start + 1)
            if match and match.start() == (start if src[start] != "-" else start + 1):
                text = src[start : match.end()]
                atom = _parse_temporal(match.group(0))
                if text.startswith("-"):
                    atom = QAtom(atom.qtype, -atom.value)
                self.pos = match.end()
                self._emit(TokenKind.NUMBER, text, start, glued, atom)
                return
        bool_match = _BOOL_VECTOR_RE.match(src, start)
        if bool_match:
            bits = bool_match.group(0)[:-1]
            self.pos = bool_match.end()
            self._emit(
                TokenKind.NUMBER,
                bool_match.group(0),
                start,
                glued,
                QVector(QType.BOOLEAN, [b == "1" for b in bits]),
            )
            return
        match = _NUMBER_RE.match(src, start)
        if not match:
            raise QSyntaxError(f"bad numeric literal at position {start}")
        self.pos = match.end()
        text = match.group(0)
        self._emit(TokenKind.NUMBER, text, start, glued, _parse_number(text))

    def _emit(self, kind, text, start, glued, value=None) -> None:
        self.tokens.append(Token(kind, text, start, value, glued))


def tokenize(source: str) -> list[Token]:
    """Tokenize Q source text into a list of tokens ending with EOF."""
    return Lexer(source).tokenize()
