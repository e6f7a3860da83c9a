"""Tokenizer for Newick tree strings.

Handles the full common dialect: unquoted labels (with underscore→space
conventions left to the caller), single-quoted labels with doubled-quote
escapes, bracketed comments ``[...]`` (skipped), branch lengths after
``:``, and the structural tokens ``( ) , ;``.

The lexer is a generator over :class:`Token` objects so the parser can
stream arbitrarily large inputs without materializing token lists.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

from repro.util.errors import NewickParseError

__all__ = ["TokenType", "Token", "tokenize"]

# Characters that terminate an unquoted label.
_LABEL_TERMINATORS = set("(),;:[]'") | set(" \t\r\n")


class TokenType(Enum):
    LPAREN = "("
    RPAREN = ")"
    COMMA = ","
    SEMICOLON = ";"
    COLON = ":"
    LABEL = "label"
    EOF = "eof"


# Structural character -> its prebuilt member (a dict hit instead of an
# Enum value lookup per token).
_STRUCTURAL = {member.value: member for member in
               (TokenType.LPAREN, TokenType.RPAREN, TokenType.COMMA,
                TokenType.SEMICOLON, TokenType.COLON)}


@dataclass(frozen=True)
class Token:
    """One lexical token with its character offset (for error messages)."""

    type: TokenType
    value: str
    position: int


def tokenize(text: str) -> Iterator[Token]:
    """Yield tokens for one Newick string, ending with an EOF token.

    >>> [t.type.name for t in tokenize("(A,B);")]
    ['LPAREN', 'LABEL', 'COMMA', 'LABEL', 'RPAREN', 'SEMICOLON', 'EOF']
    """
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "[":
            # Comment: skip to the matching close bracket (no nesting in
            # standard Newick).
            end = text.find("]", i + 1)
            if end == -1:
                raise NewickParseError("unterminated comment", position=i)
            i = end + 1
            continue
        kind = _STRUCTURAL.get(ch)
        if kind is not None:
            yield Token(kind, ch, i)
            i += 1
            continue
        if ch == "'":
            # Quoted label; '' inside quotes is a literal quote.
            j = i + 1
            parts: list[str] = []
            while True:
                if j >= n:
                    raise NewickParseError("unterminated quoted label", position=i)
                if text[j] == "'":
                    if j + 1 < n and text[j + 1] == "'":
                        parts.append("'")
                        j += 2
                        continue
                    break
                parts.append(text[j])
                j += 1
            yield Token(TokenType.LABEL, "".join(parts), i)
            i = j + 1
            continue
        # Unquoted label (also covers numeric branch lengths; the parser
        # interprets them by context).
        j = i
        while j < n and text[j] not in _LABEL_TERMINATORS:
            j += 1
        if j == i:
            raise NewickParseError(f"unexpected character {ch!r}", position=i)
        yield Token(TokenType.LABEL, text[i:j], i)
        i = j
    yield Token(TokenType.EOF, "", n)
