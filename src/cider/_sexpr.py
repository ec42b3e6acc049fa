"""Tiny cursor-based scanner shared by the concept and context-formula parsers."""

import re

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_WS_RE = re.compile(r"[ \t\r\n]+")

# Deepest nesting of parenthesised forms an expression may use.  Parsing
# and the later walks over concepts and formulas recurse once per level.
MAX_DEPTH = 100


class ParseError(ValueError):
    """Malformed expression; carries the character offset of the problem."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message):
        return ParseError(message, self.pos)

    def at_end(self):
        return self.pos >= len(self.text)

    def try_consume(self, literal):
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def try_open(self, literal):
        """Consume ``literal``, which opens a nested form, if it is next."""
        if not self.text.startswith(literal, self.pos):
            return False
        if self.depth == MAX_DEPTH:
            raise self.error(f"nested more than {MAX_DEPTH} levels deep")
        self.depth += 1
        self.pos += len(literal)
        return True

    def close(self):
        self.expect(")")
        self.depth -= 1

    def require_ws(self):
        m = _WS_RE.match(self.text, self.pos)
        if not m:
            raise self.error("expected whitespace")
        self.pos = m.end()

    def read_name(self):
        m = NAME_RE.match(self.text, self.pos)
        if not m:
            raise self.error("expected a name")
        self.pos = m.end()
        return m.group()

    def expect(self, literal):
        if not self.try_consume(literal):
            raise self.error(f"expected {literal!r}")

    def expect_end(self):
        if not self.at_end():
            raise self.error("unexpected trailing input")
