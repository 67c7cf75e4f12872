"""Recursive-descent parser for the group-expression mini-language.

Grammar (case- and whitespace-insensitive):

    expr  := term ('x' term)*
    term  := atom | '(' expr ')'
    atom  := NAME '(' INT ')' | NAME INT | 'Q8'
    NAME  := C | D | S | A | SL2 | PSL2 | PGL2

Products are left-associative.  Error offsets are 1-based positions in the
input string.  Parsing, order prediction and building recurse once per
level of nesting, so an expression too deep for Python's recursion limit
is refused with a ParseError.  ``str(expr)`` is the canonical printer:
parse(str(parse(s))) == parse(s).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError
from .groups import (
    GroupTable,
    build_atomic,
    check_order_cap,
    direct_product,
    predicted_atomic_order,
)

# longest first so SL2/PSL2/PGL2 win over single letters
_ATOM_NAMES = ("PSL2", "PGL2", "SL2", "Q8", "C", "D", "S", "A")


@dataclass(frozen=True)
class Atom:
    name: str
    param: int | None

    def __str__(self):
        # the matrix kinds print as GroupTable.name does: PSL2(31), not PSL231
        if self.name in ("SL2", "PSL2", "PGL2"):
            return f"{self.name}({self.param})"
        return self.name if self.param is None else f"{self.name}{self.param}"


@dataclass(frozen=True)
class Product:
    left: "GroupExpr"
    right: "GroupExpr"

    def __str__(self):
        # parenthesize right-nested products so reparsing keeps the shape
        right = f"({self.right})" if isinstance(self.right, Product) else str(self.right)
        return f"{self.left} x {right}"


GroupExpr = Atom | Product


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise ParseError(message, offset=self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def parse_expr(self) -> GroupExpr:
        # term := atom | '(' expr ')', read with no frame of its own, so a
        # level of nesting costs two frames: this one and parenthesized
        term = (self.parse_expr, self.parse_atom)
        node = self.parenthesized(*term)
        while True:
            self.skip_ws()
            if self.pos < len(self.text) and self.text[self.pos] in "xX":
                self.pos += 1
                node = Product(node, self.parenthesized(*term))
            else:
                return node

    def parenthesized(self, inner, bare):
        """``"(" inner ")"`` if the next character is "(", else ``bare``."""
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != "(":
            return bare()
        self.pos += 1
        value = inner()
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ")":
            self.error("expected ')'")
        self.pos += 1
        return value

    def parse_atom(self) -> Atom:
        self.skip_ws()
        rest = self.text[self.pos :].upper()
        for name in _ATOM_NAMES:
            if rest.startswith(name):
                self.pos += len(name)
                if name == "Q8":
                    return Atom("Q8", None)
                return Atom(name, self.parenthesized(self.parse_int, self.parse_int))
        self.error("expected a group atom (C, D, S, A, SL2, PSL2, PGL2 or Q8)")

    def parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return int(self.text[start : self.pos])


def parse_group_expr(text: str) -> GroupExpr:
    p = _Parser(text)
    try:
        node = p.parse_expr()
    except RecursionError:
        p.error("parentheses nested too deeply")
    if not p.at_end():
        p.error(f"unexpected trailing input {text[p.pos:]!r}")
    return node


def predicted_order(expr: GroupExpr) -> int:
    """Symbolic order; validates atom parameters without building anything."""
    if isinstance(expr, Atom):
        return predicted_atomic_order(expr.name, expr.param)
    return predicted_order(expr.left) * predicted_order(expr.right)


def elaborate(expr: GroupExpr, size_cap: int | None = None) -> GroupTable:
    """Build the group, checking the predicted order against the cap first."""
    try:
        order = predicted_order(expr)
        if size_cap is not None:
            check_order_cap(str(expr), order, size_cap)
        return _build(expr)
    except RecursionError:
        raise ParseError("expression nested too deeply to evaluate", offset=1) from None


def _build(expr: GroupExpr) -> GroupTable:
    if isinstance(expr, Atom):
        return build_atomic(expr.name, expr.param)
    return direct_product(_build(expr.left), _build(expr.right))


def elaborate_text(text: str, size_cap: int | None = None) -> GroupTable:
    return elaborate(parse_group_expr(text), size_cap)
