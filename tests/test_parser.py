import pytest

from autmap.errors import CapExceededError, GroupBuildError, ParseError
from autmap.parser import (
    Atom,
    Product,
    elaborate_text,
    parse_group_expr,
    predicted_order,
)


def test_basic_parses():
    assert parse_group_expr("A5 x C3") == Product(Atom("A", 5), Atom("C", 3))
    assert parse_group_expr("PSL2(9)") == Atom("PSL2", 9)
    assert parse_group_expr("Q8") == Atom("Q8", None)
    assert parse_group_expr("sl2(5)") == Atom("SL2", 5)
    assert parse_group_expr(" c12 ") == Atom("C", 12)


def test_product_left_associative():
    e = parse_group_expr("C2 x C3 x C5")
    assert e == Product(Product(Atom("C", 2), Atom("C", 3)), Atom("C", 5))


def test_parens():
    e = parse_group_expr("C2 x (C3 x C5)")
    assert e == Product(Atom("C", 2), Product(Atom("C", 3), Atom("C", 5)))
    assert parse_group_expr("(A5)") == Atom("A", 5)


def test_whitespace_and_case_insensitive():
    assert parse_group_expr("a5xc3") == parse_group_expr("A5 X C3")


def test_syntax_error_offsets():
    with pytest.raises(ParseError) as e:
        parse_group_expr("A5 x")
    assert e.value.offset == 5
    with pytest.raises(ParseError) as e:
        parse_group_expr("A5 )")
    assert e.value.offset == 4
    with pytest.raises(ParseError):
        parse_group_expr("")
    with pytest.raises(ParseError):
        parse_group_expr("Zoo(3)")
    with pytest.raises(ParseError):
        parse_group_expr("C()")


def test_roundtrip_through_canonical_printer():
    for text in ("A5 x C3", "PSL2(9)", "Q8 x Q8", "C2 x (C3 x C5)", "(S4 x A4) x D6",
                 "C5 x PSL2(31)", "sl2 7 x pgl2(9)"):
        once = parse_group_expr(text)
        assert parse_group_expr(str(once)) == once


def test_canonical_printer_matches_group_names():
    # parameterised matrix atoms keep their parentheses, as GroupTable.name has them
    assert str(parse_group_expr("C5 x psl2 31")) == "C5 x PSL2(31)"
    assert str(parse_group_expr("SL2 5 x PGL2(9)")) == "SL2(5) x PGL2(9)"
    assert [str(parse_group_expr(t)) for t in ("c5", "S(4)", "D12", "q8")] == ["C5", "S4", "D12", "Q8"]
    for text in ("SL2(5)", "PSL2(7)", "PGL2(5)", "A5 x C3", "Q8 x S4"):
        assert str(parse_group_expr(text)) == elaborate_text(text).name


def test_predicted_order_matches_elaboration():
    for text in ("A5 x C3", "Q8", "S4", "D6", "SL2(5)", "PSL2(7) x C2"):
        expr = parse_group_expr(text)
        assert elaborate_text(text).n == predicted_order(expr)


def test_elaborate_examples():
    assert elaborate_text("A5 x C3", size_cap=1000).n == 180
    with pytest.raises(GroupBuildError):
        elaborate_text("PSL2(6)")
    with pytest.raises(CapExceededError) as e:
        elaborate_text("S8", size_cap=10000)
    assert e.value.predicted == 40320


def test_cap_checked_before_materialization():
    with pytest.raises(CapExceededError) as e:
        elaborate_text("A5 x A5", size_cap=1000)
    assert e.value.predicted == 3600
