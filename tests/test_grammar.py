"""The text grammar: group specs, element texts and subset expressions.

All three are read by the same helpers in ``glab.groupcore``: one bracket
splitter, one call reader and one integer reader.  The specs in the table
below are the ones the grammar gave before it was rewritten; the fuzz tests
allow only two outcomes for any text, a value or an ``InputError``.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from glab.cli import parse_subset
from glab.errors import InputError
from glab.groupcore import (
    MAX_NESTING,
    AbSpec,
    AltSpec,
    CycSpec,
    ProductSpec,
    QuotientSpec,
    SLSpec,
    SymSpec,
    build_group,
    parse_element,
    parse_group_spec,
)

SPECS = [
    ("Cyc(12)", CycSpec(12)),
    (" Cyc ( 12 ) ", CycSpec(12)),
    ("Ab(4,2)", AbSpec((4, 2))),
    ("Ab( 2 , 3 ,5)", AbSpec((2, 3, 5))),
    ("Sym(6)", SymSpec(6)),
    ("Alt(5)", AltSpec(5)),
    ("SL(3, 3)", SLSpec(3, 3)),
    ("Cyc(-3)", CycSpec(-3)),
    ("Prod(Cyc(2),Sym(3))", ProductSpec(CycSpec(2), SymSpec(3))),
    ("Prod(Prod(Cyc(2),Cyc(3)),Alt(4))",
     ProductSpec(ProductSpec(CycSpec(2), CycSpec(3)), AltSpec(4))),
    ("Quot(SL(2,5),center)", QuotientSpec(SLSpec(2, 5), "center")),
    ("Quot(Sym(3), center )", QuotientSpec(SymSpec(3), "center")),
    ("Quot(Cyc(12),gen())", QuotientSpec(CycSpec(12), ())),
    ("Quot(Cyc(12),gen(6;4))", QuotientSpec(CycSpec(12), (6, 4))),
    ("Quot(Sym(4),gen( (1,2) ; ))",
     QuotientSpec(SymSpec(4), ((1, 0, 2, 3),))),
    ("Quot( Sym(4) , gen( ; (1,2,3) ; ) )",
     QuotientSpec(SymSpec(4), ((1, 2, 0, 3),))),
    ("Quot(SL(2,5),gen(4,0,0,4))",
     QuotientSpec(SLSpec(2, 5), ((4, 0, 0, 4),))),
    ("Quot(Ab(2,3),gen(( 1 , 2 )))", QuotientSpec(AbSpec((2, 3)), ((1, 2),))),
    ("Quot(Prod(SL(2,5),Sym(4)),gen([1,0,0,1|(1,2)(3,4)]))",
     QuotientSpec(ProductSpec(SLSpec(2, 5), SymSpec(4)),
                  (((1, 0, 0, 1), (1, 0, 3, 2)),))),
    ("Quot(Quot(Sym(4),gen((1,2)(3,4))),gen((1,2,3)))",
     QuotientSpec(QuotientSpec(SymSpec(4), ((1, 0, 3, 2),)),
                  ((1, 2, 0, 3),))),
    ("Quot(Prod(Cyc(4),Ab(2,2)),gen([2|(1,0)];[0|(0,1)]))",
     QuotientSpec(ProductSpec(CycSpec(4), AbSpec((2, 2))),
                  ((2, (1, 0)), (0, (0, 1))))),
    ("Quot(Prod(Prod(Cyc(2),Cyc(2)),Cyc(3)),gen([[1|0]|0]))",
     QuotientSpec(ProductSpec(ProductSpec(CycSpec(2), CycSpec(2)), CycSpec(3)),
                  (((1, 0), 0),))),
    ("Prod(Quot(SL(2,3),center),Quot(Cyc(5),gen(-1)))",
     ProductSpec(QuotientSpec(SLSpec(2, 3), "center"),
                 QuotientSpec(CycSpec(5), (4,)))),
]


@pytest.mark.parametrize("text,spec", SPECS)
def test_specs_frozen(text, spec):
    assert parse_group_spec(text) == spec


def _nested_prod(k: int) -> str:
    """Prod(Prod(...(Cyc(1),Cyc(1))...),Cyc(1)): k brackets deep inside
    the outermost call's parentheses."""
    return "Prod(" * k + "Cyc(1)" + ",Cyc(1))" * k


def _nested_sym(k: int) -> str:
    return "sym(" * k + "class(e)" + ")" * k


def test_nesting_limit(sym4):
    assert parse_group_spec(_nested_prod(MAX_NESTING)) is not None
    parse_subset(sym4, _nested_sym(MAX_NESTING))
    with pytest.raises(InputError) as e:
        parse_group_spec(_nested_prod(MAX_NESTING + 1))
    assert e.value.code == "syntax_error"
    with pytest.raises(InputError) as e:
        parse_subset(sym4, _nested_sym(MAX_NESTING + 1))
    assert e.value.code == "syntax_error"


@pytest.mark.parametrize("text,position", [
    ("Foo(3)", 0),
    ("Prod(Cyc(3),Sym(x))", 16),
    ("Ab(2,,3)", 5),
    ("Cyc(3,4)", 5),
    ("SL(2)", 4),
    ("Cyc(6))", 5),
    ("Quot(Sym(3),centre)", 12),
    ("Cyc(١٢)", 4),
    ("Cyc(1_0)", 4),
    ("Cyc(+3)", 4),
])
def test_spec_errors_point_into_the_text(text, position):
    with pytest.raises(InputError) as e:
        parse_group_spec(text)
    assert e.value.code == "syntax_error"
    assert e.value.details["position"] == position
    assert e.value.details["text"] == text


def test_empty_element_text_is_refused(sym4, cyc12, sl25, ab42, a5xs3):
    for G in (sym4, cyc12, sl25, ab42, a5xs3):
        for text in ("", "  "):
            with pytest.raises(InputError) as e:
                parse_element(G, text)
            assert e.value.code == "syntax_error"
    with pytest.raises(InputError):
        parse_element(a5xs3, "[|(1,2)]")
    for text in ("e", "()", "id", " e "):
        assert parse_element(sym4, text) == 0
    assert parse_element(a5xs3, "[e|()]") == 0


@pytest.mark.parametrize("text", ["class()", "ball(;1)", "ball((1,2);;1)",
                                  "class(1_1)", "union(class(e),)",
                                  "class((1,2)", "sym(class(e)))"])
def test_subset_syntax_errors(sym4, text):
    with pytest.raises(InputError):
        parse_subset(sym4, text)


def test_subset_integers_are_ascii(cyc12):
    assert parse_subset(cyc12, "arc( -1 )").sum() == 0
    assert parse_subset(cyc12, "arc(100000000000)").all()
    for text in ("arc(1_0)", "arc(١)", "ball(1;²)", "class(1_1)"):
        with pytest.raises(InputError) as e:
            parse_subset(cyc12, text)
        assert e.value.code == "syntax_error"


# -- fuzz: grammar tokens and arbitrary text, fixed examples per run

TOKENS = ["Cyc", "Ab", "Sym", "Alt", "SL", "Prod", "Quot", "gen", "center",
          "class", "ball", "arc", "sym", "union", "e", "id", "(", ")", "[",
          "]", ",", ";", "|", "-", " ", "0", "1", "2", "3", "12", "²", "١",
          "_", "+"]
texts = st.lists(st.one_of(st.sampled_from(TOKENS), st.text(max_size=3)),
                 max_size=24).map("".join)
FUZZ = settings(derandomize=True, max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _value_or_input_error(fn, *args):
    try:
        fn(*args)
    except InputError:
        pass


@FUZZ
@given(text=texts)
def test_fuzz_group_specs(text):
    _value_or_input_error(parse_group_spec, text)


@pytest.fixture(scope="module")
def fuzz_groups():
    return [build_group(parse_group_spec(t)) for t in (
        "Cyc(12)", "Ab(4,2)", "Sym(4)", "SL(2,3)", "Prod(Cyc(3),Sym(3))",
        "Quot(Sym(4),gen((1,2)(3,4)))")]


@FUZZ
@given(text=texts, data=st.data())
def test_fuzz_elements(fuzz_groups, text, data):
    G = data.draw(st.sampled_from(fuzz_groups))
    _value_or_input_error(parse_element, G, text)


@FUZZ
@given(text=texts, data=st.data())
def test_fuzz_subsets(fuzz_groups, text, data):
    G = data.draw(st.sampled_from(fuzz_groups))
    _value_or_input_error(parse_subset, G, text)
