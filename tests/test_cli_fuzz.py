"""A grammar fuzzer for the command line: every command of ``cli._COMMANDS``
run on generated flag values, one hypothesis strategy per reader.

Each strategy draws a plausible value, then spoils three in ten: a field
of a document goes missing, or takes a value of the wrong kind, zero, a
negative or a huge value.  The plausible values cover non-primes,
reducible and wide extension fields and short lists.  Sizes stay small: a
huge value is one past a cap (the precision budget, the extension-field
bound, the level count), where the door must refuse it, or one the
program reads off a cycle.  Whatever the input, a run ends in exit 0, 2
or 3, prints one JSON document and writes nothing to stderr, so no
traceback, and an input error's reason is the program's, not Python's.
A list field given junk of another kind ends in exit 2.
"""

import contextlib
import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from ramforge import cli, jsonio
from ramforge.herbrand import psi_from_breaks

from helpers import random_break_data

FUZZ = settings(derandomize=True, max_examples=40, deadline=None, database=None)

# a JSON value of the wrong kind for any field, among them a string and an
# object whose items would read as a list's; and the extremes of an integer
JUNK = st.sampled_from([None, True, 2.5, "x", "", "1e3", "123", [], {}, [1, [2]], {"p": 5}, {"1": 1}])
# junk for a list field: digit strings, whose characters would read as a
# plausible list's items
LIST_JUNK = st.sampled_from(["0", "01", "123", "0110"])
# a rational written as a [num, den] pair, which a number or a string also
# gives: not a list field
PAIRS = {"e"}
EXTREMES = st.sampled_from([0, -1, -7, 10**7, 2**64, 10**30])
P_VALUES = st.sampled_from([2, 3, 5, 7, 4, 2**61 - 1])
SMALL_INTS = st.integers(-2, 12)
# an integer flag: plausible values first, which hypothesis draws most
INT_VALUES = st.sampled_from([2, 1, 3, 5, 7, 0, 4, 12, 64, 65, 2**61 - 1, 10**21])

# (p, w, modulus): the fields of the tests, a reducible modulus, a missing
# or short one, a non-prime p, and wide fields past the extension-field bound
FIELDS = st.sampled_from([
    (2, 1, None), (3, 1, None), (5, 1, None), (7, 1, None), (2**61 - 1, 1, None),
    (2, 2, [1, 1, 1]), (3, 2, [1, 0, 1]), (2, 3, [1, 1, 0, 1]), (3, 3, [1, 2, 0, 1]),
    (2, 2, [1, 0, 1]), (5, 2, None), (5, 2, [1, 1]), (4, 1, None),
    (2, 800, [1, 1] + [0] * 798 + [1]), (10007, 80, [1, 1] + [0] * 78 + [1]),
])


@st.composite
def spoiled(draw, docs):
    """(text, refused): a document from docs, three in ten with one field
    missing, of the wrong kind or extreme, and whether it must be refused
    because a list field holds junk of another kind (the modulus may be
    null).  Junk goes to a list field, if the document has one, half the
    time (on the simpler draw, which hypothesis makes more often), and there
    it is a digit string."""
    doc = dict(draw(docs))
    how, refused = draw(st.integers(0, 9)), False
    if how >= 7 and doc:
        lists = sorted(k for k, v in doc.items() if isinstance(v, list) and k not in PAIRS)
        to_list = how == 8 and lists and not draw(st.booleans())
        key = draw(st.sampled_from(lists if to_list else sorted(doc)))
        if how == 7:
            del doc[key]
        else:
            value = draw(LIST_JUNK if to_list else JUNK if how == 8 else EXTREMES)
            refused = (how == 8 and key in lists and not isinstance(value, list)
                       and not (key == "modulus" and value is None))
            doc[key] = value
    return json.dumps(doc), refused


@st.composite
def spoiled_text(draw, texts):
    """(text, False): a flag value from texts, three in ten of the wrong
    kind or extreme."""
    how = draw(st.integers(0, 9))
    if how < 7:
        return draw(texts), False
    return draw(st.sampled_from(["x", "1.5", "", "1e3", "0x10", " 7", "1/0", "-0"]) if how == 7
                else EXTREMES.map(str)), False


def field_doc(p, w, modulus):
    return {"p": p, "w": w} if modulus is None else {"p": p, "w": w, "modulus": modulus}


def tail_lengths(trunc):
    """The fewest coefficients past the linear one: mostly all of them, or
    a list one or more short."""
    return st.sampled_from([trunc - 2, trunc - 3, 0]).map(lambda n: max(n, 0))


@st.composite
def series_docs(draw):
    p, w, modulus = draw(FIELDS)
    trunc = draw(st.integers(2, 30))
    entry = st.integers(0, 50) if w == 1 else st.lists(st.integers(0, 4), min_size=w, max_size=w)
    tail = draw(st.lists(entry, min_size=draw(tail_lengths(trunc)), max_size=trunc - 2))
    linear = draw(st.sampled_from([1, 1, 2, 0])) if w == 1 else [1] + [0] * (w - 1)
    zero = 0 if w == 1 else [0] * w
    return {**field_doc(p, w, modulus), "trunc": trunc, "coeffs": [zero, linear] + tail}


@st.composite
def padic_docs(draw):
    p, prec = draw(P_VALUES), draw(st.sampled_from([1, 2, 3, 8]))
    trunc = draw(st.integers(2, 30))
    linear = draw(st.sampled_from([1 + p, 1, 1 + p * p, 2, 0]))
    tail = draw(st.lists(st.integers(0, p**prec - 1), min_size=draw(tail_lengths(trunc)), max_size=trunc - 2))
    return {"p": p, "prec": prec, "trunc": trunc, "coeffs": [0, linear] + tail}


def break_data(seed, den=1):
    return jsonio.break_data_out(random_break_data(random.Random(seed), primes=(5, 7), n_max=4, den=den))


BREAK_DATA = st.builds(break_data, st.integers(0, 10**6), st.sampled_from([1, 1, 2]))


@st.composite
def theorem_inputs(draw):
    doc = draw(BREAK_DATA)
    for key in ("a", "m"):
        if draw(st.booleans()):
            doc[key] = draw(st.integers(0, 40))
    doc["contained_in_zp"] = draw(st.booleans())
    return doc


@st.composite
def morphisms(draw):
    p, w, modulus = draw(st.sampled_from([(5, 1, None), (3, 1, None), (3, 2, [1, 0, 1]), (10007, 80, None)]))
    e1, r = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    unit = 1 if w == 1 else [1] + [0] * (w - 1)
    eta = [unit] + draw(st.lists(st.integers(0, p - 1), max_size=r * e1 - 1))
    field = field_doc(p, w, modulus)
    return {"source": {"field": field, "e": e1}, "target": {"field": field, "e": r * e1},
            "r": r, "res_twist": draw(st.integers(0, 2)), "eta_coeff": eta}


def comma_list(values):
    return st.lists(values.map(str), max_size=5).map(",".join)


SEN_LOWER = st.sampled_from(["4,24,124", "1,3,15", "2,8,26", "4", "4,24,125", "4,4"])
UPPER = st.sampled_from(["4,8,12", "1,2,3", "1/2,3/2", "4", "4,8,13,17"])

# one strategy per reader of cli._COMMANDS
READERS = {
    cli._INT: spoiled_text(INT_VALUES.map(str)),
    cli._FRAC: spoiled_text(st.tuples(SMALL_INTS, st.integers(1, 9)).map(lambda t: f"{t[0]}/{t[1]}")),
    cli._INTS: spoiled_text(st.one_of(SEN_LOWER, comma_list(SMALL_INTS))),
    cli._FRACS: spoiled_text(st.one_of(UPPER, comma_list(SMALL_INTS))),
    cli._SERIES: spoiled(series_docs()),
    cli._PADIC: spoiled(padic_docs()),
    cli._BREAKS: spoiled(BREAK_DATA),
    cli._INPUTS: spoiled(theorem_inputs()),
    cli._PLFUNC: spoiled(BREAK_DATA.map(lambda bd: jsonio.plfunc_out(psi_from_breaks(jsonio.break_data_in(bd))))),
    cli._MORPHISM: spoiled(morphisms()),
}

COMMANDS = [(group, op, flags) for group, (_, ops) in cli._COMMANDS.items()
            for op, (_, *flags) in ops.items()]


def test_every_reader_has_a_strategy():
    readers = {read for _, _, flags in COMMANDS for _, read, *_ in flags if read is not bool}
    assert readers == set(READERS)


@st.composite
def command_lines(draw, flags):
    """(argv, refused): a command's flags, one in ten lines without one of
    them, and whether a flag value must be refused."""
    left_out = draw(st.sampled_from(flags))[0] if draw(st.integers(0, 9)) == 9 else None
    argv, refused = [], False
    for name, read, *_ in flags:
        if read is bool:
            argv += [name] if draw(st.booleans()) else []
        elif name != left_out:
            text, bad = draw(READERS[read])
            argv += [name, text]
            refused = refused or bad
    return argv, refused


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("group, op, flags", COMMANDS, ids=[f"{g}-{o}" for g, o, _ in COMMANDS])
def test_every_run_ends_in_one_document(group, op, flags):
    @FUZZ
    @given(command_lines(flags))
    def check(line):
        argv, refused = line
        code, out, err = run([group, op, *argv])
        assert code in (0, 2, 3), out
        assert code == 2 or not refused, (argv, out)
        doc = json.loads(out)
        assert (code == 0) == ("error" not in doc)
        assert err == ""
        # an input error names its cause, not Python's ("'int' object is
        # not iterable")
        if code == 2:
            assert "object is not" not in doc["error"]["reason"]

    check()
