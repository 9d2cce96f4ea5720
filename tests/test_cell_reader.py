"""The one cell reader behind matrix and prior input.

``reference_value`` reads a cell the way the loaders did before the integer
reader: one ``Fraction`` per cell.  Every load path (matrix CSV, matrix
JSON, prior CSV, values passed in Python) must give what the reference
gives, or raise the same exception type with the same message, on the
running interpreter, whatever spelling a cell uses.
"""

import csv
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpchannel import ChannelMatrix, Prior, channels, prior_from_csv


def reference_value(cell):
    """One ``Fraction`` per cell: strings stripped, floats by their repr."""
    if isinstance(cell, float):
        text = repr(cell)
    elif isinstance(cell, str):
        text = cell.strip()
    else:
        return Fraction(cell)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"cell {cell!r} has a zero denominator") from None


def reference_matrix(rows, row_labels, col_labels):
    values = [[reference_value(c) for c in row] for row in rows]
    dens = [math.lcm(*(q.denominator for q in row)) for row in values]
    nums = [[q.numerator * (den // q.denominator) for q in row] for row, den in zip(values, dens)]
    return ChannelMatrix(nums, row_labels, col_labels, denominators=dens)


def reference_prior(values):
    return Prior(tuple(reference_value(c) for c in values))


def outcome(load, *args):
    try:
        return load(*args)
    except Exception as exc:
        return type(exc), str(exc)


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


def decimal_digits(q):
    """``(digits, places)`` with q == digits / 10**places, or None."""
    for places in range(8):
        if (q * 10 ** places).denominator == 1:
            return int(q * 10 ** places), places
    return None


@st.composite
def spellings(draw, q):
    """One text of the value q, or, one time in eight, some other text."""
    if draw(st.integers(0, 7)) == 0:
        return draw(st.one_of(
            st.sampled_from(["", "abc", "1/", "/2", "1 / 2", "1/0", "0/0", "0/00", "²", "1/²",
                             "-1/2", "+0", "-0", "1/-2", "nan", "inf", "1/2/3", "0x10"]),
            st.text(alphabet="0123456789/._-+e ²٣", max_size=6)))
    k = draw(st.integers(1, 6))
    num, den = q.numerator * k, q.denominator * k
    form = draw(st.sampled_from(
        ["fraction", "integer", "zeros", "sign", "decimal", "exponent", "underscore",
         "arabic", "fullwidth"]))
    if form == "integer" and q.denominator == 1:
        text = str(q.numerator)
    elif form == "zeros":
        text = f"{num:03d}/{den:04d}"
    elif form == "sign":
        text = f"+{num}/{den}"
    elif form in ("decimal", "exponent") and decimal_digits(q):
        digits, places = decimal_digits(q)
        if form == "exponent":
            text = f"{digits}e-{places}" if draw(st.booleans()) else f"{digits}E-{places}"
        else:
            whole, frac = divmod(digits, 10 ** places)
            text = f"{whole}.{frac:0{places}d}" if places else f"{whole}."
    elif form == "underscore":
        text = f"{num}_0/{den}_0"     # valid on 3.11 and later only
    elif form in ("arabic", "fullwidth"):
        text = f"{num}/{den}".translate(ARABIC_INDIC if form == "arabic" else FULLWIDTH)
    else:
        text = f"{num}/{den}"
    pad = draw(st.sampled_from(["", " ", "\t", "  "]))
    return pad + text + draw(st.sampled_from(["", " ", "\t"]))


@st.composite
def json_cells(draw, q):
    """A JSON cell for q: its text, an int, or a float."""
    kind = draw(st.sampled_from(["text", "int", "float", "any float"]))
    if kind == "int" and q.denominator == 1:
        return q.numerator
    if kind == "float" and decimal_digits(q):
        return float(q)
    if kind == "any float":
        return draw(st.floats())
    return draw(spellings(q))


@st.composite
def stochastic_rows(draw, max_rows=4, max_cols=4):
    """Rows of probabilities that sum to 1, or one time in six to something else."""
    n = draw(st.integers(1, max_rows))
    m = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(n):
        weights = draw(st.lists(st.integers(0, 8), min_size=m, max_size=m))
        if not any(weights):
            weights[0] = 1
        total = sum(weights) + (draw(st.integers(-1, 1)) if draw(st.integers(0, 5)) == 0 else 0)
        rows.append([Fraction(w, total or 1) for w in weights])
    return rows


def csv_text(lines):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(lines)
    return out.getvalue()


def labels(prefix, k):
    return [f"{prefix}{i}" for i in range(k)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_matrix_csv_reads_like_one_fraction_per_cell(data):
    values = data.draw(stochastic_rows())
    cells = [[data.draw(spellings(q)) for q in row] for row in values]
    rl, cl = labels("x", len(cells)), labels("y", len(cells[0]))
    expected = outcome(reference_matrix, cells, rl, cl)
    text = csv_text([[""] + cl] + [[label] + row for label, row in zip(rl, cells)])
    assert outcome(ChannelMatrix.from_csv, text) == expected
    assert outcome(ChannelMatrix.from_rows, cells, rl, cl) == expected


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_matrix_json_reads_like_one_fraction_per_cell(data):
    values = data.draw(stochastic_rows())
    cells = [[data.draw(json_cells(q)) for q in row] for row in values]
    rl, cl = labels("x", len(cells)), labels("y", len(cells[0]))
    text = json.dumps({"row_labels": rl, "col_labels": cl, "entries": cells})
    assert outcome(ChannelMatrix.from_json, text) == \
        outcome(reference_matrix, json.loads(text)["entries"], rl, cl)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_prior_csv_reads_like_one_fraction_per_cell(data):
    (probs,) = data.draw(stochastic_rows(max_rows=1, max_cols=6))
    cells = [data.draw(spellings(q)) for q in probs]
    rl = labels("x", len(cells))
    text = csv_text(zip(rl, cells))
    expected = outcome(reference_prior, cells)
    if not isinstance(expected, tuple):
        expected = (expected, tuple(rl))
    assert outcome(prior_from_csv, text) == expected
    assert outcome(Prior, cells) == outcome(reference_prior, cells)


def read_one(cell):
    (nums,), (den,) = channels._read_rows([[cell]])
    return Fraction(nums[0], den)


@pytest.mark.parametrize("text, value", [
    ("007/014", Fraction(1, 2)), (" 2/4\t", Fraction(1, 2)), ("0/9", Fraction(0)),
    ("3", Fraction(3)), ("12/36", Fraction(1, 3)),
])
def test_ascii_cells_need_not_be_reduced(text, value):
    assert reference_value(text) == read_one(text) == value


@pytest.mark.parametrize("text", ["²", "1/²", "٣/٤", "３", "1_0/2_0"])
def test_other_digits_are_left_to_fraction(text):
    assert outcome(read_one, text) == outcome(reference_value, text)


@pytest.fixture
def counted_as_fraction(monkeypatch):
    calls = []

    def counting(x):
        calls.append(x)
        return original(x)

    original = channels.as_fraction
    monkeypatch.setattr(channels, "as_fraction", counting)
    return calls


def test_ascii_cells_are_read_without_as_fraction(counted_as_fraction):
    matrix = ChannelMatrix.from_csv(",a,b,c\nx, 1/2 ,1/4,01/4\ny,2/6,0,4/6\nz,1,0,0\n")
    again = ChannelMatrix.from_json(matrix.to_json())
    prior, _ = prior_from_csv("x,1/3\ny,2/6\nz, 2/6\n")
    assert counted_as_fraction == []
    assert again == matrix
    assert matrix.denominators == (4, 3, 1)
    assert prior.probs == (Fraction(1, 3),) * 3
    ChannelMatrix.from_csv(",a,b\nx,0.5,1/2\ny,.5,0.50\n")
    assert counted_as_fraction == ["0.5", ".5", "0.50"]


def test_each_distinct_text_is_read_once(counted_as_fraction):
    ChannelMatrix.from_csv(",a,b\nx,0.5,0.5\ny,0.5,0.5\nz,0.25,0.75\n")
    assert counted_as_fraction == ["0.5", "0.25", "0.75"]
