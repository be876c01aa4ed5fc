"""``format_int_rows``: the same bytes on both tiers, in both shapes.

The row formatter (``kern_format_rows`` behind
:func:`repro.graph.io.format_int_rows`) writes what two consumers used to
build from ``tolist()``: the daemon's ``assignments`` values, which must
be ``json.dumps`` of the nested lists byte for byte, and a ``.parts``
file's ``u v part`` lines, which the edge-file reader must read back.
Values cover the whole int64 range: both extremes, 0, -1, every power of
ten and its neighbours (each a change of digit count), and random
magnitudes of every width.

The whole module runs twice: on the compiled tier and with
``_kernels.load()`` answering ``None`` (``%d`` over ``tolist()``).
"""

import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import _kernels
from repro.graph.io import format_int_rows, iter_int_rows
from repro.service.server import _json_rows

INT64_MIN, INT64_MAX = -2**63, 2**63 - 1
POWERS = [10**k for k in range(19)]
SPECIAL = sorted({INT64_MIN, INT64_MAX, INT64_MIN + 1, INT64_MAX - 1, 0, -1}
                 | {s * (p + d) for p in POWERS for d in (-1, 0, 1)
                    for s in (1, -1)})

PROPERTY = settings(max_examples=80, deadline=None, suppress_health_check=[
    HealthCheck.function_scoped_fixture, HealthCheck.too_slow])


@pytest.fixture(autouse=True, params=["compiled", "reference"])
def tier(request, monkeypatch):
    if request.param == "reference":
        monkeypatch.setattr(_kernels, "_loaded", None)
    elif _kernels.load() is None:
        pytest.skip("the compiled kernels do not load here")
    return request.param


@st.composite
def int_rows(draw, min_cols=1):
    """An ``(n, ncols)`` int64 array, n in {0, 1, 300}: random values of
    every width (a full-range draw shifted right by 0-63 bits, either
    sign) with the special values sprinkled in, and at least one of
    them whenever there is a row."""
    ncols = draw(st.integers(min_cols, 4))
    n = draw(st.sampled_from([0, 1, 300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = n * ncols
    values = (rng.integers(INT64_MIN, INT64_MAX, size, dtype=np.int64,
                           endpoint=True)
              >> rng.integers(0, 64, size))
    special = rng.random(size) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    values[special] = rng.choice(np.array(SPECIAL, dtype=np.int64),
                                 int(special.sum()))
    if size:
        values[draw(st.integers(0, size - 1))] = draw(st.sampled_from(SPECIAL))
    return values.reshape(n, ncols)


def lines(rows, open, sep, close):
    """The plainest statement of the format, one row at a time."""
    return "".join(open + sep.join(map(str, row)) + close
                   for row in rows.tolist()).encode()


@PROPERTY
@given(rows=int_rows())
def test_file_shape(rows):
    text = format_int_rows(rows, b"", b" ", b"\n")
    assert text == lines(rows, "", " ", "\n")
    if rows.shape[1] == 3:
        assert text == ("%d %d %d\n" * len(rows)
                        % tuple(rows.ravel().tolist())).encode()


@PROPERTY
@given(rows=int_rows())
def test_ack_shape(rows):
    """The daemon's ``assignments`` value: ``json.dumps`` of the nested
    lists, byte for byte (n = 0 is ``[]``)."""
    assert _json_rows(rows) == json.dumps(rows.tolist()).encode()


@PROPERTY
@given(rows=int_rows(min_cols=2))
def test_round_trip_through_the_reader(rows):
    """What the formatter writes, ``iter_int_rows`` reads back exactly
    (the reader takes two columns at least: an edge line's)."""
    ncols = rows.shape[1]
    read = [np.asarray(block, dtype=np.int64).reshape(-1, ncols)
            for block in iter_int_rows(
                io.BytesIO(format_int_rows(rows, b"", b" ", b"\n")),
                ncols=ncols)]
    assert np.array_equal(np.concatenate(
        [np.empty((0, ncols), dtype=np.int64)] + read), rows)


@PROPERTY
@given(rows=int_rows())
def test_any_framing(rows):
    """Framing bytes are copied as they are — ``%`` included, which the
    reference tier's format string must escape."""
    assert (format_int_rows(rows, b"%d(", b"%%", b")%\n")
            == lines(rows, "%d(", "%%", ")%\n"))


@PROPERTY
@given(rows=int_rows(), texts=st.lists(st.binary(max_size=6), min_size=5,
                                       max_size=5))
def test_a_separator_per_column(rows, texts):
    """One separator before each column after the first, each copied as
    it is (``%`` included)."""
    ncols = rows.shape[1]
    open, close, seps = texts[0], texts[1], texts[2:2 + ncols - 1]
    seps += [b"%,"] * (ncols - 1 - len(seps))
    expected = b"".join(
        open + b"".join(lead + str(value).encode()
                        for lead, value in zip([b""] + seps, row)) + close
        for row in rows.tolist())
    assert format_int_rows(rows, open, seps, close) == expected


@PROPERTY
@given(rows=int_rows(min_cols=4))
def test_audit_shape(rows):
    """The daemon's ``audit`` value: ``json.dumps`` of one object per
    ``(seq, u, v, partition)`` row, byte for byte."""
    rows = rows[:, :4]
    keys = ("seq", "u", "v", "partition")
    assert _json_rows(rows, b'{"seq": ',
                      (b', "u": ', b', "v": ', b', "partition": '),
                      b"}") == json.dumps(
        [dict(zip(keys, row)) for row in rows.tolist()]).encode()


def test_layout_and_dtype_do_not_matter():
    rows = np.arange(-12, 12).reshape(8, 3) * 10**17
    expected = lines(rows, "", " ", "\n")
    for layout in (np.asfortranarray(rows), np.repeat(rows, 2, axis=0)[::2],
                   rows.T.copy().T):
        assert format_int_rows(layout, b"", b" ", b"\n") == expected
    small = np.array([[1, 2], [-3, 4]], dtype=np.int32)
    assert format_int_rows(small, b"", b" ", b"\n") == b"1 2\n-3 4\n"


@pytest.mark.parametrize("shape", [(3,), (2, 0), (1, 2, 3)])
def test_refuses_what_is_not_rows(shape):
    with pytest.raises(ValueError, match="rows must be"):
        format_int_rows(np.zeros(shape, dtype=np.int64), b"", b" ", b"\n")


@pytest.mark.parametrize("seps", [(), (b" ",), (b" ", b" ", b" ")])
def test_refuses_a_separator_count_that_is_not_ncols_minus_one(seps):
    with pytest.raises(ValueError, match="separators for 3 columns"):
        format_int_rows(np.zeros((2, 3), dtype=np.int64), b"", seps, b"\n")
