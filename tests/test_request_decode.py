"""The daemon's request decoder: ``json.loads`` is the definition.

:func:`repro.service.server._decode_request` reads a request line's
top-level ``edges`` with the compiled scanner (``kern_scan_edges``)
straight into an ``(n, 2)`` int64 array and ``json.loads`` the rest of
the line with that value cut out.  Whatever it makes of a line — the
request, the array ``_op_ingest`` hands to the WAL and the session, or
the error text — must be what ``json.loads`` then ``_edge_array`` make
of it: on generated lines (members before and after ``edges``, strings
holding ``"edges"``, brackets, escapes and non-ASCII, every int64
extreme, many serialisations), on every line the scanner must decline,
and over a socket, response line for response line.  Three C mutants
of the scanner must each be caught.

The tier-parametrised tests run twice: on the compiled tier and with
``_kernels.load()`` answering ``None`` (every line is ``json.loads``).
"""

import json
import socket
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _window_utils import load_mutant
from repro.core import _kernels
from repro.service.client import ServiceClient
from repro.service.server import _decode_request, _edge_array, run_service

INT64_MIN, INT64_MAX = -2**63, 2**63 - 1
ENDS = sorted({0, 1, -1, INT64_MIN, INT64_MAX, INT64_MIN + 1, INT64_MAX - 1}
              | {s * (10**k + d) for k in range(19) for d in (-1, 1)
                 for s in (1, -1)})
#: Stands for the edges value while the rest of the object is dumped;
#: no generated string holds a section sign.
MARK = "§edges§"

PROPERTY = settings(max_examples=150, deadline=None, suppress_health_check=[
    HealthCheck.function_scoped_fixture, HealthCheck.too_slow])

SERIALISATIONS = [dict(), dict(separators=(",", ":")),
                  dict(separators=(" , ", " : ")), dict(indent=2),
                  dict(indent="\t", separators=(",", ": ")),
                  dict(indent=0)]


@pytest.fixture(params=["compiled", "reference"])
def tier(request, monkeypatch):
    if request.param == "reference":
        monkeypatch.setattr(_kernels, "_loaded", None)
    elif _kernels.load() is None:
        pytest.skip("the compiled kernels do not load here")
    return request.param


def outcome(decode, line):
    """What the daemon makes of ``line`` before the session: the request
    without its edges, and the edges as the array ``_op_ingest`` hands
    on — or the error, by type and text."""
    try:
        request = decode(line)
        edges = _edge_array(request.pop("edges", []))
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    assert edges.dtype == np.int64 and edges.shape == (len(edges), 2)
    return request, edges.tolist()


def definition(line):
    """``json.loads``: what a request line means."""
    request = json.loads(line)
    if not isinstance(request, dict):
        raise ValueError("request must be a JSON object")
    return request


def native(line) -> bool:
    """Whether the scanner took ``line``: its edges arrive as an array
    that owns exactly its rows."""
    try:
        edges = _decode_request(line).get("edges")
    except ValueError:
        return False
    if not isinstance(edges, np.ndarray):
        return False
    assert edges.flags.c_contiguous and edges.flags.owndata
    assert edges.base is None and edges.dtype == np.int64
    return True


def assert_decodes_as_defined(line, tier, taken):
    assert outcome(_decode_request, line) == outcome(definition, line)
    assert native(line) == (taken and tier == "compiled")


# ---------------------------------------------------------------------------
# Round trip
# ---------------------------------------------------------------------------

strings = st.one_of(
    st.sampled_from(["edges", '"edges": [[1, 2]]', "]", "}", "]}", '\\"',
                     '"', "\\", "é", "日本", "[[", '{"edges"', "", " "]),
    st.text(alphabet=st.characters(codec="utf-8", exclude_characters="§"),
            max_size=8))
scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.floats(allow_nan=False, allow_infinity=False),
                    strings)
values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(strings, inner, max_size=3), max_leaves=10)
keys = st.one_of(
    st.sampled_from(["op", "tenant", "seq", "id", "trace", "Edges",
                     "edges ", "edge", '"edges"', "edges\\", "é"]),
    strings).filter(lambda key: key != "edges")
ends = st.one_of(st.sampled_from(ENDS), st.integers(INT64_MIN, INT64_MAX))
space = st.text(alphabet=" \t\r\n", max_size=2)


@st.composite
def edges_text(draw, pairs):
    """``pairs`` as a JSON array, JSON whitespace drawn around every
    token and a zero now and then written ``-0``."""
    def end(value):
        return "-0" if value == 0 and draw(st.booleans()) else str(value)

    items = [f"[{draw(space)}{end(u)}{draw(space)},{draw(space)}{end(v)}"
             f"{draw(space)}]" for u, v in pairs]
    return (f"[{draw(space)}" + f"{draw(space)},{draw(space)}".join(items)
            + f"{draw(space)}]")


@st.composite
def request_lines(draw):
    """``(line, taken)``: a request object with members before and after
    its ``edges``, and whether the scanner must take it (no top-level
    key holds an escape)."""
    members = draw(st.lists(st.tuples(keys, values), max_size=4,
                            unique_by=lambda member: member[0]))
    at = draw(st.integers(0, len(members)))
    members.insert(at, ("edges", MARK))
    options = dict(draw(st.sampled_from(SERIALISATIONS)),
                   ensure_ascii=draw(st.booleans()))
    text = json.dumps(dict(members), **options)
    mark = json.dumps(MARK, ensure_ascii=options["ensure_ascii"])
    assert text.count(mark) == 1
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=40))
    text = text.replace(mark, draw(edges_text(pairs)))
    line = (draw(space) + text + draw(st.sampled_from(["", "\n", " \r\n"])))
    taken = not any("\\" in json.dumps(key, ensure_ascii=options[
        "ensure_ascii"]) for key, _ in members)
    return line.encode("utf-8"), taken


@PROPERTY
@given(case=request_lines())
def test_round_trip(case, tier):
    line, taken = case
    assert_decodes_as_defined(line, tier, taken)


@pytest.mark.parametrize("text,rows", [
    ('{"edges": []}', []),
    ('{"edges": [[-0, 0]]}', [[0, 0]]),
    ('{"edges":[[9223372036854775807,-9223372036854775808]]}',
     [[INT64_MAX, INT64_MIN]]),
    ('\r\t {\r"edges"\t:\r[\t[\r1\t,\r2\t]\r,[3,4]\t]\r}\r\n',
     [[1, 2], [3, 4]]),
    ('{"trace": {"edges": [[9, 9]]}, "edges": [[1, 2]], "x": "]}"}',
     [[1, 2]]),
])
def test_taken(text, rows, tier):
    line = text.encode()
    assert_decodes_as_defined(line, tier, taken=True)
    assert outcome(_decode_request, line)[1] == rows


# ---------------------------------------------------------------------------
# Declines: json.loads decides, and says what it says of the whole line
# ---------------------------------------------------------------------------

def ingest(edges_json: str) -> bytes:
    return ('{"op": "ingest", "tenant": "t", "edges": ' + edges_json
            + ', "id": 7}\n').encode()


DECLINED = {
    "float": ingest("[[1, 2], [1.0, 4]]"),
    "exponent": ingest("[[1e3, 4]]"),
    "leading zero": ingest("[[1, 2], [01, 4]]"),
    "plus": ingest("[[+1, 4]]"),
    "true": ingest("[[true, 4]]"),
    "string": ingest('[["3", 4]]'),
    "null": ingest("[[1, null]]"),
    "three ends": ingest("[[1, 2, 3]]"),
    "not pairs": ingest("[1, 2, 3]"),
    "one end": ingest("[[1, 2], [3]]"),
    "past int64": ingest(f"[[{2**63}, 4]]"),
    "below int64": ingest(f"[[1, {-2**63 - 1}]]"),
    "far past int64": ingest("[[1, " + "9" * 40 + "]]"),
    "edges a string": ingest('"edges"'),
    "edges an object": ingest('{"edges": [[1, 2]]}'),
    "nested edges": ingest("[[[1, 2]]]"),
    "a line that is a string": b'"edges"\n',
    "a line that is an array": b"[[1, 2]]\n",
    "duplicate edges": b'{"edges": [[1, 2]], "op": "ingest", '
                       b'"tenant": "t", "edges": [[3, 4]]}\n',
    "escaped edges key": b'{"op": "ingest", "tenant": "t", '
                         b'"edg\\u0065s": [[5, 6]]}\n',
    "UTF-8 BOM": b'\xef\xbb\xbf{"op": "ingest", "tenant": "t", '
                 b'"edges": [[1, 2]]}\n',
    "trailing garbage": ingest("[[1, 2]]")[:-1] + b" x\n",
    "second object": ingest("[[1, 2]]")[:-1] + b' {"edges": []}\n',
    "truncated": b'{"op": "ingest", "tenant": "t", "edges": [[1, 2], [3, 4',
    "truncated after edges": b'{"op": "ingest", "tenant": "t", '
                             b'"edges": [[1, 2]], "seq": ',
    "unterminated string": b'{"edges": [[1, 2]], "op": "ingest\n',
    "invalid UTF-8 elsewhere": b'{"op": "ingest", "tenant": "t\xff", '
                               b'"edges": [[1, 2]]}\n',
    "edges under trace": b'{"op": "ingest", "tenant": "t", '
                         b'"trace": {"edges": [[1, 2]]}}\n',
    "no edges": b'{"op": "ping"}\n',
    "empty object": b"{}\n",
    "bad rest": b'{"edges": [[1, 2]], "op": ingest}\n',
    "unquoted key": b'{"edges": [[1, 2]], op: "ingest"}\n',
    "comma first": b'{, "edges": [[1, 2]]}\n',
    "NaN end": ingest("[[NaN, 2]]"),
    "minus alone": ingest("[[-, 2]]"),
    "UTF-16": '{"edges": [[1, 2]]}'.encode("utf-16-le"),
}


@pytest.mark.parametrize("name", sorted(DECLINED))
def test_declined(name, tier):
    assert_decodes_as_defined(DECLINED[name], tier, taken=False)


def test_errors_name_the_original_offsets(tier):
    """A rest that does not parse is re-read whole: the offsets in the
    error are the line's, not the shortened line's."""
    line = DECLINED["bad rest"]
    with pytest.raises(json.JSONDecodeError) as error:
        _decode_request(line)
    assert error.value.pos == line.index(b"ingest}")


# ---------------------------------------------------------------------------
# The kernel's own bounds
# ---------------------------------------------------------------------------

def scan(buffer, length, cap):
    ffi, lib = _kernels.load()
    rows = np.full((cap + 1, 2), -7, dtype=np.int64)
    span = ffi.new("int64_t[2]")
    n = lib.kern_scan_edges(ffi.from_buffer("uint8_t[]", buffer), length,
                            ffi.from_buffer("int64_t[]", rows), cap, span)
    return n, rows, tuple(span)


def test_kernel_cap_and_length():
    """No more than ``cap`` pairs, no byte read past ``len``: every
    prefix of a line that stops before its closing brace declines, even
    when the bytes that would complete it follow in memory."""
    if _kernels.load() is None:
        pytest.skip("the compiled kernels do not load here")
    line = b'{"op": "ingest", "edges": [[1, 2], [-3, 40]], "seq": 5}\n'
    n, rows, span = scan(line, len(line), 2)
    assert n == 2 and rows[:2].tolist() == [[1, 2], [-3, 40]]
    assert line[span[0]:span[1]] == b"[[1, 2], [-3, 40]]"
    n, rows, _ = scan(line, len(line), 1)
    assert n == -1 and rows[1].tolist() == [-7, -7]
    closing = line.rindex(b"}")
    for length in range(closing + 1):
        assert scan(line, length, 2)[0] == -1, line[:length]
    assert scan(line, closing + 1, 2)[0] == 2


# ---------------------------------------------------------------------------
# Over a socket: every response line is the same on both tiers
# ---------------------------------------------------------------------------

def socket_lines():
    lines = [b'{"op": "open", "tenant": "t", "algorithm": "hdrf", '
             b'"partitions": 4}\n']
    for seq in (1, 2, 3):
        lines.append(json.dumps({
            "op": "ingest", "tenant": "t", "seq": seq, "id": seq,
            "edges": [[seq * i % 97, (seq + i) * 7 % 89]
                      for i in range(40 * seq)]}).encode() + b"\n")
    lines.append(lines[-1])  # a retried batch: answered from the cache
    lines.extend(line if line.endswith(b"\n") else line + b"\n"
                 for _, line in sorted(DECLINED.items())
                 if b"\n" not in line.rstrip(b"\n"))
    lines.append(b'{"op": "query", "tenant": "t", "edge": [1, 7]}\n')
    lines.append(b'{"op": "finalize", "tenant": "t"}\n')
    return lines


def responses(lines):
    """The daemon's response lines to ``lines``, one request at a time."""
    ready = threading.Event()
    box = {}

    def on_ready(service):
        box["port"] = service.port
        ready.set()

    thread = threading.Thread(target=run_service, kwargs=dict(
        port=0, max_tenants=2, ready_callback=on_ready), daemon=True)
    thread.start()
    assert ready.wait(10), "daemon did not come up"
    answers = []
    with socket.create_connection(("127.0.0.1", box["port"]),
                                  timeout=10) as sock:
        reader = sock.makefile("rb")
        for line in lines:
            sock.sendall(line)
            answers.append(reader.readline())
    with ServiceClient(port=box["port"]) as client:
        client.shutdown()
    thread.join(10)
    return answers


def test_socket_lines_identical_on_both_tiers(monkeypatch):
    if _kernels.load() is None:
        pytest.skip("the compiled kernels do not load here")
    lines = socket_lines()
    compiled = responses(lines)
    monkeypatch.setattr(_kernels, "_loaded", None)
    assert responses(lines) == compiled
    assert len(compiled) == len(lines)
    assert all(json.loads(answer)["ok"] for answer in compiled[:5])
    assert b'"replayed": true' in compiled[4]


# ---------------------------------------------------------------------------
# The cases above catch what they are aimed at: C mutants
# ---------------------------------------------------------------------------

MUTANTS = {
    "a leading zero accepted": (
        "if (i == first || (s[first] == '0' && i - first > 1))",
        "if (i == first)"),
    "no int64 bound": (
        "if (magnitude > (limit - digit) / 10)\n            return -1;\n",
        ""),
    "the first of two edges keys taken": (
        "if (edges && n >= 0)\n            return -1;",
        "if (edges && n >= 0)\n            edges = 0;"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_caught(name, tmp_path, monkeypatch):
    if _kernels.load() is None:
        pytest.skip("the compiled kernels do not load here")
    load_mutant(MUTANTS[name], tmp_path, monkeypatch)
    with pytest.raises(AssertionError):
        for case in sorted(DECLINED):
            test_declined(case, "compiled")
