"""A differential net for the reply reader: ``inference._Connection._reply``,
the package's own HTTP/1.1 reader, against the standard library's
``http.client.HTTPResponse``, both over the same bytes in memory.

On generated replies: where both readers accept a reply they agree on its
status and body, and where either refuses it the package raises only
``OSError`` (a framing fault) or ``MalformedResponse`` (a body over the cap).
The generator leaves out the constructs that both readers accept but read
differently. Those, and the malformed framing that only ``http.client``
accepts, are explicit cases in ``DIVERGENCES``, each with its reason. Replies
generated well-formed must be read by both, and by the package to their last
byte, so that the next reply on the connection starts where they end.
"""

from __future__ import annotations

import http.client
import io
import time

import pytest
from hypothesis import given, settings, strategies as st

from mtpipe.inference import EndpointConfig, MalformedResponse, _Connection

_CFG = EndpointConfig(base_url="http://127.0.0.1:1", model_name="m")


def ours(reply: bytes):
    """(status, body) as the package reads ``reply``, or what it raises."""
    conn = _Connection(_CFG)
    conn.reader = io.BufferedReader(io.BytesIO(reply))
    try:
        return conn._reply()
    except Exception as exc:
        return exc


class _Socket:
    def __init__(self, reply: bytes):
        self.reply = reply

    def makefile(self, mode: str):
        return io.BufferedReader(io.BytesIO(self.reply))


def theirs(reply: bytes):
    """(status, body) as ``http.client`` reads ``reply``, or what it raises."""
    response = http.client.HTTPResponse(_Socket(reply), method="POST")
    try:
        response.begin()
        return response.status, response.read()
    except Exception as exc:
        return exc


_EOL = st.sampled_from([b"\r\n", b"\n"])
_OWS = st.sampled_from([b"", b" ", b"\t", b"  "])
_STATUS = st.sampled_from([200, 201, 204, 304, 400, 404, 429, 500, 503]) | st.integers(200, 999)


def _mostly(usual: list[bytes], odd: list[bytes]):
    """One of ``usual`` seven times in eight, else one of ``odd``."""
    return st.integers(0, 7).flatmap(lambda k: st.sampled_from(usual if k else odd))


def _length_values(n: int):
    """Content-Length values for an n-byte payload: right, off by a few, or malformed."""
    return _mostly([b"%d" % k for k in range(max(0, n - 2), n + 3)] + [b"00%d" % n],
                   [b"+%d" % n, b"-1", b"0x10", b"", b"%d, %d" % (n, n), b"abc", b"16777217",
                    b"9" * 30])


@st.composite
def _replies(draw) -> bytes:
    def field(name: bytes, value: bytes, trailing_ows: bool = True) -> bytes:
        name = draw(st.sampled_from([name, name.lower(), name.upper()]))
        return (name + b":" + draw(_OWS) + value + (draw(_OWS) if trailing_ows else b"")
                + draw(_EOL))

    def fillers(most: int) -> list[bytes]:
        return draw(st.lists(st.sampled_from([
            (b"Connection", b"close"), (b"Connection", b"keep-alive"), (b"Server", b"stub/1.0"),
            (b"X-Filler", b"a: b; c=d"), (b"Date", b"Tue, 01 Jan 2030 00:00:00 GMT"),
        ]).map(lambda nv: field(*nv)), max_size=most))

    reply = b""
    for _ in range(draw(st.integers(0, 2))):  # interim replies: 100 only, see DIVERGENCES
        reply += b"HTTP/1.1 100 Continue" + draw(_EOL) + b"".join(fillers(1)) + draw(_EOL)
    status = draw(_STATUS)
    reply += draw(_mostly([b"HTTP/1.1 %d OK" % status, b"HTTP/1.0 %d" % status,
                           b"HTTP/1.9 %d Too Many Requests" % status],
                          [b"HTTP/1.1  200 OK", b"HTTP/2 200 OK", b"HTTP/1.1 20",
                           b"HTTP/1.1 200OK", b"ICY 200 OK", b"http/1.1 200 OK", b""]))
    reply += draw(_EOL)

    payload = draw(st.binary(max_size=48))
    # A 204 or 304 has no body, however it is framed: see DIVERGENCES.
    framing = draw(st.sampled_from(["length", "close"] + ["chunked"] * (status not in (204, 304))))
    fields = fillers(3)
    if framing == "chunked":
        coding = draw(st.sampled_from([b"chunked", b"Chunked", b"CHUNKED"]))
        fields.append(field(b"Transfer-Encoding", coding, trailing_ows=False))
    elif draw(st.booleans()):  # another coding, so the body ends at the close
        coding = draw(st.sampled_from([b"identity", b"gzip, chunked"]))
        fields.append(field(b"Transfer-Encoding", coding))
    if framing != "close" or draw(st.booleans()):
        fields += [field(b"Content-Length", draw(_length_values(len(payload))))
                   for _ in range(draw(st.integers(1, 2)))]
    reply += b"".join(draw(st.permutations(fields))) + draw(_EOL)

    if framing == "chunked":
        rest = payload
        while rest:
            size = draw(st.integers(1, len(rest)))
            form = draw(_mostly([b"%x", b"%X", b"00%x", b"%x "], [b"+%x", b"0x%x", b"%d0"]))
            ext = draw(st.sampled_from([b"", b";a=b", b" ;x"]))
            end = draw(_mostly([b"\r\n"], [b"\n", b"XY", b""]))
            reply += form % size + ext + draw(_EOL) + rest[:size] + end
            rest = rest[size:]
        trailer = fillers(2) if draw(st.booleans()) else []
        reply += b"0" + draw(_EOL) + b"".join(trailer) + draw(_EOL)
    else:
        reply += payload
    reply += draw(st.binary(max_size=8))  # what follows the reply on the connection
    if draw(st.integers(0, 3)):
        return reply
    return reply[:draw(st.integers(0, len(reply)))]  # the connection closed early


@settings(derandomize=True, max_examples=500, deadline=None)
@given(reply=_replies())
def test_the_reply_reader_agrees_with_http_client(reply):
    got, expected = ours(reply), theirs(reply)
    if isinstance(got, Exception):
        assert isinstance(got, (OSError, MalformedResponse)), repr(got)
    else:
        assert got == expected


@st.composite
def _well_formed(draw) -> tuple[bytes, int, bytes]:
    """A reply every reader must accept, with its status and body."""
    eol = draw(_EOL)
    reply = b"HTTP/1.1 100 Continue" + eol + eol if draw(st.booleans()) else b""
    status, body = draw(st.sampled_from([200, 201, 400, 429, 500, 503])), draw(st.binary(max_size=48))
    reply += b"HTTP/1.1 %d Some Reason" % status + eol + b"Server: stub" + eol
    if draw(st.booleans()):
        reply += b"Content-Length:" + draw(_OWS) + b"%d" % len(body) + draw(_OWS) + eol + eol + body
        return reply, status, body
    reply += b"Transfer-Encoding:" + draw(_OWS) + b"chunked" + eol + eol
    rest = body
    while rest:
        size = draw(st.integers(1, len(rest)))
        ext = draw(st.sampled_from([b"", b";a=b", b";x"]))
        reply += b"%x" % size + ext + eol + rest[:size] + b"\r\n"
        rest = rest[size:]
    trailer = b"X-Trailer: t" + eol if draw(st.booleans()) else b""
    return reply + b"0" + eol + trailer + eol, status, body


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=_well_formed())
def test_a_well_formed_reply_is_read_by_both(case):
    reply, status, body = case
    assert ours(reply) == theirs(reply) == (status, body)
    conn = _Connection(_CFG)  # kept alive, the next reply starts where this one ends
    conn.reader = io.BufferedReader(io.BytesIO(reply * 2))
    assert [conn._reply(), conn._reply()] == [(status, body)] * 2


_CL = b"HTTP/1.1 200 OK\r\nContent-Length: %s\r\n\r\nabcdef"
_CHUNKED = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n%s0\r\n\r\n"

# (reply, what the package reads, what http.client reads); an exception class
# stands for an exception of exactly that class.
DIVERGENCES = {
    # RFC 9110 8.6: Content-Length is 1*DIGIT. http.client parses it with
    # int(), which takes a sign, and reads to the close when int() refuses it
    # or gives a negative; the package refuses all three as a framing fault.
    "content-length-plus": (_CL % b"+3", OSError, (200, b"abc")),
    "content-length-minus-one": (_CL % b"-1", OSError, (200, b"abcdef")),
    "content-length-hex": (_CL % b"0x10", OSError, (200, b"abcdef")),
    # RFC 9110 5.5: a field value excludes trailing whitespace; http.client
    # compares the raw value with "chunked".
    "transfer-encoding-trailing-space":
        (_CHUNKED.replace(b"chunked", b"chunked ") % b"3\r\nabc\r\n", (200, b"abc"),
         (200, b"3\r\nabc\r\n0\r\n\r\n")),
    # RFC 9112 5: a field line is field-name ":" OWS field-value OWS.
    # http.client's header parser ends the head at a line with no colon and
    # keeps no field after it; the package refuses the line.
    "line-without-colon":
        (b"HTTP/1.1 200 OK\r\nbogus\r\nContent-Length: 3\r\n\r\nabcdef", OSError,
         (200, b"abcdef")),
    # RFC 9112 5.2: a line that starts with whitespace continues the field
    # before it (obs-fold), and a recipient rejects it or unfolds it.
    # http.client joins it on, so the length reads "3 x" and is dropped, or a
    # folded-in "Content-Length" is no field; the package refuses the line.
    "obs-fold-into-content-length":
        (b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n x\r\n\r\nabcdef", OSError, (200, b"abcdef")),
    "obs-fold-of-content-length":
        (b"HTTP/1.1 200 OK\r\nX-Note: a\r\n Content-Length: 3\r\n\r\nabcdef", OSError,
         (200, b"abcdef")),
    # RFC 9112 5.1: no whitespace is allowed between a field name and its
    # colon, and such a message is rejected. http.client keeps the space in
    # the name, so the field is no Content-Length; the package refuses the line.
    "space-before-colon":
        (b"HTTP/1.1 200 OK\r\nContent-Length : 3\r\n\r\nabcdef", OSError, (200, b"abcdef")),
    # RFC 9112 2.2, 5: a head ends with a blank line. http.client takes the
    # close for the end of the head and of an empty body; the package reads
    # the close mid-head as a cut-off reply, which is retried.
    "head-cut-off-after-status-line": (b"HTTP/1.1 200 OK\r\n", OSError, (200, b"")),
    # RFC 9110 15.2: a client reads any number of 1xx replies before the final
    # one. http.client skips 100 only and returns any other 1xx as final.
    "interim-103":
        (b"HTTP/1.1 103 Early Hints\r\n\r\n" + _CL % b"3", (200, b"abc"), (103, b"")),
    # RFC 9110 15.3.5, 15.4.5: a 204 or 304 ends at its head; http.client
    # still reads a chunked body after one.
    "no-content-chunked":
        (_CHUNKED.replace(b"200 OK", b"204 No Content") % b"3\r\nabc\r\n", (204, b""),
         (204, b"abc")),
    # RFC 9112 7.1: a chunk size is 1*HEXDIG and its data ends with CRLF.
    # http.client parses the size with int(..., 16), which takes a sign, a 0x
    # prefix and whitespace around it, and discards the two bytes after the
    # data unread.
    "chunk-size-plus": (_CHUNKED % b"+3\r\nabc\r\n", OSError, (200, b"abc")),
    "chunk-size-0x": (_CHUNKED % b"0x3\r\nabc\r\n", OSError, (200, b"abc")),
    "chunk-size-leading-space": (_CHUNKED % b" 3\r\nabc\r\n", OSError, (200, b"abc")),
    "chunk-data-without-crlf": (_CHUNKED % b"3\r\nabcXY", OSError, (200, b"abc")),
}


@pytest.mark.parametrize("reply, by_us, by_http_client",
                         [pytest.param(*case, id=name) for name, case in DIVERGENCES.items()])
def test_each_known_divergence_from_http_client(reply, by_us, by_http_client):
    got = ours(reply)
    if isinstance(by_us, type):
        assert type(got) is by_us, repr(got)
    else:
        assert got == by_us
    assert theirs(reply) == by_http_client


def test_a_head_line_of_blanks_is_refused_in_linear_time():
    # A field value holds blanks between its visible runs. A line of 65,000
    # blanks that ends in a NUL must not make the grammar try each split of them.
    started = time.monotonic()
    assert type(ours(b"HTTP/1.1 200 OK\r\nX:" + b" " * 65000 + b"\x00\r\n\r\n")) is OSError
    assert time.monotonic() - started < 1.0
