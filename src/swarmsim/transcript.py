"""JSONL run transcripts: canonical serialization, hashing, file round-trip.

A transcript is one header line followed by one line per recorded event.
Lines are canonical JSON (sorted keys, no whitespace, ASCII) so equal runs
produce byte-equal files. The transcript hash covers every byte after the
header line; an empty body hashes to SHA-256 of nothing.
"""

from __future__ import annotations

import hashlib
import io
import json
from collections.abc import Callable, Iterator
from itertools import islice

SCHEMA_VERSION = 1


# The stdlib C encoder, built once: `JSONEncoder.encode` builds a new one, with
# its closures, for every line. These are the arguments `JSONEncoder.iterencode`
# passes it for this configuration, so the output is `json.dumps(obj,
# sort_keys=True, separators=(",", ":"))` byte for byte.
_CONFIG = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)
_ENCODE = json.encoder.c_make_encoder(
    None,  # markers: no circular check
    _CONFIG.default,
    json.encoder.encode_basestring_ascii,
    _CONFIG.indent,
    _CONFIG.key_separator,
    _CONFIG.item_separator,
    _CONFIG.sort_keys,
    _CONFIG.skipkeys,
    _CONFIG.allow_nan,
)


# Array items per `canonical_json` call in `canonical_json_sliced`.
SLICE_ITEMS = 1024


def canonical_json(obj) -> str:
    return "".join(_ENCODE(obj, 0))


def canonical_json_sliced(obj: dict) -> str:
    """`canonical_json` of a dict with str keys whose iterator values are
    written as JSON arrays, `SLICE_ITEMS` items per encoder call, so only one
    slice of items is alive at a time. The pieces are joined once, at the end:
    joining each array first would copy it once more."""
    parts = ["{"]
    for key in sorted(obj):
        if len(parts) > 1:
            parts.append(",")
        parts.append(canonical_json(key))
        parts.append(":")
        value = obj[key]
        if not isinstance(value, Iterator):
            parts.append(canonical_json(value))
            continue
        parts.append("[")
        first = True
        while chunk := list(islice(value, SLICE_ITEMS)):
            if not first:
                parts.append(",")
            parts.append(canonical_json(chunk)[1:-1])
            first = False
        parts.append("]")
    parts.append("}")
    return "".join(parts)


class Transcript:
    """Hashes each body line as it is added and hands it to one consumer. The
    default consumer keeps the lines in `lines`; with any other consumer nothing
    holds the body, and reading it back raises ValueError."""

    def __init__(self, header: dict, consume: Callable[[str], None] | None = None):
        self.header = dict(header)
        self.lines: list[str] = []
        self._streamed = consume is not None
        self._consume = self.lines.append if consume is None else consume
        self._hash = hashlib.sha256()

    def add(self, obj: dict) -> None:
        self.add_line(canonical_json(obj))

    def add_line(self, line: str) -> None:
        """Add a body line already encoded as canonical JSON."""
        # two updates: concatenating first would copy every line once more
        self._hash.update(line.encode("utf-8"))
        self._hash.update(b"\n")
        self._consume(line)

    def body_hash(self) -> bytes:
        return self._hash.digest()

    def text(self) -> str:
        buf = io.StringIO()
        self._copy_to(buf, self._held_lines())
        return buf.getvalue()

    def write(self, path: str) -> None:
        lines = self._held_lines()  # checked first, so a streamed body writes no file
        with open(path, "w", encoding="utf-8") as fh:
            self._copy_to(fh, lines)

    def _copy_to(self, fh, lines: list[str]) -> None:
        write_line = stream_to(fh, self.header)
        for line in lines:
            write_line(line)

    def iter_events(self):
        for line in self._held_lines():
            yield json.loads(line)

    def _held_lines(self) -> list[str]:
        if self._streamed:
            raise ValueError("the transcript body was streamed, not held")
        return self.lines


def stream_to(fh, header: dict) -> Callable[[str], None]:
    """The file layout, in one place: write the header line to `fh` and return
    the consumer that writes each body line after it. Line by line: the joined
    text of a large run would set its peak memory."""
    fh.write(canonical_json(header) + "\n")

    def write_line(line: str) -> None:
        fh.write(line)
        fh.write("\n")

    return write_line


def load_lines(path: str):
    """Yield the header dict, then each raw body line exactly as stored, one read
    at a time; closing the generator closes the file. Raises ValueError when the
    file is empty, its header is not a JSON object, or a line is not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise ValueError("empty transcript file")
        header = json.loads(first.removesuffix("\n"))
        if not isinstance(header, dict):
            raise ValueError("header line is not a JSON object")
        yield header
        for line in fh:
            yield line.removesuffix("\n")


def hash_body_lines(body_lines: list[str]) -> bytes:
    """The body hash of lines held whole; `Transcript.add` keeps the same hash
    running line by line."""
    h = hashlib.sha256()
    for line in body_lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.digest()
