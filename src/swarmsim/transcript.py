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
from collections.abc import Callable

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


def canonical_json(obj) -> str:
    return "".join(_ENCODE(obj, 0))


class Transcript:
    """Hashes each body line as it is added and hands it to one consumer. The
    default keeps the body in `lines`; any other consumer gets the header line
    first, and nothing holds the body: reading it back raises ValueError."""

    def __init__(self, header: dict, consume: Callable[[str], None] | None = None):
        self.header = dict(header)
        self.lines: list[str] = []
        self._streamed = consume is not None
        self._consume = self.lines.append if consume is None else consume
        if self._streamed:
            consume(canonical_json(self.header))
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
        write_line = line_writer(fh)
        write_line(canonical_json(self.header))
        for line in lines:
            write_line(line)

    def iter_events(self):
        for line in self._held_lines():
            yield json.loads(line)

    def _held_lines(self) -> list[str]:
        if self._streamed:
            raise ValueError("the transcript body was streamed, not held")
        return self.lines


def line_writer(fh) -> Callable[[str], None]:
    """The file layout, in one place: the consumer that writes each line to
    `fh`, then "\n". Line by line: the joined text of a large run would set its
    peak memory."""

    def write_line(line: str) -> None:
        fh.write(line)
        fh.write("\n")

    return write_line


def load_lines(path: str):
    """Yield each line exactly as stored, the header line first, with its "\n"
    if it has one, one read at a time; closing the generator closes the file.
    Only "\n" ends a line, so a "\r" stays in its line, and only the last line
    can lack its "\n". Raises ValueError when the file is empty or a line is
    not UTF-8."""
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        first = fh.readline()
        if not first:
            raise ValueError("empty transcript file")
        yield first
        yield from fh


def hash_body_lines(body_lines: list[str]) -> bytes:
    """The body hash of lines held whole; `Transcript.add` keeps the same hash
    running line by line."""
    h = hashlib.sha256()
    for line in body_lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.digest()
