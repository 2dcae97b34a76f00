"""JSONL run transcripts: canonical serialization, hashing, file round-trip.

A transcript is one header line followed by one line per recorded event.
Lines are canonical JSON (sorted keys, no whitespace, ASCII) so equal runs
produce byte-equal files. The transcript hash covers every byte after the
header line; an empty body hashes to SHA-256 of nothing. A run can stream
its text to a sink as it goes, such as the file's `write`; a line given in
pieces, as the settlement line of a large run is, reaches it in those
pieces and is never joined.
"""

from __future__ import annotations

import hashlib
import io
import json
from collections.abc import Callable, Iterable
from itertools import chain

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
    default keeps the body in `lines`, each line without its "\n". Any other
    consumer is a text sink, such as a file's `write`: what it gets
    concatenates to the file byte for byte, the header line first, then each
    body line with its "\n" in one call, and nothing holds the body: reading
    it back raises ValueError."""

    def __init__(self, header: dict, consume: Callable[[str], None] | None = None):
        self.header = dict(header)
        self.lines: list[str] = []
        self._consume = consume
        if consume is not None:
            consume(canonical_json(self.header) + "\n")
        self._hash = hashlib.sha256()

    def add(self, obj: dict) -> None:
        self.add_line(canonical_json(obj))

    def add_line(self, line: str) -> None:
        """Add a body line already encoded as canonical JSON."""
        if self._consume is None:
            # two updates: concatenating first would copy every line once more
            self._hash.update(line.encode("utf-8"))
            self._hash.update(b"\n")
            self.lines.append(line)
        else:
            text = line + "\n"
            self._hash.update(text.encode("utf-8"))
            self._consume(text)

    def add_pieces(self, pieces: Iterable[str]) -> None:
        """Add a body line given as the consecutive pieces of its canonical
        JSON. A held line is joined once; a streamed one never is: each piece
        is hashed and handed on as it comes, then the line's "\n"."""
        if self._consume is None:
            self.add_line("".join(pieces))
            return
        for text in chain(pieces, ("\n",)):
            self._hash.update(text.encode("utf-8"))
            self._consume(text)

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
        """The file layout: each line, the header first, then "\n"."""
        for line in chain([canonical_json(self.header)], lines):
            fh.write(line)
            fh.write("\n")

    def iter_events(self):
        for line in self._held_lines():
            yield json.loads(line)

    def _held_lines(self) -> list[str]:
        if self._consume is not None:
            raise ValueError("the transcript body was streamed, not held")
        return self.lines


def load_lines(path: str) -> io.TextIOWrapper:
    """Open a stored transcript to read it exactly as stored: UTF-8, and only
    "\n" ends a line, so a "\r" stays in its line. Reading raises ValueError
    where the file is not UTF-8."""
    return open(path, "r", encoding="utf-8", newline="\n")


def hash_body_lines(body_lines: list[str]) -> bytes:
    """The body hash of lines held whole; `Transcript.add` keeps the same hash
    running line by line."""
    h = hashlib.sha256()
    for line in body_lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.digest()
