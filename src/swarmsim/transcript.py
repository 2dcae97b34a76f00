"""JSONL run transcripts: canonical serialization, hashing, file round-trip.

A transcript is one header line followed by one line per recorded event.
Lines are canonical JSON (sorted keys, no whitespace, ASCII) so equal runs
produce byte-equal files. The transcript hash covers every byte after the
header line; an empty body hashes to SHA-256 of nothing. A run hands its
text to one sink as it goes, such as the file's `write`; a line given in
pieces, as the settlement line of a large run is, reaches it in those
pieces and is never joined. Holding the body is one more sink: a list.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Iterable
from itertools import chain
from typing import TextIO

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
    """Hashes each body line as it is added and hands its text to one sink,
    such as a file's `write`: what the sink gets concatenates to the file byte
    for byte, the header line first, then each body line with its "\n" in one
    call, or a line given in pieces as those pieces and then its "\n". Without
    a sink the transcript keeps that text in a list, and reads the body back
    from it; a streamed body is held nowhere, and reading it raises
    ValueError."""

    def __init__(self, header: dict, consume: Callable[[str], None] | None = None):
        self.header = dict(header)
        self._kept: list[str] | None = [] if consume is None else None
        self._consume = consume or self._kept.append  # the list's method, not self's
        self._consume(canonical_json(self.header) + "\n")
        self._hash = hashlib.sha256()

    def add(self, obj: dict) -> None:
        self.add_line(canonical_json(obj))

    def add_line(self, line: str) -> None:
        """Add a body line already encoded as canonical JSON."""
        text = line + "\n"
        self._hash.update(text.encode("utf-8"))
        self._consume(text)

    def add_pieces(self, pieces: Iterable[str]) -> None:
        """Add a body line given as the consecutive pieces of its canonical
        JSON. It is never joined: each piece is hashed and handed on as it
        comes, then the line's "\n"."""
        for text in chain(pieces, ("\n",)):
            self._hash.update(text.encode("utf-8"))
            self._consume(text)

    def body_hash(self) -> bytes:
        return self._hash.digest()

    @property
    def lines(self) -> list[str]:
        """The held body, one string per line without its "\n"."""
        return self.text().split("\n")[1:-1]

    def text(self) -> str:
        return "".join(self._held())

    def write(self, path: str) -> None:
        kept = self._held()  # checked first, so a streamed body writes no file
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(kept)

    def iter_events(self):
        for line in self.lines:
            yield json.loads(line)

    def _held(self) -> list[str]:
        if self._kept is None:
            raise ValueError("the transcript body was streamed, not held")
        return self._kept


def load_lines(path: str) -> TextIO:
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
