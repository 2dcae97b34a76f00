"""JSONL run transcripts: canonical serialization, hashing, file round-trip.

A transcript is one header line followed by one line per recorded event.
Lines are canonical JSON (sorted keys, no whitespace, ASCII) so equal runs
produce byte-equal files. The transcript hash covers every byte after the
header line; an empty body hashes to SHA-256 of nothing.
"""

from __future__ import annotations

import hashlib
import json

SCHEMA_VERSION = 1


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class Transcript:
    def __init__(self, header: dict):
        self.header = dict(header)
        self.lines: list[str] = []

    def add(self, obj: dict) -> None:
        self.lines.append(canonical_json(obj))

    def body_bytes(self) -> bytes:
        return "".join(line + "\n" for line in self.lines).encode("utf-8")

    def body_hash(self) -> bytes:
        return hash_body_lines(self.lines)

    def text(self) -> str:
        return canonical_json(self.header) + "\n" + self.body_bytes().decode("utf-8")

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.text())

    def iter_events(self):
        for line in self.lines:
            yield json.loads(line)


def load_lines(path: str) -> tuple[dict, list[str]]:
    """Header dict plus raw body lines, exactly as stored (no reserialization)."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    lines = raw.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError("empty transcript file")
    header = json.loads(lines[0])
    return header, lines[1:]


def hash_body_lines(body_lines: list[str]) -> bytes:
    return hashlib.sha256(
        "".join(line + "\n" for line in body_lines).encode("utf-8")
    ).digest()
