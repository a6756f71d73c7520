"""Review corpus schema and JSON-lines I/O.

One review per line:

    {"review_id": "...", "product_id": "...", "stars": 1-5, "text": "...",
     "parse_ids": ["<review_id>.0", ...],
     "gold_emotion": "joy",                      # optional, with gold_cause
     "gold_cause": {"sentence_index": 0, "start": 3, "end": 7}}

Gold fields are present together or absent together.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .embeddings import EMOTIONS
from .errors import DataError


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # JSON true is not 1


@dataclass(frozen=True)
class GoldCause:
    sentence_index: int
    start: int
    end: int


@dataclass(frozen=True)
class ReviewRecord:
    review_id: str
    product_id: str
    stars: int
    text: str
    parse_ids: tuple
    gold_emotion: str | None = None
    gold_cause: GoldCause | None = None

    def __post_init__(self):
        if not self.review_id:
            raise DataError("review_id must be nonempty")
        if not _is_int(self.stars) or not 1 <= self.stars <= 5:
            raise DataError(f"stars must be an integer in [1, 5], got {self.stars!r}")
        if (self.gold_emotion is None) != (self.gold_cause is None):
            raise DataError("gold_emotion and gold_cause must be present together")
        if self.gold_emotion is not None and self.gold_emotion not in EMOTIONS:
            raise DataError(f"unknown gold emotion {self.gold_emotion!r}")
        cause = self.gold_cause
        if cause is not None and not 0 <= cause.sentence_index < len(self.parse_ids):
            raise DataError(f"gold_cause sentence_index {cause.sentence_index} is not an index "
                            f"into the {len(self.parse_ids)} parse_ids")
        if cause is not None and not 0 <= cause.start <= cause.end:
            raise DataError(f"gold_cause span {cause.start}..{cause.end} does not satisfy "
                            "0 <= start <= end")

    def to_json_obj(self) -> dict:
        obj = {
            "review_id": self.review_id,
            "product_id": self.product_id,
            "stars": self.stars,
            "text": self.text,
            "parse_ids": list(self.parse_ids),
        }
        if self.gold_emotion is not None:
            obj["gold_emotion"] = self.gold_emotion
            obj["gold_cause"] = {
                "sentence_index": self.gold_cause.sentence_index,
                "start": self.gold_cause.start,
                "end": self.gold_cause.end,
            }
        return obj


def _record_from_obj(obj: dict, where: str) -> ReviewRecord:
    required = ("review_id", "product_id", "stars", "text", "parse_ids")
    for key in required:
        if key not in obj:
            raise DataError(f"{where}: missing field {key!r}")
    for key in ("review_id", "product_id", "text"):
        if not isinstance(obj[key], str):
            raise DataError(f"{where}: {key} must be a string, got {obj[key]!r}")
    parse_ids = obj["parse_ids"]
    if not isinstance(parse_ids, list) or not all(isinstance(p, str) for p in parse_ids):
        raise DataError(f"{where}: parse_ids must be a list of strings, got {parse_ids!r}")
    # json.loads turns an escape such as \udc80 into a lone surrogate, which
    # no UTF-8 output (a report, a clause listing) can encode
    fields = [(key, obj[key]) for key in ("review_id", "product_id", "text")]
    for key, value in fields + [("parse_ids", p) for p in parse_ids]:
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as err:
            raise DataError(f"{where}: {key} is not valid UTF-8: lone surrogate "
                            f"{value[err.start]!r} at index {err.start}") from None
    raw_cause = obj.get("gold_cause")
    gold_cause = None
    if raw_cause is not None:
        keys = ("sentence_index", "start", "end")
        if not isinstance(raw_cause, dict) or not all(_is_int(raw_cause.get(k)) for k in keys):
            raise DataError(f"{where}: malformed gold_cause")
        gold_cause = GoldCause(*(raw_cause[k] for k in keys))
    try:
        return ReviewRecord(
            review_id=obj["review_id"],
            product_id=obj["product_id"],
            stars=obj["stars"],
            text=obj["text"],
            parse_ids=tuple(parse_ids),
            gold_emotion=obj.get("gold_emotion"),
            gold_cause=gold_cause,
        )
    except DataError as err:
        raise DataError(f"{where}: {err}") from None


def load_corpus(path) -> list[ReviewRecord]:
    records = []
    seen = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as err:
                # besides malformed JSON (JSONDecodeError, a ValueError): an
                # integer past Python's digit limit, nesting past the
                # recursion limit
                why = err.msg if isinstance(err, json.JSONDecodeError) else str(err)
                raise DataError(f"{path}:{lineno}: invalid JSON ({why})") from None
            if not isinstance(obj, dict):
                raise DataError(f"{path}:{lineno}: record must be a JSON object")
            record = _record_from_obj(obj, f"{path}:{lineno}")
            if record.review_id in seen:
                raise DataError(f"{path}:{lineno}: duplicate review_id "
                                f"{record.review_id!r} (first seen on line "
                                f"{seen[record.review_id]})")
            seen[record.review_id] = lineno
            records.append(record)
    return records


def save_corpus(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record.to_json_obj(), sort_keys=True) + "\n")
