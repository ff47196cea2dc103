"""The paper record and the topic sample: the values that the clients decode
and the snapshot stores, kept apart from the clients so that a command that
only reads or writes the snapshot imports none of them."""

from __future__ import annotations

from datetime import date, datetime
from typing import Any, Optional, Sequence

from .jsonio import (canonical_json, format_date, format_timestamp, parse_date, parse_timestamp,
                     utc_now)
from .values import FRESH, Frozen, Value

# S2's relevance search serves no hit past the first 1,000 of a query
# (https://api.semanticscholar.org/api-docs/graph): the most a sample holds
S2_SEARCH_CAP = 1000
# the topic sample a TNCSI fit takes by default: the whole of that cap
DEFAULT_TOPIC_SAMPLE_K = 1000
# the threads a batch that may fetch gathers its inputs on by default
DEFAULT_WORKERS = 4


def _check_count(name: str, value: Any) -> None:
    """Raise ValueError unless ``value`` is a JSON integer, not a bool, >= 0."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative")


class PaperRecord(Value):
    """Metadata for one scholarly document.

    ``citation_count`` is None until citation data has been attached (the
    arXiv feed carries none). ``topic_keyword`` records the harvest keyword
    or an LLM-assigned topic so offline scoring needs no live keyword step.
    """

    _fields = ("canonical_id", "title", "abstract", "external_ids", "publication_date", "venue",
               "citation_count", "reference_ids", "author_count", "topic_keyword",
               "retrieved_at")

    def __init__(
        self,
        canonical_id: str,
        title: str,
        abstract: str = "",
        external_ids: dict[str, str] = FRESH,
        publication_date: Optional[date] = None,
        venue: Optional[str] = None,
        citation_count: Optional[int] = None,
        reference_ids: list[str] = FRESH,
        author_count: int = 0,
        topic_keyword: Optional[str] = None,
        retrieved_at: datetime = FRESH,
    ) -> None:
        self.canonical_id = canonical_id
        self.title = title
        self.abstract = abstract
        self.external_ids = external_ids = {} if external_ids is FRESH else external_ids
        self.publication_date = publication_date
        self.venue = venue
        self.citation_count = citation_count
        self.reference_ids = reference_ids = [] if reference_ids is FRESH else reference_ids
        self.author_count = author_count
        self.topic_keyword = topic_keyword
        self.retrieved_at = retrieved_at = utc_now() if retrieved_at is FRESH else retrieved_at
        if not (isinstance(canonical_id, str) and canonical_id):
            raise ValueError(f"canonical_id must be a non-empty string, not {canonical_id!r}")
        if not (topic_keyword is None or isinstance(topic_keyword, str)):
            raise ValueError(f"topic_keyword must be a string, not {topic_keyword!r}")
        if not (isinstance(reference_ids, list)
                and all(isinstance(rid, str) for rid in reference_ids)):
            raise ValueError("reference_ids must be a list of strings")
        # what the snapshot's text columns hold as given; a null abstract
        # would read back as ""
        for name, value in (("title", title), ("venue", venue)):
            if not (value is None or isinstance(value, str)):
                raise ValueError(f"{name} must be a string or null, not {value!r}")
        if not isinstance(abstract, str):
            raise ValueError(f"abstract must be a string, not {abstract!r}")
        if not (isinstance(external_ids, dict) and all(
                isinstance(k, str) and isinstance(v, str) for k, v in external_ids.items())):
            raise ValueError(f"external_ids must map strings to strings, not "
                             f"{external_ids!r:.200}")
        # a count must fit the snapshot's INTEGER column, a signed 64-bit integer
        _check_count("author_count", author_count)
        if author_count >= 2**63:
            raise ValueError("author_count must be below 2**63")
        if citation_count is not None:
            _check_count("citation_count", citation_count)
            if citation_count >= 2**63:
                raise ValueError("citation_count must be below 2**63")
        if publication_date is not None and publication_date > retrieved_at.date():
            raise ValueError("publication_date cannot postdate retrieval")

    def to_json_dict(self) -> dict:
        """The record as a JSON object: the form of an `export`/`import` line
        and of a cached arXiv payload. A `papers` row holds the fields as
        columns instead, with no JSON form between."""
        return {
            "canonical_id": self.canonical_id,
            "external_ids": dict(sorted(self.external_ids.items())),
            "title": self.title,
            "abstract": self.abstract,
            "publication_date": format_date(self.publication_date),
            "venue": self.venue,
            "citation_count": self.citation_count,
            "reference_ids": list(self.reference_ids),
            "author_count": self.author_count,
            "topic_keyword": self.topic_keyword,
            "retrieved_at": format_timestamp(self.retrieved_at),
        }

    def to_canonical_json(self) -> str:
        return canonical_json(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "PaperRecord":
        return cls(
            canonical_id=data["canonical_id"],
            title=data.get("title", ""),
            abstract=data.get("abstract") or "",
            external_ids=dict(data.get("external_ids") or {}),
            publication_date=parse_date(data.get("publication_date")),
            venue=data.get("venue"),
            citation_count=data.get("citation_count"),
            reference_ids=data.get("reference_ids", []),
            author_count=data.get("author_count", 0),
            topic_keyword=data.get("topic_keyword"),
            retrieved_at=parse_timestamp(data["retrieved_at"]),
        )


class TopicContext(Frozen):
    """Citation-count sample of up to k search hits for one topic keyword."""

    _fields = ("keyword", "sample_citation_counts", "k", "fetched_at", "provenance")

    def __init__(self, keyword: str, sample_citation_counts: Sequence[int], k: int,
                 fetched_at: datetime, provenance: dict = FRESH) -> None:
        sample_citation_counts = tuple(sample_citation_counts)
        vars(self).update(keyword=keyword, sample_citation_counts=sample_citation_counts, k=k,
                          fetched_at=fetched_at,
                          provenance={} if provenance is FRESH else provenance)
        if not 1 <= len(sample_citation_counts) <= k:
            raise ValueError("sample size must lie in 1..k")
