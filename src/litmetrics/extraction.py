"""Deterministic text utilities plus LLM-orchestrated extraction of captions,
review features, and section-position statistics.

Inputs are pre-extracted structured text (title, abstract, TOC, section
bodies) in a plain ingest format with ``# SECTION:`` markers; no PDF or OCR
handling happens here. All LLM calls go through the ``LlmBackend`` protocol,
so the deterministic stub makes every operation a pure function.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Optional, Sequence

from .errors import MalformedResponse, ParseError
from .retrieval import LlmBackend
from .snapshot import FeatureVector
from .values import FRESH, Frozen, Value

MAX_CHUNK_CHARS = 400

_CAPTION_KEY_TERMS = re.compile(r"\b(fig|figure|tab|table)\b", re.IGNORECASE)
_CODE_FENCE = re.compile(r"^```[a-zA-Z]*\n|\n?```$")


class Chunk(Frozen):
    _fields = ("text", "oversized")

    def __init__(self, text: str, oversized: bool = False) -> None:
        vars(self).update(text=text, oversized=oversized)


def chunk_text(text: str) -> list[Chunk]:
    """Pack newline-delimited lines into non-overlapping chunks of <= 400 chars.

    Greedy packing: a line joins the current chunk if the joined length stays
    within the limit, otherwise it starts a new chunk. A single line longer
    than the limit becomes its own chunk, flagged oversized. Joining the
    chunk texts with a newline restores the input exactly.
    """
    if text == "":
        return []
    chunks: list[Chunk] = []
    current: Optional[str] = None
    for line in text.split("\n"):
        if current is None:
            current = line
        elif len(current) + 1 + len(line) <= MAX_CHUNK_CHARS:
            current = current + "\n" + line
        else:
            chunks.append(Chunk(current, oversized=len(current) > MAX_CHUNK_CHARS))
            current = line
    chunks.append(Chunk(current, oversized=len(current) > MAX_CHUNK_CHARS))
    return chunks


def filter_caption_chunks(chunks: Sequence[Chunk]) -> list[Chunk]:
    """Keep chunks mentioning figure/table key terms (word-boundary match).

    Intentionally superset-safe: false positives are resolved by the LLM
    step, so only recall matters here.
    """
    return [c for c in chunks if _CAPTION_KEY_TERMS.search(c.text)]


def section_positions(
    section_titles: Sequence[str], keywords: Sequence[str]
) -> dict[str, list[float]]:
    """Normalized positions of keyword-matching section titles.

    Keywords are lowercased and deduplicated preserving order; the title at
    index i contributes i/(n-1) to every keyword it contains (case-insensitive
    substring match). A single-title document contributes position 0.0.
    """
    cleaned: list[str] = []
    for kw in keywords:
        kw = kw.strip().lower()
        if kw and kw not in cleaned:
            cleaned.append(kw)
    positions: dict[str, list[float]] = {kw: [] for kw in cleaned}
    n = len(section_titles)
    for i, title in enumerate(section_titles):
        lowered = title.lower()
        pos = 0.0 if n == 1 else i / (n - 1)
        for kw in cleaned:
            if kw in lowered:
                positions[kw].append(pos)
    return positions


# ---------------------------------------------------------------------------
# structured-text ingest format
# ---------------------------------------------------------------------------


class StructuredDocument(Value):
    """Pre-extracted review content: title, abstract, TOC, section bodies."""

    _fields = ("title", "abstract", "toc", "sections")

    def __init__(self, title: str = "", abstract: str = "", toc: list[str] = FRESH,
                 sections: list[tuple[str, str]] = FRESH) -> None:
        self.title = title
        self.abstract = abstract
        self.toc = [] if toc is FRESH else toc
        self.sections = [] if sections is FRESH else sections

    @property
    def section_titles(self) -> list[str]:
        return self.toc if self.toc else [t for t, _ in self.sections]

    @property
    def intro(self) -> str:
        for title, body in self.sections:
            if "introduction" in title.lower():
                return body
        return self.sections[0][1] if self.sections else ""

    @property
    def body_text(self) -> str:
        return "\n".join(body for _, body in self.sections)


def parse_structured_text(text: str) -> StructuredDocument:
    """Parse the plain ingest format.

    Markers, each on its own line: ``# TITLE: <t>``, ``# ABSTRACT``,
    ``# TOC`` (one section title per line), ``# SECTION: <title>`` followed
    by the section body. Unmarked leading text is ignored.
    """
    doc = StructuredDocument()
    mode = None  # None | "abstract" | "toc" | "section"
    buffer: list[str] = []
    section_title = ""

    def flush() -> None:
        nonlocal buffer
        content = "\n".join(buffer).strip()
        if mode == "abstract":
            doc.abstract = content
        elif mode == "toc":
            doc.toc = [line.strip() for line in content.splitlines() if line.strip()]
        elif mode == "section":
            doc.sections.append((section_title, content))
        buffer = []

    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("# TITLE:"):
            flush()
            mode = None
            doc.title = stripped[len("# TITLE:"):].strip()
        elif stripped == "# ABSTRACT":
            flush()
            mode = "abstract"
        elif stripped == "# TOC":
            flush()
            mode = "toc"
        elif stripped.startswith("# SECTION:"):
            flush()
            mode = "section"
            section_title = stripped[len("# SECTION:"):].strip()
        else:
            buffer.append(line)
    flush()
    return doc


def load_structured_text(path: str | Path) -> StructuredDocument:
    """The document of a UTF-8 file; ParseError for other bytes."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_structured_text(text)


# ---------------------------------------------------------------------------
# LLM-backed extraction
# ---------------------------------------------------------------------------

_EXTRACTION_SYSTEM = (
    "You extract structured facts from scholarly review papers. You answer "
    "with a single JSON object only, no prose, using exactly the keys "
    "requested."
)


def _strip_fences(raw: str) -> str:
    return _CODE_FENCE.sub("", raw.strip()).strip()


def _ask_json(llm: LlmBackend, user_text: str, keys: Sequence[str]) -> dict:
    """One JSON-constrained query with a single retry on a bad payload."""
    messages = [
        {"role": "system", "content": _EXTRACTION_SYSTEM},
        {"role": "user", "content": user_text},
    ]
    last_error: Exception | None = None
    for attempt in range(2):
        raw = llm.complete(messages)
        try:
            data = json.loads(_strip_fences(raw))
            if not isinstance(data, dict):
                raise MalformedResponse(f"expected a JSON object, got {type(data).__name__}")
            missing = [k for k in keys if k not in data]
            if missing:
                raise MalformedResponse(f"response lacks keys {missing}")
            return data
        except (json.JSONDecodeError, MalformedResponse) as exc:
            last_error = exc
            messages = messages + [
                {"role": "assistant", "content": raw},
                {
                    "role": "user",
                    "content": "That was not valid JSON with the requested keys. "
                    "Reply again with only the JSON object.",
                },
            ]
    raise MalformedResponse(str(last_error))


def _coerce_binary(value) -> int:
    if value in (0, 1):
        return int(value)
    if value in (True, False):
        return int(value)
    if isinstance(value, str) and value.strip() in ("0", "1"):
        return int(value.strip())
    raise MalformedResponse(f"expected 0/1, got {value!r}")


def extract_captions(
    chunks: Sequence[Chunk], llm: LlmBackend
) -> tuple[list[str], list[str]]:
    """Figure and table captions found in the caption-candidate chunks.

    The chunk list should already be prefiltered with
    :func:`filter_caption_chunks`. The lengths of the returned lists define
    the paper's visual-element counts. An unparseable response raises
    MalformedResponse; it is never coerced to empty lists.
    """
    if not chunks:
        return [], []
    joined = "\n---\n".join(c.text for c in chunks)
    prompt = (
        "From the text chunks below, copy out every figure caption and every "
        "table caption. Respond with JSON: "
        '{"figures": [<caption strings>], "tables": [<caption strings>]}. '
        "Chunks are separated by ---.\n\n" + joined
    )
    data = _ask_json(llm, prompt, ("figures", "tables"))
    figures = data["figures"]
    tables = data["tables"]
    if not isinstance(figures, list) or not isinstance(tables, list):
        raise MalformedResponse("figures/tables must be lists")
    return [str(c) for c in figures], [str(c) for c in tables]


def extract_features(
    title: str,
    abstract: str,
    intro: str,
    toc: Sequence[str],
    captions: Sequence[str],
    llm: LlmBackend,
) -> FeatureVector:
    """Seven binary review features, each judged from its cheapest evidence.

    Routing mirrors the cost-limited scheme: taxonomy and PRISMA compliance
    are judged from the introduction plus TOC, preliminary/application/
    discussion sections from the TOC alone, benchmarking from the extracted
    captions, and the structured-abstract check from the abstract. Absent
    evidence (empty TOC, no captions, no abstract) yields 0 without a call.
    """
    toc_lines = "\n".join(toc)

    if toc or intro:
        prompt = (
            "Does this review (a) propose an explicit taxonomy or "
            "categorization of methods, and (b) state inclusion/exclusion "
            "criteria for selecting literature (PRISMA-style)? Respond with "
            'JSON: {"taxonomy": 0 or 1, "prisma": 0 or 1}.\n\n'
            f"Title: {title}\nAbstract: {abstract}\n"
            f"Introduction: {intro}\nTable of contents:\n{toc_lines}"
        )
        data = _ask_json(llm, prompt, ("taxonomy", "prisma"))
        taxonomy = _coerce_binary(data["taxonomy"])
        prisma = _coerce_binary(data["prisma"])
    else:
        taxonomy = prisma = 0

    if toc:
        prompt = (
            "Judging only from this table of contents, does the review have "
            "(a) a preliminaries/background section, (b) a real-world "
            "applications section, (c) a discussion of challenges, "
            "limitations, or future directions? Respond with JSON: "
            '{"preliminary": 0 or 1, "application": 0 or 1, "discussion": 0 or 1}.'
            f"\n\n{toc_lines}"
        )
        data = _ask_json(llm, prompt, ("preliminary", "application", "discussion"))
        preliminary = _coerce_binary(data["preliminary"])
        application = _coerce_binary(data["application"])
        discussion = _coerce_binary(data["discussion"])
    else:
        preliminary = application = discussion = 0

    if captions:
        caption_lines = "\n".join(captions)
        prompt = (
            "Judging only from these figure and table captions, does the "
            "review quantitatively benchmark existing methods against each "
            'other? Respond with JSON: {"benchmark": 0 or 1}.'
            f"\n\n{caption_lines}"
        )
        benchmark = _coerce_binary(_ask_json(llm, prompt, ("benchmark",))["benchmark"])
    else:
        benchmark = 0

    if abstract.strip():
        prompt = (
            "Is this abstract a structured abstract, i.e. divided into "
            "labeled functional parts such as Background, Objective, "
            "Methods, Results, Conclusion? Respond with JSON: "
            '{"structured_abstract": 0 or 1}.'
            f"\n\n{abstract}"
        )
        structured = _coerce_binary(
            _ask_json(llm, prompt, ("structured_abstract",))["structured_abstract"]
        )
    else:
        structured = 0

    return FeatureVector(
        taxonomy=taxonomy,
        prisma=prisma,
        preliminary=preliminary,
        benchmark=benchmark,
        application=application,
        discussion=discussion,
        structured_abstract=structured,
    )


def extract_features_from_document(doc: StructuredDocument, llm: LlmBackend) -> FeatureVector:
    """Feature extraction for one ingest-format document, captions included."""
    candidates = filter_caption_chunks(chunk_text(doc.body_text))
    if candidates:
        figures, tables = extract_captions(candidates, llm)
        captions = figures + tables
    else:
        captions = []
    return extract_features(
        title=doc.title,
        abstract=doc.abstract,
        intro=doc.intro,
        toc=doc.section_titles,
        captions=captions,
        llm=llm,
    )
