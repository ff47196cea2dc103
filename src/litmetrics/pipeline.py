"""Batch orchestration: harvest, enrich, and score papers in a snapshot."""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import date, datetime
from typing import Optional, Sequence

from .errors import EmptyResult, LitmetricsError, LlmUnavailable, UnknownPaper
from .indicators import (
    DEFAULT_BETA,
    RAD_FIT_WINDOW_MONTHS,
    ExponentialFit,
    IndicatorReport,
    RqmInputs,
    RuiWeights,
    arq,
    cdr,
    fit_exponential_mle,
    iei_average,
    iei_instantaneous,
    iei_weighted,
    median_semesters,
    rad,
    rqm,
    rui,
    tncsi,
)
from .retrieval import (
    ArxivClient,
    LlmBackend,
    PaperRecord,
    SemanticScholarClient,
    count_relevant,
    fetch_arxiv_candidates,
    fetch_monthly_citations,
    fetch_paper_record,
    fetch_references,
    fetch_topic_sample,
    llm_topic_keyword,
)
from .snapshot import SnapshotStore

ALL_INDICATORS = ("tncsi", "iei", "rqm", "rui")
IEI_WINDOW_MONTHS = 6


def months_between(earlier: date, later: date) -> int:
    """Whole calendar months from one date to another (day-of-month ignored)."""
    diff = (later.year - earlier.year) * 12 + (later.month - earlier.month)
    return max(0, diff)


def lower_median_date(dates: Sequence[date]) -> date:
    if not dates:
        raise ValueError("no dates")
    ordered = sorted(dates)
    return ordered[(len(ordered) - 1) // 2]


def api_id_for(record: PaperRecord) -> str:
    """Identifier accepted by the graph API for an already-stored record."""
    arxiv_id = record.external_ids.get("arxiv")
    if arxiv_id:
        return f"ARXIV:{arxiv_id}"
    doi = record.external_ids.get("doi")
    if doi:
        return f"DOI:{doi}"
    s2_id = record.external_ids.get("s2")
    if s2_id:
        return s2_id
    raise UnknownPaper(f"{record.canonical_id} has no API-resolvable identifier")


# ---------------------------------------------------------------------------
# harvest / enrich
# ---------------------------------------------------------------------------


def harvest(
    store: SnapshotStore, client: ArxivClient, keyword: str, limit: int = 100
) -> list[str]:
    """Query arXiv for reviews on the keyword and upsert matches into the store."""
    records = fetch_arxiv_candidates(client, keyword, limit, cache=store)
    return [store.upsert_paper(r) for r in records]


def enrich(store: SnapshotStore, client: SemanticScholarClient, paper_id: str) -> str:
    """Attach citation counts, dates, venue, and the reference list to one paper.

    The graph lookup joins on the arXiv id when present, else the DOI, else a
    title search as last resort; the join route is recorded in the stored
    external ids under ``s2_join``.
    """
    record = store.require_paper(paper_id)
    if record.external_ids.get("arxiv") or record.external_ids.get("doi"):
        lookup = api_id_for(record)
        join_key = "arxiv" if record.external_ids.get("arxiv") else "doi"
        fetched = fetch_paper_record(client, lookup, cache=store)
    else:
        page = client.search_page(record.title, 0, 1, "paperId")
        data = page.get("data") or []
        if not data:
            raise UnknownPaper(f"no search hit for title of {paper_id}")
        join_key = "title"
        fetched = fetch_paper_record(client, data[0]["paperId"], cache=store)

    references = fetch_references(client, api_id_for(fetched), cache=store)
    store.insert_new_papers(references)

    merged = PaperRecord(
        canonical_id=record.canonical_id,
        title=record.title or fetched.title,
        abstract=record.abstract or fetched.abstract,
        external_ids={**fetched.external_ids, **record.external_ids, "s2_join": join_key},
        publication_date=record.publication_date or fetched.publication_date,
        venue=fetched.venue or record.venue,
        citation_count=fetched.citation_count,
        reference_ids=[r.canonical_id for r in references],
        author_count=record.author_count or fetched.author_count,
        topic_keyword=record.topic_keyword,
        retrieved_at=fetched.retrieved_at,
    )
    return store.upsert_paper(merged)


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------


@dataclass
class ScoringEngine:
    """Computes indicator reports for stored papers.

    All remote lookups run through the snapshot cache, so a snapshot that was
    populated online can be re-scored offline and byte-identically. Each
    topic's sample is fetched and fitted once per engine, so concurrent
    workers score every paper of a topic against the same sample.

    ``records`` holds the papers and references that `load_records` read for
    the current batch; a paper it lacks is read from the store.
    """

    store: SnapshotStore
    s2: SemanticScholarClient
    llm: Optional[LlmBackend] = None
    now: Optional[date] = None
    beta: float = DEFAULT_BETA
    rui_weights: RuiWeights = field(default_factory=RuiWeights)
    topic_k: int = 1000
    # month weights for the weighted trend variant; None leaves it unset
    iei_weights: Optional[Sequence[float]] = None
    records: dict[str, PaperRecord] = field(default_factory=dict, init=False, repr=False)
    _topic_fits: dict[str, Future] = field(default_factory=dict, init=False, repr=False)
    _topic_fits_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False
    )

    def _now(self) -> date:
        return self.now or date.today()

    def topic_keyword_for(self, record: PaperRecord) -> str:
        if record.topic_keyword:
            return record.topic_keyword
        if self.llm is None:
            raise LlmUnavailable(
                f"{record.canonical_id} has no stored topic keyword and no LLM is configured"
            )
        keyword = llm_topic_keyword(record.title, record.abstract, self.llm)
        updated = PaperRecord(**{**record.__dict__, "topic_keyword": keyword})
        self.store.upsert_paper(updated)
        self.records[updated.canonical_id] = updated
        return keyword

    def load_records(
        self, paper_ids: Sequence[str], which: Sequence[str] = ALL_INDICATORS
    ) -> None:
        """Read the papers and, when RQM or RUI is wanted, the union of their
        references, one bulk read each, as the records that `score` uses."""
        records = self.store.get_papers(paper_ids)
        if {"rqm", "rui"} & set(which or ALL_INDICATORS):
            ref_ids = {rid for r in records.values() for rid in r.reference_ids}
            records.update(self.store.get_papers(ref_ids - records.keys()))
        self.records = records

    def _record(self, paper_id: str) -> Optional[PaperRecord]:
        record = self.records.get(paper_id)
        return record if record is not None else self.store.get_paper(paper_id)

    def _topic_fit(self, keyword: str) -> ExponentialFit:
        """Exponential fit of the keyword's topic sample, memoised per engine.

        The first caller for a keyword fetches and fits; concurrent callers
        wait for its outcome, which is a fit or the error it raised.
        """
        with self._topic_fits_lock:
            pending = self._topic_fits.get(keyword)
            owner = pending is None
            if owner:
                pending = self._topic_fits[keyword] = Future()
        if owner:
            try:
                pending.set_result(self._fetch_topic_fit(keyword))
            except BaseException as exc:
                pending.set_exception(exc)  # waiting workers raise it too
                raise
        return pending.result()

    def _fetch_topic_fit(self, keyword: str) -> ExponentialFit:
        try:
            context = fetch_topic_sample(self.s2, keyword, self.topic_k, cache=self.store)
        except EmptyResult as exc:
            raise EmptyResult(f"TNCSI uncomputable: {exc}") from exc
        return fit_exponential_mle(context.sample_citation_counts)

    def _reference_records(self, record: PaperRecord) -> list[PaperRecord]:
        refs = []
        for rid in record.reference_ids:
            ref = self._record(rid)
            if ref is not None:
                refs.append(ref)
        return refs

    def score(
        self, paper_id: str, which: Sequence[str] = ALL_INDICATORS
    ) -> IndicatorReport:
        record = self._record(paper_id)
        if record is None:
            raise UnknownPaper(paper_id)
        which = tuple(which) or ALL_INDICATORS
        now = self._now()
        report = IndicatorReport(computed_at=datetime(now.year, now.month, now.day))

        keyword = self.topic_keyword_for(record)
        report.topic_keyword = keyword

        fit = None
        if "tncsi" in which or "rqm" in which:
            fit = self._topic_fit(keyword)
            report.sample_size = fit.sample_size

        if "tncsi" in which:
            if record.citation_count is None:
                raise EmptyResult(
                    f"{paper_id} has no citation count; run enrich first"
                )
            report.tncsi = tncsi(record.citation_count, fit)

        if "iei" in which:
            series = fetch_monthly_citations(
                self.s2, api_id_for(record), IEI_WINDOW_MONTHS, now=now, cache=self.store
            )
            report.iei_avg = iei_average(series)
            report.iei_instant = iei_instantaneous(series)
            if self.iei_weights is not None:
                report.iei_weighted = iei_weighted(series, self.iei_weights)
            if series.dropped_undated:
                report.warnings.append(
                    f"{series.dropped_undated} undated citing papers dropped"
                )

        refs = None
        if "rqm" in which or "rui" in which:
            refs = self._reference_records(record)

        if "rqm" in which:
            cited = [r.citation_count for r in refs if r.citation_count is not None]
            if not cited:
                raise EmptyResult(f"{paper_id} has no references with citation counts")
            report.arq = arq([tncsi(c, fit) for c in cited])
            if record.publication_date is None:
                raise EmptyResult(f"{paper_id} has no publication date")
            ages = [
                months_between(r.publication_date, record.publication_date)
                for r in refs
                if r.publication_date is not None
            ]
            if not ages:
                raise EmptyResult(f"{paper_id} has no dated references")
            report.s_mp = median_semesters(ages)
            report.rqm = rqm(RqmInputs(arq=report.arq, s_mp=report.s_mp, beta=self.beta))

        if "rui" in which:
            if record.publication_date is None:
                raise EmptyResult(f"{paper_id} has no publication date")
            dated = [r.publication_date for r in refs if r.publication_date is not None]
            if not dated:
                raise EmptyResult(f"{paper_id} has no dated references")
            median_ref_date = lower_median_date(dated)
            n_mp = count_relevant(
                self.s2, keyword, median_ref_date, record.publication_date, cache=self.store
            )
            n_pc = count_relevant(
                self.s2, keyword, record.publication_date, now, cache=self.store
            )
            report.cdr = cdr(n_pc, n_mp)
            m_pc = months_between(record.publication_date, now)
            report.rad = rad(m_pc)
            if m_pc > RAD_FIT_WINDOW_MONTHS:
                report.warnings.append(
                    f"aging integral extrapolates beyond its fitted window "
                    f"({m_pc} > {RAD_FIT_WINDOW_MONTHS} months)"
                )
            report.rui = rui(report.cdr, report.rad, self.rui_weights)

        return report


@dataclass
class BatchItem:
    paper_id: str
    report: Optional[IndicatorReport] = None
    error: Optional[str] = None


def score_batch(
    engine: ScoringEngine,
    paper_ids: Sequence[str],
    which: Sequence[str] = ALL_INDICATORS,
    workers: int = 4,
    persist: bool = True,
) -> list[BatchItem]:
    """Score many papers through a bounded worker pool.

    The papers and their references are read in bulk before scoring, and the
    reports are stored in one transaction after it, so an interrupted batch
    stores none. Results keep the input order regardless of completion order;
    per-item failures are captured, never raised.
    """
    engine.load_records(paper_ids, which)

    def run(pid: str) -> BatchItem:
        try:
            report = engine.score(pid, which)
        except LitmetricsError as exc:
            return BatchItem(paper_id=pid, error=f"{type(exc).__name__}: {exc}")
        return BatchItem(paper_id=pid, report=report)

    if workers <= 1 or len(paper_ids) <= 1:
        items = [run(pid) for pid in paper_ids]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            items = list(pool.map(run, paper_ids))
    if persist:
        engine.store.store_reports(
            [(item.paper_id, item.report) for item in items if item.report is not None]
        )
    return items
