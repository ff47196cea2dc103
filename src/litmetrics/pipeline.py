"""Batch orchestration: harvest, enrich, and score papers in a snapshot."""

from __future__ import annotations

from datetime import date, datetime
from typing import Callable, Optional, Sequence

from .errors import (EmptyResult, InvalidDateRange, LitmetricsError, LlmUnavailable, ParseError,
                     UnknownPaper)
from .indicators import (
    ALL_INDICATORS,
    DEFAULT_BETA,
    RAD_FIT_WINDOW_MONTHS,
    ExponentialFit,
    IndicatorReport,
    RqmInputs,
    arq,
    cdr,
    fit_exponential_mle,
    iei_average,
    iei_instantaneous,
    median_semesters,
    rad,
    rqm,
    rui,
    tncsi,
)
from .jsonio import utc_now
from .records import DEFAULT_TOPIC_SAMPLE_K, DEFAULT_WORKERS, S2_SEARCH_CAP, PaperRecord
from .retrieval import (
    ArxivClient,
    LlmBackend,
    SemanticScholarClient,
    api_id_for,
    count_relevant,
    fetch_arxiv_candidates,
    fetch_monthly_citations,
    fetch_paper_record,
    fetch_references,
    fetch_topic_sample,
    join_route,
    llm_topic_keyword,
    merge_fetched,
    month_index,
)
from .snapshot import SnapshotStore
from .values import Value

# what RQM and RUI read of a reference: (citation_count, publication_date)
ReferenceFacts = tuple[Optional[int], Optional[date]]


def months_between(earlier: date, later: date) -> int:
    """Whole calendar months from one date to another (day-of-month ignored)."""
    return max(0, month_index(later) - month_index(earlier))


def lower_median_date(dates: Sequence[date]) -> date:
    if not dates:
        raise ValueError("no dates")
    ordered = sorted(dates)
    return ordered[(len(ordered) - 1) // 2]


def _dated_references(record: PaperRecord, refs: Sequence[ReferenceFacts]) -> list[date]:
    """The dates of the dated ``refs``, where RQM's ages and RUI's first window
    start; EmptyResult when the paper has no date or no reference has one."""
    if record.publication_date is None:
        raise EmptyResult(f"{record.canonical_id} has no publication date")
    dated = [published for _, published in refs if published is not None]
    if not dated:
        raise EmptyResult(f"{record.canonical_id} has no dated references")
    return dated


# ---------------------------------------------------------------------------
# harvest / enrich
# ---------------------------------------------------------------------------


def harvest(
    store: SnapshotStore, client: ArxivClient, keyword: str, limit: int = 100
) -> list[str]:
    """Query arXiv for reviews on the keyword and store the matches.

    A match that is not stored is inserted. A stored one keeps every field,
    its enrichment included, except that a row with no topic keyword, such as
    a reference row, takes the keyword and so becomes a review. The matches
    are written in one write, after the search payload.
    """
    records = fetch_arxiv_candidates(client, keyword, limit, cache=store)
    stored = store.get_papers(r.canonical_id for r in records)
    store.write(new_papers=records, papers=[r.replace(topic_keyword=keyword)
                                            for r in stored.values() if not r.topic_keyword])
    return [r.canonical_id for r in records]


def enrich(store: SnapshotStore, client: SemanticScholarClient, paper_id: str) -> str:
    """Attach citation counts, dates, venue, and the reference list to one paper.

    The graph lookup joins on the arXiv id when present, else the DOI, else
    the row's own Semantic Scholar id, else a title search as last resort;
    the join route is recorded in the stored external ids under ``s2_join``.
    A paper with no arXiv id, DOI, Semantic Scholar id or title,
    or a title search with no hit, raises `UnknownPaper`, the first with no
    request, and a title search whose page is not a JSON object or whose
    first hit names no ``paperId`` raises `ParseError`. The references not
    stored yet are inserted as papers of their own, and the paper keeps
    their ids.

    The paper's row is the only copy of what was fetched; nothing is cached.
    A row that holds ``s2_join`` is enriched already and is returned as it
    is, with no request and no write. The new reference rows and the paper's
    row are written in one write, the references first, so the row links
    every reference; a failed write stores none of them and leaves the paper
    without ``s2_join``, and the next call fetches again.
    """
    record = store.require_paper(paper_id)
    if "s2_join" in record.external_ids:
        return record.canonical_id
    if route := join_route(record):
        fetched = fetch_paper_record(client, route[1])
    elif not (record.title or "").strip():
        raise UnknownPaper(f"{paper_id} has no arXiv id, DOI or title to join on")
    else:
        page = client.search_page(record.title, 0, 1, "paperId")
        data = (page.get("data") or []) if isinstance(page, dict) else None
        if data == []:
            raise UnknownPaper(f"no search hit for title of {paper_id}")
        hit = data[0] if isinstance(data, list) else None
        s2_id = hit.get("paperId") if isinstance(hit, dict) else None
        if not s2_id or not isinstance(s2_id, str):
            raise ParseError(f"malformed title search for {paper_id}: no paperId in {page!r:.80}")
        fetched = fetch_paper_record(client, s2_id)

    references = fetch_references(client, api_id_for(fetched))
    merged = merge_fetched(record, fetched, [r.canonical_id for r in references])
    store.write(new_papers=references, papers=[merged])
    return merged.canonical_id


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------


def _kept(fetch, *args):
    """What ``fetch(*args)`` returns, or the library error it raises."""
    try:
        return fetch(*args)
    except LitmetricsError as exc:
        return exc


def _given(gathered):
    """A gathered input, or raise the library error kept in its place."""
    if isinstance(gathered, LitmetricsError):
        raise gathered
    return gathered


class ScoringEngine(Value):
    """Computes indicator reports for stored papers.

    All remote lookups run through the API cache, so a snapshot that was
    populated online can be re-scored offline and byte-identically. Fetched
    payloads are cached in the store, which writes them behind.

    A batch is scored as gather, then compute: `gather` reads the papers and
    fetches every input of their reports, and `score` computes one paper's
    report from them with no I/O. ``now`` defaults to today's UTC date, read
    once, so every report of the engine has one date and one IEI window.
    """

    _fields = ("store", "s2", "llm", "now", "beta", "topic_k")

    def __init__(self, store: SnapshotStore, s2: SemanticScholarClient,
                 llm: Optional[LlmBackend] = None, now: Optional[date] = None,
                 beta: float = DEFAULT_BETA, topic_k: int = DEFAULT_TOPIC_SAMPLE_K) -> None:
        self.store = store
        self.s2 = s2
        self.llm = llm
        self.now = now or utc_now().date()
        self.beta = beta
        self.topic_k = topic_k
        self.which = ALL_INDICATORS
        self.records: dict[str, PaperRecord] = {}
        self.references: dict[str, ReferenceFacts] = {}
        # the records whose keyword the LLM assigned, for the batch's write
        self.assigned: list[PaperRecord] = []
        # what `gather` fetched, each the value or the library error its fetch
        # raised: (keyword, citation series, reference facts, RUI counts) by
        # paper id, fits by keyword
        self._inputs: dict[str, tuple] = {}
        self._fits: dict[str, object] = {}

    def topic_keyword_for(self, record: PaperRecord) -> str:
        if record.topic_keyword:
            return record.topic_keyword
        if self.llm is None:
            raise LlmUnavailable(
                f"{record.canonical_id} has no stored topic keyword and no LLM is configured"
            )
        keyword = llm_topic_keyword(record.title, record.abstract, self.llm)
        updated = record.replace(topic_keyword=keyword)
        self.records[updated.canonical_id] = updated
        self.assigned.append(updated)
        return keyword

    def gather(self, paper_ids: Sequence[str], which: Sequence[str] = ALL_INDICATORS,
               each: Callable = map) -> None:
        """Read the papers and fetch what `score` needs of them for ``which``
        (every indicator when empty), in place of what the last call kept.

        One bulk read, whatever ``which`` is, takes the papers into
        ``records`` and the `ReferenceFacts` of every stored paper their
        reference lists name into ``references``. Two stages then run through
        ``each`` (``map`` or a pool's). Stage 1, `_gather_paper`, takes each
        paper's keyword, reference facts, citation series and RUI counts;
        stage 2 fits each keyword not fitted yet when TNCSI or RQM is wanted.
        A library error is kept in place of its input, for `score` to raise
        where it uses it; any other propagates. Only the fetched payloads are
        written: a record whose keyword the LLM assigned is kept in
        ``assigned``, for the caller's write."""
        # first, so a read that raises leaves no record of the last batch to write
        self._inputs, self.assigned = {}, []
        self.which = which = tuple(which) or ALL_INDICATORS
        self.records, self.references = self.store.get_papers_and_reference_facts(paper_ids)
        gathered = list(each(self._gather_paper, paper_ids))
        if "tncsi" in which or "rqm" in which:
            topics = [kw for kw in dict.fromkeys(kw for kw, *_ in gathered)
                      if isinstance(kw, str) and kw not in self._fits]
            self._fits.update(zip(topics, each(lambda kw: _kept(self._fetch_topic_fit, kw),
                                               topics)))
        self._inputs = dict(zip(paper_ids, gathered))

    def _gather_paper(self, paper_id: str) -> tuple:
        """Stage 1 of `gather` for one paper: (keyword, citation series,
        reference facts, RUI counts), None in place of what is not taken. The
        facts, of its stored references in reference order, are looked up in
        ``references`` alone. Nothing is fetched for an unknown paper, a paper
        published after ``now`` (`InvalidDateRange`, which fails every
        indicator and asks no keyword of the LLM) or a failed keyword; no
        series when IEI is not wanted or, when TNCSI is, for a paper with no
        citation count; no counts when RUI is not wanted. The series and the
        counts are each fetched whether or not the other, or the paper's topic
        fit, fails."""
        record = self.records.get(paper_id)
        if record is None:
            return UnknownPaper(paper_id), None, None, None
        published = record.publication_date
        if published is not None and published > self.now:
            return InvalidDateRange(f"{paper_id} was published on {published}, "
                                    f"after now ({self.now})"), None, None, None
        keyword = _kept(self.topic_keyword_for, record)
        refs = [self.references[rid] for rid in record.reference_ids if rid in self.references]
        if isinstance(keyword, LitmetricsError):
            return keyword, None, refs, None
        which, series, counts = self.which, None, None
        if "iei" in which and not ("tncsi" in which and record.citation_count is None):
            series = _kept(lambda: fetch_monthly_citations(
                self.s2, api_id_for(record), now=self.now, cache=self.store))
        if "rui" in which:
            counts = _kept(self._fetch_counts, record, keyword, refs)
        return keyword, series, refs, counts

    def _fetch_topic_fit(self, keyword: str) -> ExponentialFit:
        try:
            context = fetch_topic_sample(self.s2, keyword, self.topic_k, cache=self.store)
        except EmptyResult as exc:
            raise EmptyResult(f"TNCSI uncomputable: {exc}") from exc
        return fit_exponential_mle(context.sample_citation_counts)

    def _fetch_counts(self, record: PaperRecord, keyword: str,
                      refs: list[ReferenceFacts]) -> tuple:
        """The paper's two RUI counts: the relevant papers published from its
        references' lower-median date to its own, and from its own to now.
        None is fetched for a paper with no publication date or no dated
        reference."""
        median = lower_median_date(_dated_references(record, refs))
        published = record.publication_date
        return (count_relevant(self.s2, keyword, median, published, cache=self.store),
                count_relevant(self.s2, keyword, published, self.now, cache=self.store))

    def score(self, paper_id: str) -> IndicatorReport:
        """One paper's report for the indicators `gather` was given, computed
        from what it gathered, with no I/O; KeyError for a paper it did not
        gather."""
        keyword, series, refs, counts = self._inputs[paper_id]
        keyword = _given(keyword)
        record = self.records[paper_id]
        which, now = self.which, self.now
        report = IndicatorReport(computed_at=datetime(now.year, now.month, now.day))
        report.topic_keyword = keyword

        fit = None
        if "tncsi" in which or "rqm" in which:
            fit = _given(self._fits[keyword])
            report.sample_size = fit.sample_size

        if "tncsi" in which:
            if record.citation_count is None:
                raise EmptyResult(f"{paper_id} has no citation count; run enrich first")
            report.tncsi = tncsi(record.citation_count, fit)

        if "iei" in which:
            series = _given(series)
            report.iei_avg = iei_average(series)
            report.iei_instant = iei_instantaneous(series)
            if series.dropped_undated:
                report.warnings.append(f"{series.dropped_undated} undated citing papers dropped")
            if series.dropped_year_only:
                report.warnings.append(
                    f"{series.dropped_year_only} citing papers dated only by year dropped")

        if "rqm" in which:
            cited = [count for count, _ in refs if count is not None]
            if not cited:
                raise EmptyResult(f"{paper_id} has no references with citation counts")
            report.arq = arq([tncsi(c, fit) for c in cited])
            report.s_mp = median_semesters([
                months_between(published, record.publication_date)
                for published in _dated_references(record, refs)])
            report.rqm = rqm(RqmInputs(arq=report.arq, s_mp=report.s_mp, beta=self.beta))

        if "rui" in which:
            n_mp, n_pc = _given(counts)
            report.cdr = cdr(n_pc.count, n_mp.count)
            for name, n in (("n_mp", n_mp), ("n_pc", n_pc)):
                if n.total is not None:
                    report.warnings.append(
                        f"{name} counted from the first {S2_SEARCH_CAP} of {n.total} search hits"
                    )
            m_pc = months_between(record.publication_date, now)
            report.rad = rad(m_pc)
            if m_pc > RAD_FIT_WINDOW_MONTHS:
                report.warnings.append(
                    f"aging integral extrapolates beyond its fitted window "
                    f"({m_pc} > {RAD_FIT_WINDOW_MONTHS} months)"
                )
            report.rui = rui(report.cdr, report.rad)

        return report


class BatchItem(Value):
    _fields = ("paper_id", "report", "error")

    def __init__(self, paper_id: str, report: Optional[IndicatorReport] = None,
                 error: Optional[str] = None) -> None:
        self.paper_id = paper_id
        self.report = report
        self.error = error


def score_batch(
    engine: ScoringEngine,
    paper_ids: Sequence[str],
    which: Sequence[str] = ALL_INDICATORS,
    workers: int = DEFAULT_WORKERS,
) -> list[BatchItem]:
    """Score many papers: one `gather`, then each paper's `score` on the
    calling thread, then one write of what the batch produced.

    `gather` fetches through a bounded worker pool, or on the calling thread
    when ``workers`` is 1 or there is one paper. In the pool each paper's
    stage 1, and each topic's fit, runs on one worker, whose waits on a slow
    host or LLM overlap the others'. Each API payload fetched is written as
    it is put; the reports and the records whose keyword the LLM assigned
    are written after the batch in one write, and all join the store's open
    transaction (see `SnapshotStore`). When the batch raises or no paper
    scored, no report is written but the keywords are, and the open
    transaction is committed. Results keep the input order; per-item
    failures are captured, never raised.
    """
    reports: list[tuple[str, IndicatorReport]] = []
    try:
        if workers <= 1 or len(paper_ids) <= 1:
            engine.gather(paper_ids, which)
        else:
            from concurrent.futures import ThreadPoolExecutor  # loads logging

            with ThreadPoolExecutor(max_workers=workers) as pool:
                engine.gather(paper_ids, which, pool.map)
        items = []
        for pid in paper_ids:
            try:
                items.append(BatchItem(pid, report=engine.score(pid)))
            except LitmetricsError as exc:
                items.append(BatchItem(pid, error=f"{type(exc).__name__}: {exc}"))
        reports = [(item.paper_id, item.report) for item in items if item.report is not None]
    finally:
        engine.store.write(reports, papers=engine.assigned)
    return items
