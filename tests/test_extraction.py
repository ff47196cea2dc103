"""Extraction utilities: chunking, captions, features, positions."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from litmetrics.errors import MalformedResponse
from litmetrics.extraction import (
    Chunk,
    chunk_text,
    extract_captions,
    extract_features,
    extract_features_from_document,
    filter_caption_chunks,
    load_structured_text,
    parse_structured_text,
    section_positions,
)
from litmetrics.retrieval import StubLlm
from litmetrics.snapshot import FeatureVector

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def stub() -> StubLlm:
    return StubLlm.from_json_file(FIXTURES / "stubs" / "extraction_stub.json")


@pytest.fixture
def doc_summarization():
    return load_structured_text(FIXTURES / "docs" / "multiview_summarization.txt")


@pytest.fixture
def doc_handwriting():
    return load_structured_text(FIXTURES / "docs" / "handwriting_recognition.txt")


@pytest.fixture
def doc_minimal():
    return load_structured_text(FIXTURES / "docs" / "minimal_note.txt")


class TestChunkText:
    def test_greedy_packing(self):
        lines = ["a" * 150, "b" * 150, "c" * 150]
        chunks = chunk_text("\n".join(lines))
        assert len(chunks) == 2
        assert chunks[0].text == lines[0] + "\n" + lines[1]
        assert chunks[1].text == lines[2]
        assert not any(c.oversized for c in chunks)

    def test_empty_text(self):
        assert chunk_text("") == []

    def test_oversized_line_flagged(self):
        chunks = chunk_text("x" * 900)
        assert len(chunks) == 1
        assert chunks[0].oversized
        assert chunks[0].text == "x" * 900

    def test_oversized_line_between_normal_lines(self):
        text = "short one\n" + "y" * 500 + "\nshort two"
        chunks = chunk_text(text)
        assert [c.oversized for c in chunks] == [False, True, False]

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=2000))
    def test_reconstruction_and_length_bound(self, text):
        chunks = chunk_text(text)
        if text == "":
            assert chunks == []
        else:
            assert "\n".join(c.text for c in chunks) == text
        for c in chunks:
            assert len(c.text) <= 400 or c.oversized


class TestFilterCaptionChunks:
    def test_retains_figure_chunk(self):
        kept = filter_caption_chunks([Chunk("Fig. 3 shows the pipeline.")])
        assert len(kept) == 1

    def test_drops_plain_chunk(self):
        assert filter_caption_chunks([Chunk("No visual elements mentioned here.")]) == []

    def test_word_boundary(self):
        assert filter_caption_chunks([Chunk("This behaviour is configurable.")]) == []
        assert filter_caption_chunks([Chunk("Table 2: results")]) != []

    def test_recall_on_fixture_corpus(self, doc_summarization):
        chunks = chunk_text(doc_summarization.body_text)
        kept_text = "\n".join(c.text for c in filter_caption_chunks(chunks))
        for caption_start in ("Fig. 1", "Fig. 2", "Table 1"):
            assert caption_start in kept_text


class TestExtractCaptions:
    def test_stub_replay(self, stub, doc_summarization):
        chunks = filter_caption_chunks(chunk_text(doc_summarization.body_text))
        figures, tables = extract_captions(chunks, stub)
        assert len(figures) == 2
        assert len(tables) == 1
        assert figures[0].startswith("Fig. 1")

    def test_empty_chunks(self, stub):
        assert extract_captions([], stub) == ([], [])

    def test_invalid_json_is_error_after_retry(self):
        bad = StubLlm({}, default="not json at all")
        with pytest.raises(MalformedResponse):
            extract_captions([Chunk("Fig. 1: x")], bad)
        assert len(bad.calls) == 2  # one retry

    def test_fenced_json_accepted(self):
        fenced = StubLlm({}, default='```json\n{"figures": [], "tables": ["Table 1"]}\n```')
        figures, tables = extract_captions([Chunk("Table 1: y")], fenced)
        assert figures == [] and tables == ["Table 1"]


class TestExtractFeatures:
    def test_summarization_review(self, stub, doc_summarization):
        fv = extract_features_from_document(doc_summarization, stub)
        assert fv == FeatureVector(
            taxonomy=1, prisma=0, preliminary=1, benchmark=1,
            application=1, discussion=1, structured_abstract=1,
        )

    def test_prisma_review(self, stub, doc_handwriting):
        fv = extract_features_from_document(doc_handwriting, stub)
        assert fv.prisma == 1
        assert fv.taxonomy == 0
        assert fv.benchmark == 0  # no caption chunks at all

    def test_empty_toc_yields_no_evidence_zeros(self, stub, doc_minimal):
        fv = extract_features_from_document(doc_minimal, stub)
        assert (fv.preliminary, fv.application, fv.discussion) == (0, 0, 0)
        assert fv == FeatureVector()

    def test_stub_extraction_is_pure(self, stub, doc_summarization):
        first = extract_features_from_document(doc_summarization, stub)
        second = extract_features_from_document(doc_summarization, stub)
        assert first == second

    def test_no_evidence_paths_skip_llm(self):
        counting = StubLlm({})  # raises if ever consulted
        fv = extract_features("t", "", "", [], [], counting)
        assert fv == FeatureVector()
        assert counting.calls == []

    def test_malformed_binary_value(self):
        bad = StubLlm({}, default='{"taxonomy": "sometimes", "prisma": 0}')
        with pytest.raises(MalformedResponse):
            extract_features("t", "a", "intro", ["1. Intro"], [], bad)


class TestSectionPositions:
    TITLES = ["Introduction", "Methods", "Conclusion"]

    def test_first_title(self):
        assert section_positions(self.TITLES, ["introduction"]) == {"introduction": [0.0]}

    def test_last_title(self):
        assert section_positions(self.TITLES, ["conclusion"]) == {"conclusion": [1.0]}

    def test_one_title_matches_multiple_keywords(self):
        titles = ["A", "Related Work and Taxonomy", "B", "C"]
        result = section_positions(titles, ["related work", "taxonomy"])
        assert result["related work"] == [pytest.approx(1 / 3)]
        assert result["taxonomy"] == [pytest.approx(1 / 3)]

    def test_keyword_normalisation(self):
        result = section_positions(self.TITLES, ["  Methods ", "methods", ""])
        assert list(result) == ["methods"]
        assert result["methods"] == [0.5]

    def test_single_title_document(self):
        assert section_positions(["Introduction"], ["introduction"]) == {
            "introduction": [0.0]
        }

    @given(
        st.lists(st.sampled_from(
            ["Introduction", "Background", "Methods", "Results", "Discussion", "Conclusion"]
        ), min_size=2, max_size=12),
        st.lists(st.sampled_from(["introduction", "methods", "conclusion", "results"]),
                 min_size=1, max_size=4),
    )
    def test_positions_bounded(self, titles, keywords):
        result = section_positions(titles, keywords)
        for values in result.values():
            assert all(0.0 <= v <= 1.0 for v in values)
        first = section_positions(titles, [titles[0].lower()])[titles[0].lower()]
        last = section_positions(titles, [titles[-1].lower()])[titles[-1].lower()]
        assert 0.0 in first
        assert 1.0 in last


class TestStructuredTextFormat:
    def test_parse_pieces(self, doc_summarization):
        doc = doc_summarization
        assert doc.title == "A Comprehensive Review of Multi-View Video Summarization"
        assert doc.abstract.startswith("Background:")
        assert "3. Preliminaries" in doc.toc
        assert doc.sections[0][0] == "1. Introduction"
        assert "four-level taxonomy" in doc.intro

    def test_toc_preferred_for_titles(self):
        doc = parse_structured_text(
            "# TOC\nAlpha\nBeta\n# SECTION: Alpha\nbody a\n# SECTION: Gamma\nbody g\n"
        )
        assert doc.section_titles == ["Alpha", "Beta"]

    def test_sections_fall_back_when_no_toc(self):
        doc = parse_structured_text("# SECTION: Only One\nbody\n")
        assert doc.section_titles == ["Only One"]
        assert doc.intro == "body"

    def test_without_markers(self):
        doc = parse_structured_text("just some prose\n")
        assert doc.title == "" and doc.abstract == "" and doc.sections == []
