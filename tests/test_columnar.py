"""Property tests: the columnar pair corpus against per-record reference passes.

Random small corpora (V <= 5, sentences of 1-6 tokens, 0-3 edits per record,
with categories on every record or on none) are built from records, by
generation and by a JSONL read; ``reference.py`` holds the record-by-record
implementations the array passes must match exactly, and the record-rule
test also draws records of which only some carry categories.  The JSONL tests go up
to V = 12, so that token ids of two digits are written and read.
"""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from denoiselab.augment import (CATEGORIES, ConfusionConfig, CorruptionRecord, PairCorpus,
                                SampleCategory, build_confusion, concat_corpora, corpus_arrays,
                                corpus_digest, corpus_from_jsonl, corpus_to_jsonl,
                                generate_corpus)
from denoiselab.calibration import EASY_CUTOFF, calibration_report, ece
from denoiselab.corrector import predict_matrix, train
from denoiselab.harness import category_filter_rates
from denoiselab.pipeline import heuristic_multi, revert_edits
from denoiselab.world import WorldConfig, build_world

from constructions import every_row, one_record, records_of

COLUMNS = ("clean", "corrupted", "offsets", "record", "pos", "orig", "repl", "category")


@st.composite
def record_lists(draw, vocab_size, annotation=None):
    """Records as (clean, corrupted, edits, categories) tuples; categories on every
    record, on none, or (``some``, which no corpus accepts) on some."""
    annotation = annotation or draw(st.sampled_from(("none", "all", "some")))
    records = []
    for _ in range(draw(st.integers(1, 6))):
        clean = draw(st.lists(st.integers(0, vocab_size - 1), min_size=1, max_size=6))
        positions = draw(st.lists(st.integers(0, len(clean) - 1), max_size=3, unique=True))
        corrupted = list(clean)
        edits = []
        for i in sorted(positions):
            y = draw(st.integers(0, vocab_size - 2))
            y += y >= clean[i]  # any token but the original
            corrupted[i] = y
            edits.append((i, clean[i], y))
        annotate = annotation == "all" or (annotation == "some" and draw(st.booleans()))
        categories = (tuple(draw(st.sampled_from(list(SampleCategory))) for _ in edits)
                      if annotate else None)
        records.append((tuple(clean), tuple(corrupted), tuple(edits), categories))
    return records


@st.composite
def corpora(draw, annotation=None, V=None):
    V = V or draw(st.integers(2, 5))
    annotation = annotation or draw(st.sampled_from(("none", "all")))
    records = tuple(CorruptionRecord(*r)
                    for r in draw(record_lists(V, annotation)))
    return PairCorpus(records, V, 0.1, "iid")


@st.composite
def crowded(draw):
    """Up to 18 records over two or three tokens: edits often share a replacement
    and both neighbours, which may be edits themselves or sentence ends."""
    V = draw(st.integers(2, 3))
    annotation = draw(st.sampled_from(("none", "all")))
    records = [r for _ in range(3) for r in draw(record_lists(V, annotation))]
    return PairCorpus(tuple(CorruptionRecord(*r) for r in records),
                      V, 0.1, "iid")


@st.composite
def generated(draw):
    V = draw(st.integers(2, 5))
    world = build_world(WorldConfig(vocab_size=V, support=draw(st.integers(1, V))),
                        draw(st.integers(0, 1000)))
    table = build_confusion(world, ConfusionConfig(candidates=1, context_affinity=0.0), 0)[0]
    mode = draw(st.sampled_from(("iid", "single_edit")))
    return generate_corpus(world, table, draw(st.integers(1, 8)), (1, 6), 0.3, mode=mode,
                           seed=draw(st.integers(0, 1000)), annotate=draw(st.booleans()))


def assert_same_corpus(a: PairCorpus, b: PairCorpus):
    for name in COLUMNS:
        left, right = getattr(a, name), getattr(b, name)
        assert (left is None) == (right is None), name
        if left is not None:
            np.testing.assert_array_equal(left, right, err_msg=name)
    for left, right in zip(corpus_arrays(a), corpus_arrays(b)):
        np.testing.assert_array_equal(left, right)
    assert records_of(a) == records_of(b)


def jsonl_text(corpus, tmp_path):
    path = tmp_path / "c.jsonl"
    corpus_to_jsonl(corpus, path)
    return path.read_text()


class TestBuildPaths:
    @settings(max_examples=60, deadline=None)
    @given(generated())
    def test_generated_corpus_equals_its_records(self, corpus):
        again = PairCorpus(records_of(corpus), corpus.vocab_size, corpus.rate, corpus.mode)
        assert_same_corpus(corpus, again)
        assert all(isinstance(r, CorruptionRecord) for r in records_of(corpus))

    @settings(max_examples=80, deadline=None)
    @given(corpora())
    def test_jsonl_round_trip_keeps_columns_records_and_bytes(self, tmp_path_factory, corpus):
        tmp_path = tmp_path_factory.mktemp("jsonl")
        text = jsonl_text(corpus, tmp_path)
        assert text == reference.jsonl(records_of(corpus))
        back = corpus_from_jsonl(tmp_path / "c.jsonl", corpus.vocab_size, 0.1)
        assert_same_corpus(corpus, back)
        assert jsonl_text(back, tmp_path) == text

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda V: st.tuples(corpora(V=V), corpora(V=V))))
    def test_concatenation_equals_the_joined_records(self, pair):
        first, second = pair
        records = records_of(first) + records_of(second)
        if first.category is None or second.category is None:  # annotated only when both are
            records = tuple(dataclasses.replace(r, categories=None) for r in records)
        joined = PairCorpus(records, first.vocab_size, 0.1, "iid")
        assert_same_corpus(concat_corpora(first, second), joined)

    @pytest.mark.parametrize("annotate", [True, False], ids=["annotated", "unannotated"])
    def test_view_records_equal_checked_records_field_by_field(self, annotate):
        world = build_world(WorldConfig(vocab_size=6, support=3), 4)
        table = build_confusion(world, ConfusionConfig(candidates=2, context_affinity=0.0), 0)[0]
        corpus = generate_corpus(world, table, 80, (1, 8), 0.3, seed=7, annotate=annotate)
        offsets = corpus.offsets.tolist()
        edits = list(zip(corpus.record.tolist(), zip(corpus.pos.tolist(), corpus.orig.tolist(),
                                                     corpus.repl.tolist())))
        names = ([None] * len(edits) if corpus.category is None
                 else [CATEGORIES[k] for k in corpus.category.tolist()])
        assert len(records_of(corpus)) == 80 and len({ri for ri, _ in edits}) < 80 < len(edits)
        for ri, built in enumerate(records_of(corpus)):  # the view builds them unchecked
            mine = [(edit, name) for (owner, edit), name in zip(edits, names) if owner == ri]
            a, b = offsets[ri], offsets[ri + 1]
            checked = CorruptionRecord(tuple(corpus.clean[a:b].tolist()),
                                       tuple(corpus.corrupted[a:b].tolist()),
                                       tuple(edit for edit, _ in mine),
                                       tuple(name for _, name in mine) if annotate else None)
            for field in CorruptionRecord.__slots__:
                left, right = getattr(built, field), getattr(checked, field)
                assert left == right and repr(left) == repr(right), field  # repr: element types
            assert built == checked and hash(built) == hash(checked)
        with pytest.raises(ValueError):  # the columns are shared, so they are read-only
            corpus.clean[0] = 0


class TestArrayPasses:
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(corpora(), generated()))
    def test_digest_matches_the_per_record_digest(self, corpus):
        assert corpus_digest(corpus) == reference.digest(records_of(corpus),
                                                         corpus.vocab_size)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(corpora(), generated()), st.randoms(use_true_random=False))
    def test_revert_matches_the_per_record_revert(self, corpus, rnd):
        keep = [rnd.random() < 0.5 for _ in range(corpus.n_edits)]
        result = revert_edits(corpus, keep)
        got = [(r.clean, r.corrupted, r.edits, r.categories) for r in records_of(result.corpus)]
        assert got == reference.revert(records_of(corpus), keep)
        assert result.corpus.clean is corpus.clean  # the clean side is shared, not copied
        assert (result.kept_edits, result.reverted_edits) == (sum(keep), len(keep) - sum(keep))

    @settings(max_examples=80, deadline=None)
    @given(corpora(annotation="all"), st.randoms(use_true_random=False))
    def test_category_rates_match_the_per_record_count(self, corpus, rnd):
        after = revert_edits(corpus, [rnd.random() < 0.5 for _ in range(corpus.n_edits)])
        rates = category_filter_rates(corpus, after.corpus)
        want = reference.category_counts(records_of(corpus), records_of(after.corpus))
        assert {c: (r.reverted, r.total) for c, r in rates.items()} == \
            {c: want.get(c, (0, 0)) for c in SampleCategory}

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(crowded(), corpora(), generated()))
    def test_multi_answer_flags_match_the_pairwise_rule(self, corpus):
        flags = heuristic_multi(corpus)
        assert flags.dtype == bool
        assert flags.tolist() == reference.multi_answer_flags(records_of(corpus),
                                                              corpus.vocab_size)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda V: st.tuples(corpora(V=V), corpora(V=V))))
    def test_calibration_report_equals_the_object_path(self, pair):
        train_corpus, corpus = pair
        model = train(train_corpus, alpha=0.1)
        rows = [every_row(model, one_record(corpus, k))  # each record a corpus of its own
                for k in range(len(corpus))]
        kept, n_excluded = reference.calibration_outcomes(records_of(corpus), rows, EASY_CUTOFF)
        if not kept:
            with pytest.raises(ValueError, match="removed every outcome"):
                calibration_report(predict_matrix(model, corpus), corpus)
            return
        want = ece([o[0] for o in kept], [o[1] for o in kept])
        report = calibration_report(predict_matrix(model, corpus), corpus)
        assert (report.bins, report.ece, report.n_excluded) == (want.bins, want.ece, n_excluded)


BREAKS = ("length", "original", "replacement", "unchanged", "stray", "position", "repeat",
          "categories", "int64", "clean-range", "negative-token", "corrupted-range")


def broken(record, kind, vocab_size):
    """``record`` (clean, corrupted, edits, categories) broken one way; a break
    with nothing to act on (no edits) leaves it valid."""
    clean, corrupted, edits, categories = (list(record[0]), list(record[1]),
                                           list(record[2]), record[3])
    last = len(clean) - 1
    if kind in ("clean-range", "negative-token", "corrupted-range"):  # else a valid record
        edits = [e for e in edits if e[0] != last]
        if kind == "corrupted-range":  # an edit to a token outside the vocabulary
            corrupted[last] = vocab_size
            edits.append((last, clean[last], vocab_size))
        else:  # the same token on both sides
            clean[last] = corrupted[last] = vocab_size if kind == "clean-range" else -1
        if categories is not None:
            categories = (SampleCategory.TRUE,) * len(edits)
    elif kind == "length":
        corrupted.append(0)
    elif kind == "position":
        edits.append((len(clean) + 1, 0, 1))
    elif kind == "repeat":
        edits += edits[:1]
    elif kind == "categories":
        categories = (SampleCategory.TRUE,) * (len(edits) + 1)
    elif kind == "int64":  # a token no int64 column can hold
        clean[-1] = corrupted[-1] = 2**63
    elif kind == "stray":  # a changed token without an edit
        corrupted[-1] = (clean[-1] + 1) % vocab_size
        edits = [e for e in edits if e[0] != len(clean) - 1]
    elif edits:
        i, x, y = edits[0]
        if kind == "unchanged":
            corrupted[i], y = x, x
        edits[0] = (i, x + (kind == "original"), y + (kind == "replacement"))
    return clean, corrupted, edits, categories


class TestRecordRule:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(2, 5), st.data())
    def test_jsonl_reports_the_first_broken_record_with_its_message(self, tmp_path_factory,
                                                                    V, data):
        records = list(data.draw(record_lists(V)))
        k = data.draw(st.integers(0, len(records) - 1))
        kind = data.draw(st.sampled_from(BREAKS))
        records[k] = broken(records[k], kind, V)
        expected = reference.first_record_problem(records, V)
        path = tmp_path_factory.mktemp("rule") / "c.jsonl"
        path.write_text("".join(json.dumps(
            {"clean": c, "corrupted": r, "edits": [list(e) for e in e_],
             **({} if cats is None else {"categories": [x.value for x in cats]})}) + "\n"
            for c, r, e_, cats in records))
        if expected is None:  # the break happened to leave a valid record
            corpus_from_jsonl(path, V, 0.1)
            return
        line, message = expected[0] + 1, expected[1]
        with pytest.raises(ValueError) as info:
            corpus_from_jsonl(path, V, 0.1)
        assert str(info.value) == f"{path}:{line}: {message}"
        with pytest.raises(ValueError) as direct:  # a record alone has no vocabulary to break
            PairCorpus(tuple(CorruptionRecord(*r) for r in records[:line]), V, 0.1, "iid")
        assert str(direct.value) == message

    @pytest.mark.parametrize("lines,message", [
        ([([0, 25], [0, 25], []), ([0, 1], [0, 2], [])], "clean token 25 outside [0, 20)"),
        ([([0, 1], [0, 25], [[1, 1, 25]]), ([-1, 1], [-1, 1], [])],
         "corrupted token 25 outside [0, 20)"),
    ], ids=["range-before-a-stray-token", "corrupted-side-before-clean-side"])
    def test_a_bad_token_is_reported_on_its_own_line(self, tmp_path, lines, message):
        # Line 2 breaks the rule too, by another rule or on the other side; line 1 is named.
        path = tmp_path / "c.jsonl"
        path.write_text("".join(json.dumps({"clean": c, "corrupted": r, "edits": e}) + "\n"
                                for c, r, e in lines))
        with pytest.raises(ValueError) as info:
            corpus_from_jsonl(path, 20, 0.1)
        assert str(info.value) == f"{path}:1: {message}"

    @pytest.mark.parametrize("clean,corrupted,edits,message", [
        ((0, 25), (0, 25), (), "clean token 25 outside [0, 20)"),
        ((-1, 3), (-1, 3), (), "clean token -1 outside [0, 20)"),
        ((0, 3), (0, 20), ((1, 3, 20),), "corrupted token 20 outside [0, 20)"),
    ], ids=["too-large", "negative", "corrupted-side"])
    def test_records_with_a_token_outside_the_vocabulary_are_refused(self, clean, corrupted,
                                                                    edits, message):
        good = CorruptionRecord((1, 2), (1, 2), ())
        bad = CorruptionRecord(clean, corrupted, edits)  # alone it has no vocabulary
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            PairCorpus((good, bad), 20, 0.1, "iid")


@st.composite
def jsonl_corpora(draw):
    """Corpora over up to 12 tokens, annotated or not, some joined by concatenation."""
    V = draw(st.integers(2, 12))
    first = draw(corpora(V=V))
    return concat_corpora(first, draw(corpora(V=V))) if draw(st.booleans()) else first


def spaced(data, lines):
    """File text of ``lines`` (each ending in a newline) with blank lines drawn in and
    maybe no final newline, and the line number of each of ``lines`` in it."""
    blanks = st.lists(st.sampled_from(("\n", "  \n", "\t\n")), max_size=2)
    out, numbers = [], []
    for line in lines:
        out += data.draw(blanks)
        numbers.append(len(out) + 1)
        out.append(line)
    out += data.draw(blanks)
    text = "".join(out)
    return (text[:-1] if data.draw(st.booleans()) else text), numbers


BAD_LINES = ("invalid-json", "two-objects", "not-an-object", "missing-field", "non-integer-token",
             "bad-edit", "null-categories", "out-of-range", "inconsistent-edit",
             "unknown-category")


def bad_line(data, doc, V):
    """One record's object ``doc`` made bad in a drawn way: the line's text and the
    message the line-by-line parse gives for it (None when the line is not JSON)."""
    kind = data.draw(st.sampled_from(BAD_LINES))
    non_integer = data.draw(st.sampled_from((1.5, True, False, "1", None, [1])))
    line = json.dumps(doc)
    if kind == "invalid-json":
        return line[:data.draw(st.integers(1, len(line) - 1))], None
    if kind == "two-objects":
        return f"{line} {line}", None
    if kind == "not-an-object":
        return json.dumps([doc]), "expected a JSON object"
    if kind == "missing-field":
        name = data.draw(st.sampled_from(("clean", "corrupted", "edits")))
        del doc[name]
        return json.dumps(doc), f"missing field {name!r}"
    if kind == "non-integer-token":
        name = data.draw(st.sampled_from(("clean", "corrupted")))
        doc[name][data.draw(st.integers(0, len(doc[name]) - 1))] = non_integer
        return json.dumps(doc), f"{name} token {json.dumps(non_integer)} is not an integer"
    if kind == "bad-edit":
        doc["edits"].append([0, 0, 1])
        e = data.draw(st.integers(0, len(doc["edits"]) - 1))
        edit = doc["edits"][e]
        if data.draw(st.booleans()):
            edit[data.draw(st.integers(0, 2))] = non_integer
        else:
            del edit[data.draw(st.integers(0, 2))]
        return json.dumps(doc), f"edit {json.dumps(edit)} is not three integers"
    if kind == "null-categories":
        doc["categories"] = None
        return json.dumps(doc), "categories must be a list, got null"
    if kind == "out-of-range":
        token = data.draw(st.sampled_from((V, V + 7, -1)))
        doc["clean"].append(token)
        doc["corrupted"].append(token)
        return json.dumps(doc), f"clean token {token} outside [0, {V})"
    if kind == "inconsistent-edit":
        doc["edits"].append([len(doc["clean"]) + 1, 0, 1])
        return json.dumps(doc), reference.record_problem(
            doc["clean"], doc["corrupted"], doc["edits"], doc.get("categories"))
    doc["categories"] = ["bogus"] + doc.get("categories", [])[1:]
    return json.dumps(doc), "'bogus' is not a valid SampleCategory"


class TestJsonlFastPath:
    @settings(max_examples=80, deadline=None)
    @given(jsonl_corpora(), st.data())
    def test_written_bytes_are_the_reference_and_read_back_as_the_columns(
            self, tmp_path_factory, corpus, data):
        path = tmp_path_factory.mktemp("jsonl") / "c.jsonl"
        corpus_to_jsonl(corpus, path)
        text = path.read_text()
        assert text == reference.jsonl(records_of(corpus))
        assert_same_corpus(corpus_from_jsonl(path, corpus.vocab_size, 0.1), corpus)
        path.write_text(spaced(data, text.splitlines(keepends=True))[0])
        assert_same_corpus(corpus_from_jsonl(path, corpus.vocab_size, 0.1), corpus)

    @settings(max_examples=200, deadline=None)
    @given(jsonl_corpora(), st.data())
    def test_a_bad_line_is_reported_as_the_line_by_line_parse_reports_it(
            self, tmp_path_factory, corpus, data):
        lines = reference.jsonl(records_of(corpus)).splitlines(keepends=True)
        k = data.draw(st.integers(0, len(lines) - 1))
        bad, message = bad_line(data, json.loads(lines[k]), corpus.vocab_size)
        lines[k] = bad + "\n"
        text, numbers = spaced(data, lines)
        path = tmp_path_factory.mktemp("bad") / "c.jsonl"
        path.write_text(text)
        if message is None:  # the parser's message for the line as the file holds it
            with pytest.raises(json.JSONDecodeError) as parse:
                json.loads(text.splitlines(keepends=True)[numbers[k] - 1])
            message = str(parse.value)
        with pytest.raises(ValueError) as info:
            corpus_from_jsonl(path, corpus.vocab_size, 0.1)
        assert str(info.value) == f"{path}:{numbers[k]}: {message}"

    def test_a_record_cut_over_two_lines_is_not_joined_back(self, tmp_path):
        # Cutting one record over lines 1-2 and putting two records on line 3 keeps
        # one JSON value per line in the joined parse; the reader must still refuse.
        record = '{"clean": [0, 1], "corrupted": [0, 1], "edits": []}'
        head = '{"clean": [0'  # the joined parse adds the comma
        path = tmp_path / "c.jsonl"
        path.write_text(f'{head}\n1], "corrupted": [0, 1], "edits": []}}\n{record}, {record}\n')
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(head + "\n")
        with pytest.raises(ValueError) as info:
            corpus_from_jsonl(path, 2, 0.1)
        assert str(info.value) == f"{path}:1: {expected.value}"
