"""Per-record reference implementations of the columnar corpus passes.

Each walks the corpus record by record, as the lab did before its corpus
became flat arrays, and shares no code with the array passes; the property
tests in ``test_columnar.py`` hold the two to exact agreement.
:func:`order_1_sentences` is the order-1 sampler as it was before one column
loop served every world order, :func:`full_row_draw` the inverse-CDF draw as
it was before it compared only each row's nonzero columns, and
:func:`column_loop_sentences` the column loop of any order on that draw;
``test_world.py`` holds the sampler to them bit for bit.
"""

import hashlib
import json

import numpy as np

from constructions import records_of


def record_problem(clean, corrupted, edits, categories, vocab_size=None):
    """The error message of the record rule, checked step by step; None if kept.

    Tokens are held to ``[0, vocab_size)`` when a vocabulary is given.
    """
    for value in (*clean, *corrupted, *(v for edit in edits for v in edit)):
        if not -2**63 <= value < 2**63:  # the columns are int64
            return f"integer {value} does not fit in 64 bits"
    for name, tokens in (("clean", clean), ("corrupted", corrupted)):
        for token in tokens:
            if vocab_size is not None and not 0 <= token < vocab_size:
                return f"{name} token {token} outside [0, {vocab_size})"
    if len(clean) != len(corrupted):
        return "corruption must preserve sentence length"
    edited = []
    for i, x, y in edits:
        if not 0 <= i < len(clean) or clean[i] != x or corrupted[i] != y or x == y:
            return f"edit {(i, x, y)} inconsistent with sentences"
        if i in edited:  # a position holds one edit
            return f"edit {(i, x, y)} inconsistent with sentences"
        edited.append(i)
    for j, (a, b) in enumerate(zip(clean, corrupted)):
        if j not in edited and a != b:
            return f"position {j} differs but is not recorded as an edit"
    if categories is not None and len(categories) != len(edits):
        return "categories must align with edits"
    return None


def first_record_problem(records, vocab_size):
    """Index and error message of the first of ``records`` (clean, corrupted, edits,
    categories) that breaks the record rule, or that has categories where the first
    record has none or the reverse; None if every record keeps both rules."""
    for k, (clean, corrupted, edits, categories) in enumerate(records):
        message = record_problem(clean, corrupted, edits, categories, vocab_size)
        if message is None and (categories is None) != (records[0][3] is None):
            message = (f"record {k} has no categories, but record 0 has them"
                       if categories is None else
                       f"record {k} has categories, but record 0 has none")
        if message:
            return k, message
    return None


def digest(records, vocab_size):
    h = hashlib.sha256()
    h.update(np.array([vocab_size, len(records)], dtype=np.int64).tobytes())
    h.update(np.array([len(r.clean) for r in records], dtype=np.int64).tobytes())
    for side in ("clean", "corrupted"):
        for rec in records:
            h.update(np.array(getattr(rec, side), dtype=np.int64).tobytes())
    return h.hexdigest()


def jsonl(records):
    lines = []
    for rec in records:
        doc = {"clean": list(rec.clean), "corrupted": list(rec.corrupted),
               "edits": [list(e) for e in rec.edits]}
        if rec.categories is not None:
            doc["categories"] = [c.value for c in rec.categories]
        lines.append(json.dumps(doc) + "\n")
    return "".join(lines)


def revert(records, keep):
    """(clean, corrupted, edits, categories) of each record after reverting
    the edits whose flag in ``keep`` (one per edit, in record order) is false."""
    out, k = [], 0
    for rec in records:
        flags = keep[k:k + len(rec.edits)]
        k += len(rec.edits)
        corrupted = list(rec.corrupted)
        for flag, (i, x, _) in zip(flags, rec.edits):
            if not flag:
                corrupted[i] = x
        categories = None
        if rec.categories is not None:
            categories = tuple(c for f, c in zip(flags, rec.categories) if f)
        out.append((rec.clean, tuple(corrupted),
                    tuple(e for f, e in zip(flags, rec.edits) if f), categories))
    return out


def category_counts(before, after):
    """{category: (reverted, total)} over aligned record sequences."""
    counts = {}
    for rec_b, rec_a in zip(before, after):
        surviving = {i for i, _, _ in rec_a.edits}
        for (i, _, _), cat in zip(rec_b.edits, rec_b.categories):
            reverted, total = counts.get(cat, (0, 0))
            counts[cat] = (reverted + (i not in surviving), total + 1)
    return counts


def iter_edits(corpus):
    """Yields (record_index, record, edit_index, (position, original, replacement))."""
    for ri, rec in enumerate(records_of(corpus)):
        for ei, edit in enumerate(rec.edits):
            yield ri, rec, ei, edit


def multi_answer_flags(records, vocab_size):
    """One flag per edit, in record order: some other edit has the same replacement,
    the same corrupted left and right neighbours (``vocab_size`` past a sentence
    end) and a different original; every pair of edits is compared."""
    edits = []
    for rec in records:
        for i, x, y in rec.edits:
            left = rec.corrupted[i - 1] if i > 0 else vocab_size
            right = rec.corrupted[i + 1] if i + 1 < len(rec.clean) else vocab_size
            edits.append(((y, left, right), x))
    return [any(key == other_key and x != other_x for other_key, other_x in edits)
            for key, x in edits]


def signature_counts(records, vocab_size, window):
    """(counts, center_counts, target_counts) of a count model, counted position by
    position; a neighbour outside the sentence reads ``vocab_size``."""
    base = vocab_size + 1
    counts = np.zeros((base ** len(window), vocab_size), dtype=np.int64)
    center = np.zeros((vocab_size, vocab_size), dtype=np.int64) if 0 in window else None
    target = np.zeros(vocab_size, dtype=np.int64)
    for rec in records:
        for i, clean_token in enumerate(rec.clean):
            sig = 0
            for digit, off in enumerate(window):
                inside = 0 <= i + off < len(rec.clean)
                sig += (rec.corrupted[i + off] if inside else vocab_size) * base ** digit
            counts[sig, clean_token] += 1
            if center is not None:
                center[rec.corrupted[i], clean_token] += 1
            target[clean_token] += 1
    return counts, center, target


def sentence_metrics(records, outputs):
    """The fields of ``harness.Metrics``, in order, for one decoded output per record."""
    tp = modified = errors = with_correct = broke = 0
    for rec, out in zip(records, outputs):
        error = rec.clean != rec.corrupted
        changed = tuple(out) != rec.corrupted
        errors += error
        modified += changed
        tp += error and changed and tuple(out) == rec.clean
        kept = [i for i in range(len(rec.clean)) if rec.clean[i] == rec.corrupted[i]]
        if kept:
            with_correct += 1
            broke += any(out[i] != rec.corrupted[i] for i in kept)
    precision = 100.0 * tp / modified if modified else 0.0
    recall = 100.0 * tp / errors if errors else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    fpr = 100.0 * broke / with_correct if with_correct else 0.0
    return precision, recall, f1, fpr


def calibration_outcomes(records, rows, cutoff):
    """The (confidence, correct, kept mass on the written token) outcomes of
    every position whose mass off the written token is at least ``cutoff``, and
    the number of the others; ``rows`` holds each record's own probability
    rows.  The confidence is the row's maximum, and the decode its first
    argmax unless the written token ties it."""
    kept, n_excluded = [], 0
    for rec, probs in zip(records, rows):
        for row, clean, written in zip(probs, rec.clean, rec.corrupted):
            top = float(row.max())
            pred = written if row[written] == top else int(row.argmax())
            outcome = (top, pred == clean, float(row[written]))
            if 1.0 - outcome[2] >= cutoff:
                kept.append(outcome)
            else:
                n_excluded += 1
    return kept, n_excluded


def order_1_sentences(world, lengths, rng):
    """The order-1 column loop, indexed by the previous token; row V of the table is
    the sentence start, and each row's last nonzero is found row by row."""
    lengths = np.asarray(lengths, dtype=np.int64)
    n, lmax = len(lengths), int(lengths.max())
    T = world.factors[:, :-1]  # order 1: row V is the sentence start
    tcum = np.cumsum(T, axis=1)
    lastnz = np.array([np.flatnonzero(row)[-1] for row in T])
    toks = np.zeros((n, lmax), dtype=np.int64)
    prev = np.full(n, world.vocab_size)
    for j in range(lmax):
        u = rng.random(n)
        idx = (tcum[prev] <= u[:, None]).sum(axis=1)
        toks[:, j] = prev = np.minimum(idx, lastnz[prev])
    return [row[:L] for row, L in zip(toks, lengths.tolist())]


def full_row_draw(probs, rows, u):
    """The count of row ``rows[i]``'s full cumulative sums at or below ``u[i]``, each
    sum ``+inf`` from the row's last nonzero column on."""
    cum = np.cumsum(probs, axis=1)
    for r, row in enumerate(probs):
        cum[r, np.flatnonzero(row)[-1]:] = np.inf
    return (cum[rows] <= u[:, None]).sum(axis=1)


def column_loop_sentences(world, lengths, rng):
    """Each column drawn with :func:`full_row_draw` (one ``rng.random(n)``) from the
    ``world.factors`` row of each sentence's last ``order`` tokens, ``vocab_size``
    before the start, read as a base-(V+1) number."""
    V, k = world.vocab_size, world.order
    lengths = np.asarray(lengths, dtype=np.int64)
    n, lmax = len(lengths), int(lengths.max())
    toks = np.full((n, k + lmax), V, dtype=np.int64)  # k start digits before each sentence
    for j in range(lmax):
        cid = np.zeros(n, dtype=np.int64)
        for d in range(k):
            cid = cid * (V + 1) + toks[:, j + d]
        toks[:, k + j] = full_row_draw(world.factors[:, :-1], cid, rng.random(n))
    return [row[k:k + L] for row, L in zip(toks, lengths.tolist())]
