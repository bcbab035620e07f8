import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from denoiselab._rng import derive_rng
from denoiselab.world import (ImpossibleContextError, WorldConfig, build_world,
                              categorical_sampler, conditional, load_world,
                              sample_corpus_tokens, save_world, world_from_json, world_to_json)

import reference
from enumeration import all_sentences, chain_prob, slot_distribution, total_mass


def uniform_world(V=3):
    row = [1.0 / V] * V
    return build_world(WorldConfig(vocab_size=V, order=1,
                                   rows={str(v): row for v in range(V)},
                                   initial=row), 0)


def chain_world(V=4):
    """Deterministic cycle: token v is always followed by v + 1 mod V."""
    rows = {}
    for v in range(V):
        row = [0.0] * V
        row[(v + 1) % V] = 1.0
        rows[str(v)] = row
    initial = [0.0] * V
    initial[0] = 1.0
    return build_world(WorldConfig(vocab_size=V, order=1, rows=rows, initial=initial), 0)


def order_2_without(context):
    """A bad-file edit: the document of an order-2, V = 3 world without one row."""
    def edit(doc):
        doc.update(json.loads(world_to_json(build_world(
            WorldConfig(vocab_size=3, order=2, support=2), 0))))
        del doc["transitions"][context]
    return edit


@st.composite
def order_1_worlds(draw):
    """Order-1 worlds from explicit rows, with exact zeros in most of them."""
    V = draw(st.integers(2, 6))
    weight = st.one_of(st.just(0.0), st.floats(0.01, 1.0))

    def vector():
        raw = np.array(draw(st.lists(weight, min_size=V, max_size=V).filter(any)))
        return list(raw / raw.sum())

    return build_world(WorldConfig(vocab_size=V, order=1, initial=vector(),
                                   rows={str(v): vector() for v in range(V)}), 0)


@st.composite
def weight_rows(draw):
    """Sampler rows with exact zeros anywhere and a nonzero in each; about half are
    equal shares, whose sums can round below 1 (ten tenths do)."""
    width = draw(st.integers(1, 24))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        nonzero = draw(st.lists(st.booleans(), min_size=width, max_size=width).filter(any))
        equal = draw(st.booleans())
        raw = np.array([float(nz) if equal or not nz else draw(st.floats(0.01, 1.0))
                        for nz in nonzero])
        rows.append(raw / raw.sum())
    return np.array(rows)


def edge_uniforms(probs):
    """0, every cumulative sum of ``probs`` and its two float neighbours, and the
    largest double below 1: the uniforms in [0, 1) where a draw can change."""
    cum = np.cumsum(probs, axis=1).ravel()
    u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cum,
                        np.nextafter(cum, 0.0), np.nextafter(cum, 2.0)])
    return np.unique(u[(u >= 0.0) & (u < 1.0)])


# Zeros at the front, in the middle and at the end of a row, and a width-1 row.
ZEROS_EVERYWHERE = np.array([[0.0, 0.0, 0.5, 0.5], [0.5, 0.0, 0.0, 0.5],
                             [0.5, 0.5, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])

RING_OVERLAP_ROWS = {"0": [0.5, 0.5, 0.0], "1": [0.0, 0.5, 0.5], "2": [0.5, 0.0, 0.5]}


class TestBuildWorld:
    def test_uniform_rows_give_uniform_conditionals(self):
        w = uniform_world(3)
        sent = (0, 1, 2)
        for pos in range(3):
            np.testing.assert_allclose(conditional(w, sent, pos), 1 / 3, atol=1e-12)

    def test_generation_is_deterministic(self):
        cfg = WorldConfig(vocab_size=3, support=2)
        assert world_to_json(build_world(cfg, 7)) == world_to_json(build_world(cfg, 7))

    def test_generated_rows_have_exact_support(self):
        w = build_world(WorldConfig(vocab_size=8, support=3), 5)
        for ctx, row in w.transitions.items():
            assert np.count_nonzero(row) == 3
            assert abs(row.sum() - 1.0) < 1e-12

    def test_bad_row_sum_rejected(self):
        with pytest.raises(ValueError, match="sums to"):
            build_world(WorldConfig(vocab_size=2, rows={"0": [0.5, 0.4], "1": [1.0, 0.0]},
                                    initial=[0.5, 0.5]), 0)

    def test_support_larger_than_vocab_rejected(self):
        with pytest.raises(ValueError, match="support"):
            build_world(WorldConfig(vocab_size=3, support=4), 0)

    def test_entries_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            build_world(WorldConfig(vocab_size=2, rows={"0": [1.5, -0.5], "1": [1.0, 0.0]},
                                    initial=[0.5, 0.5]), 0)


class TestSampling:
    def test_point_mass_chain_yields_unique_path(self):
        w = chain_world(4)
        rng = derive_rng(0, "t")
        assert sample_corpus_tokens(w, [4], rng)[0].tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize("seed", [-1, 2**63])
    def test_seed_outside_the_stream_range_is_refused(self, seed):
        # Masked to 63 bits, 2**63 named seed 0's stream and -1 named 2**63 - 1's.
        with pytest.raises(ValueError, match=re.escape(f"seed must be in [0, 2**63), got {seed}")):
            derive_rng(seed, "world")

    def test_fixed_seed_reproduces_sentence(self):
        w = build_world(WorldConfig(vocab_size=5, support=2), 3)
        a = sample_corpus_tokens(w, [10], derive_rng(11, "s"))[0]
        b = sample_corpus_tokens(w, [10], derive_rng(11, "s"))[0]
        np.testing.assert_array_equal(a, b)

    def test_uniform_bigram_frequencies(self):
        # 1e5 two-token draws from the uniform world; every bigram cell should
        # land within 3 sigma of 1/V**2 (deterministic seed).
        V, n = 4, 100_000
        w = uniform_world(V)
        sents = sample_corpus_tokens(w, np.full(n, 2), derive_rng(123, "bigram"))
        counts = np.zeros((V, V))
        for a, b in sents:
            counts[a, b] += 1
        p = 1.0 / V**2
        sigma = np.sqrt(p * (1 - p) / n)
        np.testing.assert_array_less(np.abs(counts / n - p), 3 * sigma)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_vectorized_sampling_never_emits_zero_transitions(self, order):
        w = build_world(WorldConfig(vocab_size=6, order=order, support=2), 9)
        sents = sample_corpus_tokens(w, np.full(2000, 6), derive_rng(4, "z"))
        for s in sents:
            assert chain_prob(w, s) > 0.0

    def test_a_uniform_past_the_rounded_total_draws_the_last_nonzero(self):
        probs = np.array([[0.1] * 10 + [0.0, 0.0], [0.0, 1.0] + [0.0] * 10])
        assert np.cumsum(probs[0])[-1] < 1.0  # ten tenths round below one
        draw = categorical_sampler(probs)
        u = np.array([np.nextafter(1.0, 0.0)] * 2)
        assert draw(np.array([0, 1]), u).tolist() == [9, 1]

    @given(order_1_worlds(), st.lists(st.integers(1, 9), min_size=1, max_size=12),
           st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_order_1_sampling_matches_the_reference_loop(self, w, lengths, seed):
        got_rng, want_rng = derive_rng(seed, "r"), derive_rng(seed, "r")
        got = sample_corpus_tokens(w, lengths, got_rng)
        want = reference.order_1_sentences(w, lengths, want_rng)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tolist() == b.tolist()
        assert got_rng.random() == want_rng.random()  # the same draws were taken

    def test_draw_skips_zeros_at_the_front_middle_and_end(self):
        draw = categorical_sampler(ZEROS_EVERYWHERE)
        for u, want in [(0.0, [2, 0, 0, 1]), (0.25, [2, 0, 0, 1]), (0.5, [3, 3, 1, 1]),
                        (np.nextafter(1.0, 0.0), [3, 3, 1, 1])]:
            assert draw(np.arange(4), np.full(4, u)).tolist() == want

    @given(weight_rows())
    @example(ZEROS_EVERYWHERE)
    @settings(max_examples=200, deadline=None)
    def test_draw_matches_the_full_row_reference(self, probs):
        u = edge_uniforms(probs)
        rows, u = np.repeat(np.arange(len(probs)), len(u)), np.tile(u, len(probs))
        got = categorical_sampler(probs)(rows, u)
        want = reference.full_row_draw(probs, rows, u)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()

    def test_an_empty_batch_draws_nothing(self):
        draw = categorical_sampler(np.array([[0.25, 0.0, 0.75], [0.0, 1.0, 0.0]]))
        got = draw(np.empty(0, np.int64), np.empty(0))
        assert got.dtype == np.int64 and got.shape == (0,)

    @pytest.mark.parametrize("order", [2, 3])
    @given(st.integers(2, 5), st.integers(1, 5), st.integers(0, 100),
           st.lists(st.integers(1, 7), min_size=1, max_size=10), st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_higher_order_sampling_matches_the_full_row_column_loop(
            self, order, V, support, world_seed, lengths, seed):
        w = build_world(WorldConfig(vocab_size=V, order=order, support=min(support, V),
                                    weight_low=0.05, weight_high=1.0), world_seed)
        got_rng, want_rng = derive_rng(seed, "r"), derive_rng(seed, "r")
        got = sample_corpus_tokens(w, lengths, got_rng)
        want = reference.column_loop_sentences(w, lengths, want_rng)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tolist() == b.tolist()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("order", [2, 3])
    def test_higher_order_sentence_frequencies_match_enumeration(self, order):
        # Every length-3 sentence within 4 sigma of its exact probability, and
        # no sentence of probability zero drawn.
        V, n = 3, 60_000
        w = build_world(WorldConfig(vocab_size=V, order=order, support=2), 6)
        assert abs(total_mass(w, 3) - 1.0) < 1e-12
        sents = np.array(sample_corpus_tokens(w, np.full(n, 3), derive_rng(8, "freq")))
        counts = np.bincount((sents * [V * V, V, 1]).sum(axis=1), minlength=V**3)
        for code, sent in enumerate(all_sentences(V, 3)):
            p = chain_prob(w, sent)
            if p == 0.0:
                assert counts[code] == 0, sent
            else:
                assert abs(counts[code] / n - p) < 4 * np.sqrt(p * (1 - p) / n), sent

    @given(st.integers(2, 6), st.integers(1, 12), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_sampled_tokens_valid(self, V, length, seed):
        w = build_world(WorldConfig(vocab_size=V, support=min(2, V)), seed % 100)
        s = sample_corpus_tokens(w, [length], derive_rng(seed, "h"))[0]
        assert len(s) == length
        assert all(0 <= t < V for t in s)


class TestConditional:
    def test_forced_slot_point_mass(self):
        w = build_world(WorldConfig(vocab_size=3, order=1,
                                    rows=RING_OVERLAP_ROWS, initial=[1 / 3] * 3), 0)
        got = conditional(w, (0, 0, 2), 1)  # middle token is ignored
        np.testing.assert_array_equal(got, [0.0, 1.0, 0.0])
        np.testing.assert_allclose(got, slot_distribution(w, (0, 0, 2), 1), atol=1e-12)

    def test_deterministic_chain_point_mass(self):
        w = chain_world(4)
        got = conditional(w, (0, 9 % 4, 2, 3), 1)
        np.testing.assert_array_equal(got, [0.0, 1.0, 0.0, 0.0])

    def test_matches_enumeration_on_random_worlds(self):
        for seed in range(15):
            V = 3 + seed % 4
            w = build_world(WorldConfig(vocab_size=V, support=2), seed)
            assert abs(total_mass(w, 4) - 1.0) < 1e-12
            sent = tuple(sample_corpus_tokens(w, [4], derive_rng(seed, "c"))[0].tolist())
            for pos in range(4):
                want = slot_distribution(w, sent, pos)
                got = conditional(w, sent, pos)
                assert abs(got.sum() - 1.0) < 1e-12
                np.testing.assert_allclose(got, want, atol=1e-12)
                # hard zeros coincide exactly with enumeration zeros
                np.testing.assert_array_equal(got == 0.0, want == 0.0)

    def test_impossible_context_raises(self):
        w = chain_world(4)
        with pytest.raises(ImpossibleContextError):
            conditional(w, (0, 1, 1, 3), 3)  # 1 -> 1 transition has mass zero

    def test_position_out_of_range(self):
        w = uniform_world(3)
        with pytest.raises(ValueError, match="position"):
            conditional(w, (0, 1), 2)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("tokens,position,message", [
        ((), 0, "sentence must have length >= 1"),
        ((0, -1, 2), 0, "token id out of range for this world"),
        ((0, 3, 2), 0, "token id out of range for this world"),
        ((0, 1, 2), -1, "position -1 out of range for length 3"),
        ((0, 1, 2), 3, "position 3 out of range for length 3"),
        ((0, 1, 2), np.int64(3), "position 3 out of range for length 3"),
    ], ids=["empty", "token-minus-1", "token-V", "position-minus-1", "position-L",
            "numpy-position-L"])
    def test_single_form_errors(self, order, tokens, position, message):
        w = build_world(WorldConfig(vocab_size=3, order=order, support=3), 1)
        with pytest.raises(ValueError) as info:
            conditional(w, tokens, position)
        assert type(info.value) is ValueError and str(info.value) == message

    @pytest.mark.parametrize("order", [1, 2])
    def test_impossible_context_message(self, order):
        rows = {",".join(map(str, ctx)): [0.0, 1.0, 0.0] if ctx[-1] == 0 else
                [1.0, 0.0, 0.0] for k in range(1, order + 1)
                for ctx in np.ndindex(*(3,) * k)}
        w = build_world(WorldConfig(vocab_size=3, order=order, rows=rows,
                                    initial=[1.0, 0.0, 0.0]), 0)
        with pytest.raises(ImpossibleContextError,
                           match="^context of position 2 has probability zero$"):
            conditional(w, (0, 2, 0, 1), 2)  # 0 -> 2 never happens

    def test_order2_matches_enumeration(self):
        w = build_world(WorldConfig(vocab_size=3, order=2, support=2), 2)
        sent = tuple(sample_corpus_tokens(w, [4], derive_rng(5, "o2"))[0].tolist())
        for pos in range(4):
            np.testing.assert_allclose(conditional(w, sent, pos),
                                       slot_distribution(w, sent, pos), atol=1e-12)


class TestSerialization:
    def test_json_round_trip_exact(self):
        w = build_world(WorldConfig(vocab_size=7, support=3, weight_low=0.05, weight_high=1.0), 13)
        back = world_from_json(world_to_json(w))
        np.testing.assert_array_equal(back.initial, w.initial)
        assert set(back.transitions) == set(w.transitions)
        for ctx, row in w.transitions.items():
            np.testing.assert_array_equal(back.transitions[ctx], row)
        assert world_to_json(back) == world_to_json(w)

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc.clear(), "missing field 'vocab_size'"),
        (lambda doc: doc.update(transitions=[]), "transitions: expected an object, got list"),
        (lambda doc: doc["transitions"].update({"0": "x"}),
         "transitions.0: expected a list, got str"),
        (lambda doc: doc.update(order="1"), "order: expected int, got str"),
        (lambda doc: doc.update(seed=2**63), f"seed: expected an int64 integer, got {2**63}"),
        (lambda doc: doc["initial"].__setitem__(0, float("nan")),
         r"initial\[0\]: expected a finite number, got nan"),
        (lambda doc: doc["transitions"]["1"].__setitem__(0, float("nan")),
         r"transitions.1\[0\]: expected a finite number, got nan"),
        (lambda doc: doc["transitions"]["2"].__setitem__(2, float("inf")),
         r"transitions.2\[2\]: expected a finite number, got inf"),
        (lambda doc: doc["initial"].__setitem__(0, 10**400),
         rf"initial\[0\]: expected an int64 integer, got {10**400}$"),
        (lambda doc: doc["transitions"]["1"].__setitem__(0, 10**400),
         rf"transitions.1\[0\]: expected an int64 integer, got {10**400}$"),
        (lambda doc: doc["transitions"].pop("2"),
         r"world has no transition row for context \(2,\)"),
        (lambda doc: doc["transitions"].update(a=doc["transitions"]["0"]),
         r"transitions\['a'\]: context is not comma-separated integers"),
        (lambda doc: doc["transitions"].update({"7": doc["transitions"]["0"]}),
         r"context \(7,\) has a token outside \[0, 3\)"),
        (lambda doc: doc["transitions"].update({"-1": doc["transitions"]["0"]}),
         r"context \(-1,\) has a token outside \[0, 3\)"),
        (order_2_without("0,1"), r"world has no transition row for context \(0, 1\)"),
        *((lambda doc, key=key: doc["transitions"].update({key: doc["transitions"]["1"]}),
           re.escape(f"transitions[{key!r}]: context is not comma-separated integers as "
                     "world_to_json writes them"))
          for key in ("0,", " 1", "+1", "0_1", "01")),
    ], ids=["empty", "transitions-list", "transition-row-string", "order-string",
            "seed-beyond-int64", "initial-nan", "transition-row-nan",
            "transition-row-infinity", "initial-beyond-float",
            "transition-row-beyond-float", "missing-row", "context-not-integers",
            "context-token-7",
            "context-token-minus-1", "order-2-missing-row", "context-trailing-comma",
            "context-leading-space", "context-plus-sign", "context-underscore",
            "context-leading-zero"])
    def test_load_names_the_file_and_the_field(self, tmp_path, edit, message):
        path = tmp_path / "world.json"
        save_world(uniform_world(), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + message):
            load_world(path)

    def test_load_refuses_a_non_object(self, tmp_path):
        path = tmp_path / "world.json"
        path.write_text("[]")
        with pytest.raises(ValueError, match=re.escape(f"{path}: expected a JSON object")):
            load_world(path)
