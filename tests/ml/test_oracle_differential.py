"""Differential tests: the DL selection path against the reference forms.

Every comparison is bitwise (through ``.view(np.uint64)``), not
approximate: the fast path must change how the numbers are computed,
never which numbers come out.  The references live in
:mod:`tests.ml.oracles`.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ml.dlkmeans import AutoencoderConfig, DLAssistedKMeans, DLPretrainCache
from repro.ml.embedding import DeltaVocabulary
from repro.ml.lstm import LSTMLayer, sigmoid
from tests.ml.oracles import (
    OracleVocabulary,
    oracle_fit,
    oracle_layer_forward,
    oracle_sigmoid,
)

SPECIALS = np.array(
    [
        0.0, -0.0, 710.0, -710.0, 709.78, -745.2, np.inf, -np.inf,
        np.nan, -np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 36.7, -36.7,
    ]
)
# NaNs with a payload, quiet and signalling, both signs.
PAYLOAD_NANS = np.array(
    [0x7FF8DEAD00000000, 0xFFF8000000000123, 0x7FF0000000000001],
    dtype=np.uint64,
).view(np.float64)


def bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


def assert_bitwise(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    np.testing.assert_array_equal(bits(got), bits(want))


any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


class TestSigmoid:
    def test_special_values(self):
        x = np.concatenate([SPECIALS, PAYLOAD_NANS])
        assert_bitwise(sigmoid(x), oracle_sigmoid(x))

    def test_large_array(self):
        x = np.random.default_rng(0).normal(0, 40, 100_001)
        assert_bitwise(sigmoid(x), oracle_sigmoid(x))

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=2), elements=any_float))
    def test_any_array(self, x):
        assert_bitwise(sigmoid(x), oracle_sigmoid(x))

    @settings(max_examples=100, deadline=None)
    @given(
        hnp.arrays(np.float64, (9, 24), elements=any_float),
        st.integers(0, 5),
        st.integers(1, 4),
    )
    def test_strided_slices(self, x, start, step):
        view = x[:, start::step]
        assert_bitwise(sigmoid(view), oracle_sigmoid(view))


def make_layer(input_dim: int, hidden: int, seed: int) -> LSTMLayer:
    return LSTMLayer(input_dim, hidden, {}, "L", np.random.default_rng(seed))


def assert_same_caches(got, want) -> None:
    assert len(got) == len(want)
    for step_got, step_want in zip(got, want):
        for g, w in zip(step_got, step_want):
            assert_bitwise(g, w)


def assert_same_backward(layer, got_caches, want_caches, d_outputs, dh_last):
    got_grads, want_grads = {}, {}
    got = layer.backward(d_outputs, dh_last, got_caches, got_grads)
    want = layer.backward(d_outputs, dh_last, want_caches, want_grads)
    for g, w in zip(got, want):
        assert_bitwise(g, w)
    assert got_grads.keys() == want_grads.keys()
    for name in want_grads:
        assert_bitwise(got_grads[name], want_grads[name])


layer_shapes = st.tuples(
    st.integers(1, 6),  # batch
    st.integers(1, 7),  # steps
    st.integers(1, 5),  # input dim
    st.integers(1, 6),  # hidden
    st.integers(0, 2**16),  # seed
    st.floats(0.1, 30.0),  # input scale
)


class TestLSTMLayer:
    @settings(max_examples=60, deadline=None)
    @given(layer_shapes)
    def test_sequence_forward_and_backward(self, shape):
        batch, steps, features, hidden, seed, scale = shape
        layer = make_layer(features, hidden, seed)
        rng = np.random.default_rng(seed + 1)
        x = rng.normal(0, scale, (batch, steps, features))
        out, h, caches = layer.forward(x)
        want_out, want_h, want_caches = oracle_layer_forward(layer, x)
        assert_bitwise(out, want_out)
        assert_bitwise(h, want_h)
        assert_same_caches(caches, want_caches)
        d_out = rng.normal(size=out.shape)
        dh = rng.normal(size=h.shape)
        assert_same_backward(layer, caches, want_caches, d_out, dh)

    @settings(max_examples=60, deadline=None)
    @given(layer_shapes)
    def test_constant_input_decoder_path(self, shape):
        """An input held over time is projected once, with equal bits."""
        batch, steps, features, hidden, seed, scale = shape
        layer = make_layer(features, hidden, seed)
        rng = np.random.default_rng(seed + 1)
        z = rng.normal(0, scale, (batch, features))
        repeated = np.repeat(z[:, None, :], steps, axis=1)
        out, h, caches = layer.forward(repeated, constant=True)
        want_out, want_h, want_caches = oracle_layer_forward(layer, repeated)
        assert_bitwise(out, want_out)
        assert_bitwise(h, want_h)
        assert_same_caches(caches, want_caches)
        d_out = rng.normal(size=out.shape)
        assert_same_backward(layer, caches, want_caches, d_out, None)


delta_values = st.lists(
    st.sampled_from([0, 1, 2, 3, 64, 4096, 2**40, 2**63, 2**64 - 1]),
    max_size=80,
)


class TestVocabulary:
    @settings(max_examples=150, deadline=None)
    @given(delta_values, delta_values, st.integers(2, 8))
    def test_ids_and_ties_match_counter(self, fitted, probed, max_size):
        fit = np.array(fitted, dtype=np.uint64)
        probe = np.array(fitted + probed, dtype=np.uint64)
        vocab = DeltaVocabulary(max_size).fit(fit)
        oracle = OracleVocabulary(max_size).fit(fit)
        assert vocab.size == oracle.size
        ids = vocab.encode(probe)
        assert ids.dtype == np.int64
        np.testing.assert_array_equal(ids, oracle.encode(probe))
        assert vocab.coverage(probe) == oracle.coverage(probe)

    def test_random_deltas(self):
        rng = np.random.default_rng(3)
        deltas = rng.integers(0, 600, 50_000).astype(np.uint64) << np.uint64(6)
        vocab = DeltaVocabulary(256).fit(deltas)
        oracle = OracleVocabulary(256).fit(deltas)
        np.testing.assert_array_equal(vocab.encode(deltas), oracle.encode(deltas))


TINY = AutoencoderConfig(
    sequence_length=8,
    delta_embed_dim=4,
    vid_embed_dim=2,
    hidden_dim=4,
    delta_vocab=8,
    pretrain_steps=4,
    joint_steps=4,
    batch_size=4,
    centroid_refresh=2,
)


def assert_same_result(got, want) -> None:
    np.testing.assert_array_equal(got.labels, want.labels)
    assert_bitwise(got.embeddings, want.embeddings)
    assert_bitwise(got.centroids, want.centroids)
    assert_bitwise(np.array(got.loss_history), np.array(want.loss_history))
    assert got.vocab_coverage == want.vocab_coverage


stride_traces = st.lists(
    st.tuples(st.sampled_from([1, 2, 4, 8, 16, 128]), st.integers(2, 40)),
    min_size=1,
    max_size=5,
)


def traces_of(spec) -> list[np.ndarray]:
    out = []
    for stride, count in spec:
        addresses = np.arange(count, dtype=np.uint64) * np.uint64(stride * 64)
        out.append(addresses[1:] ^ addresses[:-1])
    return out


class TestSharedPretrain:
    @settings(max_examples=12, deadline=None)
    @given(stride_traces, st.integers(0, 3), st.sampled_from([0, 3, 4]))
    def test_shared_pretrain_equals_cold_fits(self, spec, seed, joint_steps):
        traces = traces_of(spec)
        config = replace(TINY, seed=seed, joint_steps=joint_steps)
        cache = DLPretrainCache()
        ks = (1, 2, len(traces), len(traces) + 3)
        for index, k in enumerate(ks):
            got = DLAssistedKMeans(k, config).fit(traces, pretrain_cache=cache)
            assert got.pretrain_reused == (index > 0)
            assert_same_result(got, oracle_fit(k, traces, (6, 21), config))

    def test_cold_fit_equals_oracle(self):
        traces = traces_of([(1, 40), (16, 30), (128, 9)])
        got = DLAssistedKMeans(2, TINY).fit(traces)
        assert not got.pretrain_reused
        assert_same_result(got, oracle_fit(2, traces, (6, 21), TINY))

    def test_other_inputs_miss_and_the_cache_is_bounded(self):
        cache = DLPretrainCache()
        fits = [traces_of([(s, 20), (2 * s, 20)]) for s in (1, 2, 4)]
        for traces in fits:
            result = DLAssistedKMeans(1, TINY).fit(traces, pretrain_cache=cache)
            assert not result.pretrain_reused
        assert len(cache) == DLPretrainCache.MAX_ENTRIES == 2
        # The oldest entry was evicted; the newest still serves.
        assert not DLAssistedKMeans(2, TINY).fit(
            fits[0], pretrain_cache=cache
        ).pretrain_reused
        assert DLAssistedKMeans(2, TINY).fit(
            fits[2], pretrain_cache=cache
        ).pretrain_reused
        other_window = DLAssistedKMeans(2, TINY).fit(
            fits[2], window=(6, 20), pretrain_cache=cache
        )
        assert not other_window.pretrain_reused
