"""Reference implementations of the DL selection path.

These are the straightforward forms the runtime ML code must reproduce
bit for bit: a masked two-branch sigmoid, an LSTM step that applies it
to each gate separately, a decoder fed the embedding repeated at every
step, a ``Counter``/dict delta vocabulary, and a fit that trains one
model from scratch per cluster count.  They live in the tests only.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.errors import TrainingError
from repro.ml.adam import Adam
from repro.ml.dlkmeans import (
    AutoencoderConfig,
    DLClusterResult,
    EmbeddingAutoencoder,
)
from repro.ml.kmeans import KMeans
from repro.ml.lstm import LSTMCell, LSTMLayer


def oracle_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, one masked branch per sign."""
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def oracle_cell_forward(cell: LSTMCell, x, h, c):
    """One LSTM step with a sigmoid call per gate; same cache layout."""
    p = cell.params
    gates = x @ p[f"{cell.prefix}.Wx"] + h @ p[f"{cell.prefix}.Wh"]
    gates += p[f"{cell.prefix}.b"]
    hd = cell.hidden_dim
    i = oracle_sigmoid(gates[:, :hd])
    f = oracle_sigmoid(gates[:, hd : 2 * hd])
    g = np.tanh(gates[:, 2 * hd : 3 * hd])
    o = oracle_sigmoid(gates[:, 3 * hd :])
    c_next = f * c + i * g
    tanh_c = np.tanh(c_next)
    h_next = o * tanh_c
    return h_next, c_next, (x, h, c, i, f, g, o, tanh_c)


def oracle_layer_forward(layer: LSTMLayer, x: np.ndarray):
    """Unrolled forward over (batch, time, feature), projecting every step."""
    batch, steps, _features = x.shape
    h = np.zeros((batch, layer.hidden_dim))
    c = np.zeros((batch, layer.hidden_dim))
    outputs = np.empty((batch, steps, layer.hidden_dim))
    caches = []
    for t in range(steps):
        h, c, cache = oracle_cell_forward(layer.cell, x[:, t, :], h, c)
        outputs[:, t, :] = h
        caches.append(cache)
    return outputs, h, caches


def _inputs(model: EmbeddingAutoencoder, delta_ids, vid_ids) -> np.ndarray:
    return np.concatenate(
        [
            model.delta_embedding.forward(delta_ids),
            model.vid_embedding.forward(vid_ids),
        ],
        axis=2,
    )


def oracle_autoencoder_forward(model: EmbeddingAutoencoder, delta_ids, vid_ids):
    """The Fig. 9 forward pass with the embedding repeated over time."""
    _enc_out, z, enc_caches = oracle_layer_forward(
        model.encoder, _inputs(model, delta_ids, vid_ids)
    )
    steps = delta_ids.shape[1]
    decoder_input = np.repeat(z[:, None, :], steps, axis=1)
    dec_out, _h, dec_caches = oracle_layer_forward(model.decoder, decoder_input)
    logits = dec_out @ model.params["out.W"] + model.params["out.b"]
    reconstruction = oracle_sigmoid(logits)
    cache = (delta_ids, vid_ids, enc_caches, dec_caches, dec_out, reconstruction)
    return z, reconstruction, cache


class OracleVocabulary:
    """Top-K deltas by ``Counter.most_common``, looked up in a dict."""

    OOV = 0

    def __init__(self, max_size: int = 256):
        self.max_size = max_size
        self._ids: dict[int, int] = {}

    def fit(self, deltas: np.ndarray) -> "OracleVocabulary":
        counts = Counter(np.asarray(deltas, dtype=np.uint64).tolist())
        most_common = counts.most_common(self.max_size - 1)
        self._ids = {
            delta: index + 1 for index, (delta, _count) in enumerate(most_common)
        }
        return self

    @property
    def size(self) -> int:
        return len(self._ids) + 1

    def encode(self, deltas: np.ndarray) -> np.ndarray:
        return np.fromiter(
            (self._ids.get(int(d), self.OOV) for d in np.asarray(deltas)),
            dtype=np.int64,
            count=len(deltas),
        )

    def coverage(self, deltas: np.ndarray) -> float:
        if len(deltas) == 0:
            return 0.0
        return float((self.encode(deltas) != self.OOV).mean())


def _concat(delta_traces) -> np.ndarray:
    nonempty = [d for d in delta_traces if d.size]
    return np.concatenate(nonempty) if nonempty else np.zeros(0, dtype=np.uint64)


def _sequences(delta_traces, window, config, vocab):
    length = config.sequence_length
    low, high = window
    sequences = []
    for variable_index, deltas in enumerate(delta_traces):
        if deltas.size == 0:
            continue
        if deltas.size < length:
            deltas = np.tile(deltas, -(-length // deltas.size))
        usable = (deltas.size // length) * length
        ids = vocab.encode(deltas[:usable]).reshape(-1, length)
        shifts = np.arange(low, high, dtype=np.uint64)
        bits = ((deltas[:usable, None] >> shifts) & np.uint64(1)).astype(np.float64)
        bits = bits.reshape(-1, length, high - low)
        for row in range(ids.shape[0]):
            sequences.append((variable_index, ids[row], bits[row]))
    if not sequences:
        raise TrainingError("no delta sequences to train on")
    return sequences


def _batch(sequences, indices):
    variable_index = np.array([sequences[i][0] for i in indices])
    delta_ids = np.stack([sequences[i][1] for i in indices])
    targets = np.stack([sequences[i][2] for i in indices])
    vid_ids = np.repeat(variable_index[:, None], delta_ids.shape[1], axis=1)
    return variable_index, delta_ids, vid_ids, targets


def _variable_embeddings(model, sequences, num_variables, config):
    sums = np.zeros((num_variables, config.hidden_dim))
    counts = np.zeros(num_variables)
    for start in range(0, len(sequences), config.batch_size):
        indices = list(range(start, min(start + config.batch_size, len(sequences))))
        variable_index, delta_ids, vid_ids, _targets = _batch(sequences, indices)
        _out, z, _caches = oracle_layer_forward(
            model.encoder, _inputs(model, delta_ids, vid_ids)
        )
        np.add.at(sums, variable_index, z)
        np.add.at(counts, variable_index, 1)
    counts[counts == 0] = 1
    return sums / counts[:, None]


def oracle_fit(
    k: int,
    delta_traces: list[np.ndarray],
    window: tuple[int, int],
    config: AutoencoderConfig,
) -> DLClusterResult:
    """A cold DL-assisted K-Means fit: a fresh model for this one k."""
    num_variables = len(delta_traces)
    all_deltas = _concat(delta_traces)
    vocab = OracleVocabulary(config.delta_vocab).fit(all_deltas)
    sequences = _sequences(delta_traces, window, config, vocab)
    model = EmbeddingAutoencoder(
        delta_vocab_size=vocab.size,
        num_variables=num_variables,
        target_bits=window[1] - window[0],
        config=config,
    )
    optimizer = Adam(model.params, lr=config.learning_rate)
    rng = np.random.default_rng(config.seed)
    history: list[float] = []

    def training_step(dz_fn=None) -> float:
        indices = rng.integers(0, len(sequences), config.batch_size)
        _v, delta_ids, vid_ids, targets = _batch(sequences, indices.tolist())
        z, reconstruction, cache = oracle_autoencoder_forward(
            model, delta_ids, vid_ids
        )
        loss = model.reconstruction_loss(reconstruction, targets)
        dz_extra = None
        if dz_fn is not None:
            dz_extra, cluster_loss = dz_fn(z)
            loss += cluster_loss
        optimizer.step(model.backward(cache, targets, dz_extra=dz_extra))
        return loss

    for _step in range(config.pretrain_steps):
        history.append(training_step())

    effective_k = min(k, num_variables)
    embeddings = _variable_embeddings(model, sequences, num_variables, config)
    centroids = KMeans(effective_k, seed=config.seed).fit(embeddings).centroids

    def cluster_gradient(z):
        assignment = KMeans.assign(z, centroids)
        residual = z - centroids[assignment]
        loss = config.cluster_weight * float((residual**2).mean())
        return 2 * config.cluster_weight * residual / z.size, loss

    for step in range(config.joint_steps):
        history.append(training_step(cluster_gradient))
        if (step + 1) % config.centroid_refresh == 0:
            embeddings = _variable_embeddings(
                model, sequences, num_variables, config
            )
            centroids = KMeans(effective_k, seed=config.seed).fit(embeddings).centroids

    embeddings = _variable_embeddings(model, sequences, num_variables, config)
    final = KMeans(effective_k, seed=config.seed).fit(embeddings)
    return DLClusterResult(
        labels=final.labels,
        embeddings=embeddings,
        centroids=final.centroids,
        loss_history=history,
        vocab_coverage=vocab.coverage(all_deltas),
    )
