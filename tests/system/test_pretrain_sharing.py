"""Session scope of the shared DL pretraining.

A session's runner owns one :class:`~repro.ml.dlkmeans.DLPretrainCache`:
DL cells of one workload at different k share the autoencoder
pretraining, nothing is shared between sessions or into pooled
workers, and sharing never changes a result.
"""

import pytest

import repro.service.tenant as tenant_mod
from repro import Session
from repro.errors import TrainingError
from repro.ml.dlkmeans import AutoencoderConfig, EmbeddingAutoencoder
from repro.system import RetryPolicy
from repro.workloads import MixedStrideWorkload, StridedCopyWorkload

TINY_DL = AutoencoderConfig(
    pretrain_steps=4,
    joint_steps=4,
    hidden_dim=8,
    delta_embed_dim=4,
    vid_embed_dim=2,
    batch_size=8,
    centroid_refresh=2,
)
SYSTEMS = ["bs_dm", "sdm_bsm_dl4", "sdm_bsm_dl32"]


def small_workloads():
    return [
        MixedStrideWorkload(strides=(1, 4, 16), accesses_per_stride=600),
        StridedCopyWorkload(stride_lines=8, accesses_per_thread=600),
    ]


def session(workers: int = 0) -> Session:
    return Session(cache_dir=None, workers=workers, dl_config=TINY_DL)


@pytest.fixture
def dl_selections(monkeypatch):
    """(workload, k, pretrain_reused) of every DL selection, in order."""
    seen = []
    original = tenant_mod.select_mappings_dl

    def recording(profile, k, *args, **kwargs):
        selection = original(profile, k, *args, **kwargs)
        seen.append((profile.name, k, selection.details["pretrain_reused"]))
        return selection

    monkeypatch.setattr(tenant_mod, "select_mappings_dl", recording)
    return seen


def test_dl4_and_dl32_share_one_pretrain_per_workload(dl_selections):
    workloads = small_workloads()
    sweep = session().sweep(workloads, systems=SYSTEMS)
    assert not sweep.errors
    assert dl_selections == [
        (w.name, k, k == 32) for w in workloads for k in (4, 32)
    ]
    dl_results = [
        row[label]
        for row in sweep.table.results.values()
        for label in row
        if "DL" in label
    ]
    assert len(dl_results) == 4
    for result in dl_results:
        assert "pretrain_reused" not in str(result.fingerprint())


def test_two_sessions_never_share_a_pretrain(dl_selections):
    workloads = small_workloads()[:1]
    first, second = session(), session()
    assert first.runner.pretrain_cache is not second.runner.pretrain_cache
    a = first.sweep(workloads, systems=SYSTEMS)
    assert len(first.runner.pretrain_cache) == 1
    assert len(second.runner.pretrain_cache) == 0
    b = second.sweep(workloads, systems=SYSTEMS)
    assert [reused for _w, _k, reused in dl_selections] == [
        False, True, False, True
    ]
    assert a.table.fingerprint() == b.table.fingerprint()


def test_serial_and_pooled_sweeps_are_identical():
    workloads = small_workloads()
    serial = session().sweep(workloads, systems=SYSTEMS)
    pooled_session = session(workers=2)
    pooled = pooled_session.sweep(workloads, systems=SYSTEMS)
    assert not serial.errors and not pooled.errors
    assert serial.table.fingerprint() == pooled.table.fingerprint()
    # Pooled cells train in their workers; the session's cache stays empty.
    assert len(pooled_session.runner.pretrain_cache) == 0


def test_failing_dl_fit_is_a_per_cell_selection_error(monkeypatch):
    def diverge(self, *args, **kwargs):
        raise TrainingError("loss diverged")

    monkeypatch.setattr(EmbeddingAutoencoder, "backward", diverge)
    runner_session = Session(
        cache_dir=None, workers=0, retry=RetryPolicy.none(), dl_config=TINY_DL
    )
    workloads = small_workloads()[:1]
    sweep = runner_session.sweep(workloads, systems=SYSTEMS)
    assert sorted(e.system for e in sweep.errors) == ["sdm_bsm_dl32", "sdm_bsm_dl4"]
    for error in sweep.errors:
        assert error.stage == "selection"
        assert error.error_type == "TrainingError"
        assert "loss diverged" in error.message
    assert "BS+DM" in sweep.table.results[workloads[0].name]
    assert len(runner_session.runner.pretrain_cache) == 0
