"""Checkpoint serialization: round trips, tamper detection, restore parity."""

import hashlib
import struct

import numpy as np
import pytest

from softki import fit_qr
from softki.baselines import (
    ExactGP,
    SGPRHyperparams,
    sgpr_fit,
    sgpr_predict_mean,
    sgpr_predict_var,
)
from softki.checkpoint import (
    MAGIC,
    Checkpoint,
    bundle_exact,
    bundle_sgpr,
    bundle_softki,
    load_checkpoint,
    restore,
    save_checkpoint,
)
from softki.data import Dataset, ricker_dataset
from softki.errors import ChecksumOrVersionMismatch
from softki.interp import InterpolationState
from softki.kernel import MaternParams
from softki.objective import SoftKIHyperparams
from softki.posterior import predict_mean, predict_var


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(0)
    train, test = ricker_dataset(n_train=120, n_test=30, radius=2.5, seed=0)
    hp = SoftKIHyperparams(
        noise=0.2,
        kernel=MaternParams(lengthscales=[1.0, 1.2], outputscale=0.8),
        interp=InterpolationState(z=rng.standard_normal((10, 2)),
                                  temperatures=[1.0, 0.7]),
    )
    return train, test, fit_qr(train, hp)


def test_round_trip_preserves_every_field(tmp_path, fitted):
    train, _, post = fitted
    ck = bundle_softki(post, train.stats, len(train))
    path = tmp_path / "model.bin"
    save_checkpoint(path, ck)
    back = load_checkpoint(path)
    assert back.variant == "softki"
    assert (back.n, back.m, back.d) == (ck.n, ck.m, ck.d)
    assert back.noise == ck.noise and back.outputscale == ck.outputscale
    for name in ("z", "temperatures", "lengthscales", "u_zz", "r", "alpha"):
        assert np.array_equal(getattr(back, name), getattr(ck, name)), name
    assert np.array_equal(back.stats.x_mean, ck.stats.x_mean)
    assert np.array_equal(back.stats.x_std, ck.stats.x_std)
    assert back.stats.y_mean == ck.stats.y_mean
    assert back.stats.y_std == ck.stats.y_std


def test_save_is_byte_deterministic(tmp_path, fitted):
    train, _, post = fitted
    ck = bundle_softki(post, train.stats, len(train))
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(a, ck)
    save_checkpoint(b, ck)
    assert a.read_bytes() == b.read_bytes()


def test_restore_matches_the_live_posterior(tmp_path, fitted):
    train, test, post = fitted
    path = tmp_path / "model.bin"
    save_checkpoint(path, bundle_softki(post, train.stats, len(train)))
    mean_fn, var_fn = restore(load_checkpoint(path))
    assert np.array_equal(mean_fn(test.x), predict_mean(post, test.x))
    assert np.array_equal(var_fn(test.x), predict_var(post, test.x))


def test_sgpr_and_exact_variants_restore(tmp_path, fitted):
    train, test, _ = fitted
    rng = np.random.default_rng(1)
    hp = SGPRHyperparams(
        noise=0.3,
        kernel=MaternParams(lengthscales=[1.0, 1.0], outputscale=1.0),
        z=rng.standard_normal((6, 2)),
    )
    post = sgpr_fit(train, hp, solver="qr")
    path = tmp_path / "sgpr.bin"
    save_checkpoint(path, bundle_sgpr(post, train.stats, len(train)))
    loaded = load_checkpoint(path)
    assert loaded.variant == "sgpr" and loaded.temperatures.size == 0
    mean_fn, var_fn = restore(loaded)
    assert np.array_equal(mean_fn(test.x), sgpr_predict_mean(post, test.x))
    assert np.array_equal(var_fn(test.x), sgpr_predict_var(post, test.x))

    small = Dataset(train.x[:40], train.y[:40])
    gp = ExactGP.fit(small, 0.1,
                     MaternParams(lengthscales=[1.0, 1.0], outputscale=1.0))
    path = tmp_path / "exact.bin"
    save_checkpoint(path, bundle_exact(gp, train.stats))
    loaded = load_checkpoint(path)
    assert loaded.variant == "exact"
    assert loaded.z.shape == (40, 2) and loaded.u_zz.shape == (40, 40)
    assert loaded.r.shape == (0, 0)
    mean_fn, var_fn = restore(loaded)
    assert np.array_equal(mean_fn(test.x), gp.predict_mean(test.x))
    assert np.array_equal(var_fn(test.x), gp.predict_var(test.x))


# ----------------------------------------------------------------- tampering


def saved_bytes(tmp_path, fitted):
    train, _, post = fitted
    path = tmp_path / "model.bin"
    save_checkpoint(path, bundle_softki(post, train.stats, len(train)))
    return path, path.read_bytes()


def test_flipped_payload_byte_is_detected(tmp_path, fitted):
    path, blob = saved_bytes(tmp_path, fitted)
    cut = blob.find(b"end-header\n") + len(b"end-header\n")
    corrupt = bytearray(blob)
    corrupt[cut + 20] ^= 0xFF
    path.write_bytes(bytes(corrupt))
    with pytest.raises(ChecksumOrVersionMismatch):
        load_checkpoint(path)


def test_truncated_and_extended_files_are_detected(tmp_path, fitted):
    path, blob = saved_bytes(tmp_path, fitted)
    path.write_bytes(blob[:-10])
    with pytest.raises(ChecksumOrVersionMismatch):
        load_checkpoint(path)
    path.write_bytes(blob + b"junk")
    with pytest.raises(ChecksumOrVersionMismatch):
        load_checkpoint(path)


def test_version_and_magic_are_checked(tmp_path, fitted):
    path, blob = saved_bytes(tmp_path, fitted)
    path.write_bytes(blob.replace(f"{MAGIC} v1".encode(), f"{MAGIC} v2".encode(), 1))
    with pytest.raises(ChecksumOrVersionMismatch):
        load_checkpoint(path)
    path.write_bytes(blob.replace(MAGIC.encode(), b"other-format", 1))
    with pytest.raises(ChecksumOrVersionMismatch):
        load_checkpoint(path)
    path.write_bytes(b"no header terminator at all")
    with pytest.raises(ChecksumOrVersionMismatch):
        load_checkpoint(path)


def test_internally_truncated_payload_is_detected(tmp_path, fitted):
    # a payload whose checksum is valid but whose length prefix overruns
    path, blob = saved_bytes(tmp_path, fitted)
    head_end = blob.find(b"end-header\n") + len(b"end-header\n")
    payload = struct.pack("<Q", 100)  # claims 100 floats, provides none
    digest = hashlib.sha256(payload).hexdigest()
    head = blob[:head_end].decode()
    head = "\n".join(
        f"sha256 {digest}" if line.startswith("sha256 ") else line
        for line in head.splitlines()
    ) + "\n"
    path.write_bytes(head.encode() + payload)
    with pytest.raises(ChecksumOrVersionMismatch, match="truncated"):
        load_checkpoint(path)


@pytest.mark.parametrize("old, new", [
    (b"\nn ", b"\nsize "),                    # required key missing
    (b"\nm ", b"\nm twelve "),               # count does not parse
    (b"\nnoise ", b"\nnoise loud "),         # scalar does not parse
    (b"\nd ", b"\nd 7"),                     # sizes do not fit the payload
])
def test_malformed_header_is_detected(tmp_path, fitted, old, new):
    path, blob = saved_bytes(tmp_path, fitted)
    assert blob.count(old) == 1
    path.write_bytes(blob.replace(old, new))
    with pytest.raises(ChecksumOrVersionMismatch, match="header"):
        load_checkpoint(path)


def test_restore_rejects_unknown_variant(fitted):
    train, _, post = fitted
    ck = bundle_softki(post, train.stats, len(train))
    mystery = Checkpoint(**{**ck.__dict__, "variant": "mystery"})
    with pytest.raises(ChecksumOrVersionMismatch):
        restore(mystery)
