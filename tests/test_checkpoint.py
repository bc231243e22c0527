"""Checkpoint serialization: round trips, tamper detection, restore parity."""

import hashlib
import struct

import numpy as np
import pytest

from softki import fit_qr
from softki.baselines import sgpr_fit
from softki.checkpoint import (MAGIC, VERSION, Checkpoint, load_checkpoint, restore,
                               save_checkpoint)
from softki.cli import main
from softki.data import Dataset, ricker_dataset
from softki.errors import ChecksumOrVersionMismatch
from softki.interp import Hyperparams
from softki.kernel import MaternParams
from softki.objective import _dense_gp
from softki.posterior import MODELS, fit, predict, predict_mean, predict_var


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(0)
    train, test = ricker_dataset(n_train=120, n_test=30, radius=2.5, seed=0)
    hp = Hyperparams(
        noise=0.2,
        kernel=MaternParams(lengthscales=[1.0, 1.2], outputscale=0.8),
        z=rng.standard_normal((10, 2)),
        temperatures=[1.0, 0.7],
    )
    return train, test, fit_qr(train, hp)


def test_round_trip_preserves_every_field(tmp_path, fitted):
    train, _, post = fitted
    ck = Checkpoint(post, train.stats, len(train))
    path = tmp_path / "model.bin"
    save_checkpoint(path, ck)
    back = load_checkpoint(path)
    got = back.posterior
    assert got.variant == "softki" and back.n == ck.n
    assert got.hp.noise == post.hp.noise == back.noise
    assert got.hp.kernel.outputscale == post.hp.kernel.outputscale
    pairs = {
        "z": (got.hp.z, post.hp.z),
        "temperatures": (got.hp.temperatures, post.hp.temperatures),
        "lengthscales": (got.hp.kernel.lengthscales, post.hp.kernel.lengthscales),
        "v": (got.v, post.v),
        "p": (got.p, post.p),
    }
    for name, (back_value, live_value) in pairs.items():
        assert np.array_equal(back_value, live_value), name
    # softki's p is its upper root T, held in the layout ?trmm reads uncopied
    assert np.array_equal(got.p, np.triu(got.p))
    assert got.p.flags.c_contiguous and post.p.flags.c_contiguous
    assert np.array_equal(back.stats.x_mean, ck.stats.x_mean)
    assert np.array_equal(back.stats.x_std, ck.stats.x_std)
    assert back.stats.y_mean == ck.stats.y_mean
    assert back.stats.y_std == ck.stats.y_std


def test_save_is_byte_deterministic(tmp_path, fitted):
    train, _, post = fitted
    ck = Checkpoint(post, train.stats, len(train))
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(a, ck)
    save_checkpoint(b, ck)
    assert a.read_bytes() == b.read_bytes()


def fit_variant(variant, fitted):
    train, _, post = fitted
    kernel = MaternParams(lengthscales=[1.0, 1.0], outputscale=1.0)
    if variant == "sgpr":
        hp = Hyperparams(noise=0.3, kernel=kernel,
                         z=np.random.default_rng(1).standard_normal((6, 2)))
        return sgpr_fit(train, hp), len(train)
    if variant == "exact":
        hp = Hyperparams(noise=0.1, kernel=kernel, z=np.empty((0, 2)))
        return fit("exact", Dataset(train.x[:40], train.y[:40]), hp), 40
    return post, len(train)


@pytest.mark.parametrize("variant", list(MODELS))
def test_restore_matches_the_live_posterior(tmp_path, fitted, variant):
    train, test, _ = fitted
    post, n = fit_variant(variant, fitted)
    path = tmp_path / "model.bin"
    save_checkpoint(path, Checkpoint(post, train.stats, n))
    loaded = load_checkpoint(path)
    back = loaded.posterior
    m = post.hp.z.shape[0]
    assert back.variant == variant and loaded.n == n
    assert back.p.shape == (m, m) and back.v.shape == (m,)
    assert back.hp.temperatures.size == (2 if variant == "softki" else 0)
    mean_fn, var_fn = restore(loaded)
    assert np.array_equal(mean_fn(test.x), predict_mean(post, test.x))
    var = var_fn(test.x)
    assert np.array_equal(var, predict_var(post, test.x))
    assert np.all(var >= 0)


def test_exact_fit_is_the_dense_posterior_on_the_inputs_and_round_trips(tmp_path, fitted):
    # a record with 16 points of its own: the exact GP's points are still its
    # 120 inputs, so its checkpoint holds n = m = 120
    train, test, _ = fitted
    hp = Hyperparams(noise=0.2, kernel=MaternParams(lengthscales=[1.0, 1.2], outputscale=0.8),
                     z=np.random.default_rng(2).standard_normal((16, 2)))
    post = fit("exact", train, hp)
    _, v, p, _ = _dense_gp(train.x, train.y, hp.noise * hp.noise, hp.kernel)
    assert post.variant == "exact" and np.array_equal(post.hp.z, train.x)
    assert np.array_equal(post.v, v) and np.array_equal(post.p, p)
    path = tmp_path / "exact.bin"
    save_checkpoint(path, Checkpoint(post, train.stats, len(train)))
    back = load_checkpoint(path).posterior
    assert back.variant == "exact" and np.array_equal(back.hp.z, train.x)
    for got, want in zip(predict(back, test.x), predict(post, test.x)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("variant", ["sgpr", "exact"])
def test_a_fit_keeps_only_the_temperatures_its_model_learns(tmp_path, fitted, variant):
    # softki's record, temperatures and all, fit as a model without them
    train, test, softki_post = fitted
    post = fit(variant, train, softki_post.hp)
    assert post.hp.temperatures.shape == (0,)
    path = tmp_path / f"{variant}.bin"
    save_checkpoint(path, Checkpoint(post, train.stats, len(train)))
    back = load_checkpoint(path).posterior
    assert np.array_equal(predict_mean(back, test.x), predict_mean(post, test.x))


# ----------------------------------------------------------------- tampering


def saved_bytes(tmp_path, fitted):
    train, _, post = fitted
    path = tmp_path / "model.bin"
    save_checkpoint(path, Checkpoint(post, train.stats, len(train)))
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
    # v1 files (sha256 over the payload only) are rejected, not read
    path.write_bytes(blob.replace(f"{MAGIC} v{VERSION}".encode(), f"{MAGIC} v1".encode(), 1))
    with pytest.raises(ChecksumOrVersionMismatch):
        load_checkpoint(path)
    path.write_bytes(blob.replace(MAGIC.encode(), b"other-format", 1))
    with pytest.raises(ChecksumOrVersionMismatch):
        load_checkpoint(path)
    path.write_bytes(b"no header terminator at all")
    with pytest.raises(ChecksumOrVersionMismatch):
        load_checkpoint(path)


def test_internally_truncated_payload_is_detected(tmp_path, fitted):
    # a file whose checksum is valid but whose length prefix overruns
    path, blob = saved_bytes(tmp_path, fitted)
    covered = blob[:blob.find(b"sha256 ")]
    payload = struct.pack("<Q", 100)  # claims 100 floats, provides none
    digest = hashlib.sha256(covered + payload).hexdigest()
    path.write_bytes(covered + f"sha256 {digest}\nend-header\n".encode() + payload)
    with pytest.raises(ChecksumOrVersionMismatch, match="truncated"):
        load_checkpoint(path)


def test_resealed_trailing_bytes_are_detected(tmp_path, fitted):
    # a file whose checksum is valid but whose payload runs on past its arrays
    path, blob = saved_bytes(tmp_path, fitted)
    covered = blob[:blob.find(b"sha256 ")]
    payload = blob[blob.find(b"end-header\n") + len(b"end-header\n"):] + b"junk"
    digest = hashlib.sha256(covered + payload).hexdigest()
    path.write_bytes(covered + f"sha256 {digest}\nend-header\n".encode() + payload)
    with pytest.raises(ChecksumOrVersionMismatch, match="trailing bytes"):
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


@pytest.mark.parametrize("key", ["noise", "outputscale", "y_std"])
def test_tampered_header_scalar_is_detected(tmp_path, fitted, key):
    path, blob = saved_bytes(tmp_path, fitted)
    start = blob.index(f"\n{key} ".encode()) + 1
    end = blob.index(b"\n", start)
    assert blob[start:end] != f"{key} 0.5".encode()
    path.write_bytes(blob[:start] + f"{key} 0.5".encode() + blob[end:])
    with pytest.raises(ChecksumOrVersionMismatch, match="sha256"):
        load_checkpoint(path)


ARRAY_ORDER = ("z", "temperatures", "lengthscales", "v", "p")


def reseal(path, lines=None, arrays=None):
    """Rewrite a saved checkpoint with header values and payload arrays
    replaced, and its sha256 recomputed, so that only the checks on the
    fields themselves can reject it. lines maps a header key to its new text;
    arrays maps an array name to a function of the stored flat array."""
    head, _, payload = path.read_bytes().partition(b"end-header\n")
    header = []
    for line in head.decode().splitlines()[:-1]:       # drop the sha256 line
        key = line.partition(" ")[0]
        header.append(f"{key} {lines[key]}" if lines and key in lines else line)
    packed, off = [], 0
    for name in ARRAY_ORDER:
        (count,) = struct.unpack_from("<Q", payload, off)
        flat = np.frombuffer(payload, "<f8", count, off + 8).copy()
        off += 8 + 8 * count
        if arrays and name in arrays:
            flat = np.asarray(arrays[name](flat), dtype="<f8")
        packed.append(struct.pack("<Q", flat.size) + flat.tobytes())
    covered = "".join(line + "\n" for line in header).encode()
    body = b"".join(packed)
    digest = hashlib.sha256(covered + body).hexdigest()
    path.write_bytes(covered + f"sha256 {digest}\nend-header\n".encode() + body)


def with_nan_at(index):
    def edit(flat):
        flat[index] = np.nan
        return flat
    return edit


# (header edits, array edits, the field the error must name)
RESEALED = {
    "noise-nan": ({"noise": "nan"}, None, "noise"),
    "noise-negative": ({"noise": "-1"}, None, "noise"),
    "noise-inf": ({"noise": "inf"}, None, "noise"),
    "p-nan": (None, {"p": with_nan_at(3)}, r"\bp\b"),
    # p[1, 0] of softki's upper root T, which prediction's ?trmm never reads
    "softki-root-below-diagonal": (
        None, {"p": lambda flat: flat + (np.arange(flat.size) == 10)},
        "checkpoint p, softki's upper root T, has non-zero entries below its diagonal"),
    "lengthscale-nan": (None, {"lengthscales": with_nan_at(0)}, "lengthscales"),
    "x_mean-one-entry": ({"x_mean": "0.5"}, None, "x_mean"),
    "variant-mystery": ({"variant": "mystery"}, None, "variant"),
    "n-negative": ({"n": "-7"}, None, r"\bn\b"),
    "n-zero": ({"n": "0"}, None, r"\bn\b"),
    "exact-n-not-m": ({"variant": "exact"}, None, r"\bn\b"),   # n = 120, m = 10
    "softki-no-temperatures": (None, {"temperatures": lambda flat: flat[:0]},
                               "temperatures"),
    "sgpr-with-temperatures": ({"variant": "sgpr"}, None, "temperatures"),  # d = 2 kept
    # loaded, it predicted nan mean and variance at every query
    "temperature-overflowing": (None, {"temperatures": lambda flat: flat * 1e-300},
                                "temperatures"),
}


@pytest.mark.parametrize("case", list(RESEALED))
def test_resealed_bad_field_is_rejected(tmp_path, fitted, case):
    lines, arrays, field = RESEALED[case]
    path, _ = saved_bytes(tmp_path, fitted)
    reseal(path, lines, arrays)
    with pytest.raises(ChecksumOrVersionMismatch, match=field):
        load_checkpoint(path)
    out = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(path), "--out", str(out)]) == 1
    error = (out / "error.txt").read_text()
    assert "error = ChecksumOrVersionMismatch" in error


def test_resealed_sgpr_point_that_overflows_the_distance_is_rejected(tmp_path):
    # loaded, the posterior would predict nan mean and variance at every query
    train, _ = ricker_dataset(n_train=40, n_test=5, radius=2.5, seed=0)
    hp = Hyperparams(noise=0.2, kernel=MaternParams(lengthscales=[1.0, 1.2], outputscale=0.8),
                     z=train.x[:4])
    path = tmp_path / "sgpr.bin"
    save_checkpoint(path, Checkpoint(sgpr_fit(train, hp), train.stats, len(train)))

    def far(flat):
        flat[5] = 1e200                                 # z[2, 1]
        return flat

    reseal(path, arrays={"z": far})
    with pytest.raises(ChecksumOrVersionMismatch, match=r"z row 2 \(0-based\)"):
        load_checkpoint(path)


def test_a_v2_file_is_refused_naming_its_version(tmp_path, fitted):
    # the same arrays under a resealed v2 header: its p was softki's P, which
    # read as the root T would predict wrong variances without any error
    assert VERSION == 3
    path, _ = saved_bytes(tmp_path, fitted)
    reseal(path, {MAGIC: "v2"})
    with pytest.raises(ChecksumOrVersionMismatch,
                       match=f"expected '{MAGIC} v3', got '{MAGIC} v2'"):
        load_checkpoint(path)


def test_reseal_alone_keeps_a_valid_checkpoint(tmp_path, fitted):
    path, blob = saved_bytes(tmp_path, fitted)
    reseal(path)
    assert path.read_bytes() == blob
