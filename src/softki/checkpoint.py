"""Versioned single-file checkpoint format.

Layout: a text header (magic + format version, model variant, sizes,
standardization statistics and scalar hyperparameters in decimal, then a
``sha256`` line) terminated by an ``end-header`` line, then five
length-prefixed little-endian float64 arrays in fixed order:

    z, temperatures, lengthscales, v, p

These are exactly what prediction reads: the points and kernel of phi, and
the fit-time vector v and m x m matrix P of the posterior form (see
posterior.py). The sha256 covers every header line before the ``sha256``
line and the payload, so an edited scalar is detected like a flipped payload
byte. The arrays and the noise and outputscale lines are the fields of the
one ``interp.Hyperparams`` record every model shares, so a checkpoint is read
back the same way whatever its variant, which names the ``posterior.FORMS``
entry prediction uses. temperatures is empty for sgpr and exact; for exact
the z slot holds the training inputs, so m = n.
"""

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .data import Standardization
from .errors import ChecksumOrVersionMismatch
from .interp import Hyperparams
from .kernel import MaternParams
from .posterior import FORMS, Posterior, predict_mean, predict_var

MAGIC = "softki-checkpoint"
VERSION = 2

_ARRAY_ORDER = ("z", "temperatures", "lengthscales", "v", "p")


@dataclass
class Checkpoint:
    variant: str                   # softki | sgpr | exact
    n: int
    m: int
    d: int
    stats: Standardization
    noise: float
    outputscale: float
    z: np.ndarray
    temperatures: np.ndarray       # may be empty
    lengthscales: np.ndarray
    v: np.ndarray
    p: np.ndarray


def _fmt_floats(values) -> str:
    return " ".join(format(float(v), ".17g") for v in np.atleast_1d(values))


def _pack_array(arr: np.ndarray) -> bytes:
    flat = np.ascontiguousarray(np.asarray(arr, dtype="<f8")).ravel()
    return struct.pack("<Q", flat.size) + flat.tobytes()


def save_checkpoint(path, ck: Checkpoint) -> None:
    payload = b"".join(_pack_array(getattr(ck, name)) for name in _ARRAY_ORDER)
    covered = "".join(
        line + "\n"
        for line in (
            f"{MAGIC} v{VERSION}",
            f"variant {ck.variant}",
            f"n {ck.n}",
            f"m {ck.m}",
            f"d {ck.d}",
            f"x_mean {_fmt_floats(ck.stats.x_mean)}",
            f"x_std {_fmt_floats(ck.stats.x_std)}",
            f"y_mean {_fmt_floats(ck.stats.y_mean)}",
            f"y_std {_fmt_floats(ck.stats.y_std)}",
            f"noise {_fmt_floats(ck.noise)}",
            f"outputscale {_fmt_floats(ck.outputscale)}",
        )
    ).encode("ascii")
    digest = hashlib.sha256(covered + payload).hexdigest()
    with open(path, "wb") as fh:
        fh.write(covered)
        fh.write(f"sha256 {digest}\nend-header\n".encode("ascii"))
        fh.write(payload)


def _read_arrays(buf: bytes):
    arrays = []
    off = 0
    for _ in _ARRAY_ORDER:
        if off + 8 > len(buf):
            raise ChecksumOrVersionMismatch("truncated checkpoint payload")
        (count,) = struct.unpack_from("<Q", buf, off)
        off += 8
        end = off + 8 * count
        if end > len(buf):
            raise ChecksumOrVersionMismatch("truncated checkpoint payload")
        arrays.append(np.frombuffer(buf[off:end], dtype="<f8").copy())
        off = end
    if off != len(buf):
        raise ChecksumOrVersionMismatch("trailing bytes after checkpoint payload")
    return arrays


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    marker = b"end-header\n"
    cut = blob.find(marker)
    if cut < 0:
        raise ChecksumOrVersionMismatch("missing checkpoint header terminator")
    # the sha256 line is the last header line; it covers the lines before it
    sha_at = blob.rfind(b"\n", 0, max(cut - 1, 0)) + 1
    covered, sha_line = blob[:sha_at], blob[sha_at:cut - 1]
    payload = blob[cut + len(marker):]
    head = covered.decode("ascii", errors="replace").splitlines()

    if not head or head[0] != f"{MAGIC} v{VERSION}":
        raise ChecksumOrVersionMismatch(
            f"expected '{MAGIC} v{VERSION}', got {head[0] if head else 'empty file'!r}"
        )
    fields = {}
    for line in head[1:]:
        key, _, rest = line.partition(" ")
        fields[key] = rest

    # the scalars are parsed before the checksum is compared, so a missing or
    # unparsable key is named in the error
    try:
        n, m, d = (int(fields[k]) for k in ("n", "m", "d"))
        scalars = dict(
            variant=fields["variant"], n=n, m=m, d=d,
            stats=Standardization(
                x_mean=np.array([float(s) for s in fields["x_mean"].split()]),
                x_std=np.array([float(s) for s in fields["x_std"].split()]),
                y_mean=float(fields["y_mean"]),
                y_std=float(fields["y_std"]),
            ),
            noise=float(fields["noise"]),
            outputscale=float(fields["outputscale"]),
        )
        digest = hashlib.sha256(covered + payload).hexdigest()
        if sha_line != f"sha256 {digest}".encode("ascii"):
            raise ChecksumOrVersionMismatch(
                "sha256 does not match the checkpoint header and payload")
        z, temps, ells, v, p = _read_arrays(payload)
        return Checkpoint(**scalars, z=z.reshape(m, d), temperatures=temps,
                          lengthscales=ells, v=v.reshape(m), p=p.reshape(m, m))
    except KeyError as err:
        raise ChecksumOrVersionMismatch(
            f"checkpoint header lacks {err.args[0]!r}") from None
    except ValueError as err:
        raise ChecksumOrVersionMismatch(f"malformed checkpoint header: {err}") from None


def bundle(post: Posterior, stats: Standardization, n: int) -> Checkpoint:
    """The checkpoint of a fitted posterior trained on n points."""
    hp = post.hp
    return Checkpoint(
        variant=post.variant,
        n=n,
        m=hp.z.shape[0],
        d=hp.z.shape[1],
        stats=stats,
        noise=hp.noise,
        outputscale=hp.kernel.outputscale,
        z=hp.z,
        temperatures=hp.temperatures,
        lengthscales=hp.kernel.lengthscales,
        v=post.v,
        p=post.p,
    )


def bundle_softki(post: Posterior, stats: Standardization, n: int) -> Checkpoint:
    return bundle(post, stats, n)


def bundle_sgpr(post: Posterior, stats: Standardization, n: int) -> Checkpoint:
    return bundle(post, stats, n)


def to_posterior(ck: Checkpoint) -> Posterior:
    """The fitted posterior a checkpoint stores."""
    if ck.variant not in FORMS:
        raise ChecksumOrVersionMismatch(f"unknown checkpoint variant {ck.variant!r}")
    kernel = MaternParams(lengthscales=ck.lengthscales, outputscale=ck.outputscale)
    hp = Hyperparams(noise=ck.noise, kernel=kernel, z=ck.z, temperatures=ck.temperatures)
    return Posterior(ck.variant, hp, ck.v, ck.p)


def restore(ck: Checkpoint):
    """Rebuild a predictor (predict_mean/predict_var pair) from a checkpoint."""
    post = to_posterior(ck)
    return (lambda xs: predict_mean(post, xs)), (lambda xs: predict_var(post, xs))
