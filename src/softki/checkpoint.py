"""Versioned single-file checkpoint format.

Layout: a text header (magic + format version, model variant, sizes,
standardization statistics and scalar hyperparameters in decimal, payload
sha256) terminated by an ``end-header`` line, then six length-prefixed
little-endian float64 arrays in fixed order:

    z, temperatures, lengthscales, u_zz, r, alpha

Variants that lack an array (temperatures for sgpr/exact, r for exact) store
it with length 0. For the exact variant the z slot holds the training inputs,
u_zz the Cholesky factor of K + noise^2 I, and alpha the representer weights.
"""

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .data import Standardization
from .errors import ChecksumOrVersionMismatch

MAGIC = "softki-checkpoint"
VERSION = 1

_ARRAY_ORDER = ("z", "temperatures", "lengthscales", "u_zz", "r", "alpha")


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
    u_zz: np.ndarray
    r: np.ndarray                  # may be empty
    alpha: np.ndarray


def _fmt_floats(values) -> str:
    return " ".join(format(float(v), ".17g") for v in np.atleast_1d(values))


def _pack_array(arr: np.ndarray) -> bytes:
    flat = np.ascontiguousarray(np.asarray(arr, dtype="<f8")).ravel()
    return struct.pack("<Q", flat.size) + flat.tobytes()


def save_checkpoint(path, ck: Checkpoint) -> None:
    payload = b"".join(_pack_array(getattr(ck, name)) for name in _ARRAY_ORDER)
    digest = hashlib.sha256(payload).hexdigest()
    header = "\n".join(
        [
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
            f"sha256 {digest}",
            "end-header",
            "",
        ]
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
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
    head = blob[:cut].decode("ascii", errors="replace").splitlines()
    payload = blob[cut + len(marker):]

    if not head or head[0] != f"{MAGIC} v{VERSION}":
        raise ChecksumOrVersionMismatch(
            f"expected '{MAGIC} v{VERSION}', got {head[0] if head else 'empty file'!r}"
        )
    fields = {}
    for line in head[1:]:
        key, _, rest = line.partition(" ")
        fields[key] = rest

    digest = hashlib.sha256(payload).hexdigest()
    if fields.get("sha256") != digest:
        raise ChecksumOrVersionMismatch("payload sha256 does not match header")

    z, temps, ells, u_zz, r, alpha = _read_arrays(payload)
    # the checksum covers the payload only, so a damaged header surfaces here
    try:
        n, m, d = (int(fields[k]) for k in ("n", "m", "d"))
        stats = Standardization(
            x_mean=np.array([float(v) for v in fields["x_mean"].split()]),
            x_std=np.array([float(v) for v in fields["x_std"].split()]),
            y_mean=float(fields["y_mean"]),
            y_std=float(fields["y_std"]),
        )
        rows = n if fields["variant"] == "exact" else m
        return Checkpoint(
            variant=fields["variant"],
            n=n,
            m=m,
            d=d,
            stats=stats,
            noise=float(fields["noise"]),
            outputscale=float(fields["outputscale"]),
            z=z.reshape(rows, d),
            temperatures=temps,
            lengthscales=ells,
            u_zz=u_zz.reshape(rows, rows),
            r=r.reshape(m, m) if r.size else r.reshape(0, 0),
            alpha=alpha,
        )
    except KeyError as err:
        raise ChecksumOrVersionMismatch(
            f"checkpoint header lacks {err.args[0]!r}") from None
    except ValueError as err:
        raise ChecksumOrVersionMismatch(f"malformed checkpoint header: {err}") from None


def _bundle(variant: str, stats: Standardization, n: int, noise: float, kernel,
            z: np.ndarray, u_zz: np.ndarray, r: np.ndarray, alpha: np.ndarray,
            temperatures: np.ndarray | None = None) -> Checkpoint:
    return Checkpoint(
        variant=variant,
        n=n,
        m=z.shape[0],
        d=z.shape[1],
        stats=stats,
        noise=noise,
        outputscale=kernel.outputscale,
        z=z,
        temperatures=np.empty(0) if temperatures is None else temperatures,
        lengthscales=kernel.lengthscales,
        u_zz=u_zz,
        r=r,
        alpha=alpha,
    )


def bundle_softki(post, stats: Standardization, n: int) -> Checkpoint:
    hp = post.hp
    return _bundle("softki", stats, n, hp.noise, hp.kernel, hp.interp.z,
                   post.u_zz, post.r, post.alpha, hp.interp.temperatures)


def bundle_sgpr(post, stats: Standardization, n: int) -> Checkpoint:
    hp = post.hp
    return _bundle("sgpr", stats, n, hp.noise, hp.kernel, hp.z,
                   post.u_zz, post.factor, post.alpha)


def bundle_exact(gp, stats: Standardization) -> Checkpoint:
    return _bundle("exact", stats, gp.x.shape[0], gp.noise, gp.kernel, gp.x,
                   gp.u, np.empty((0, 0)), gp.alpha)


def restore(ck: Checkpoint):
    """Rebuild a predictor (predict_mean/predict_var pair) from a checkpoint."""
    from .baselines import ExactGP, SGPRHyperparams, SGPRPosterior
    from .baselines import sgpr_predict_mean, sgpr_predict_var
    from .interp import InterpolationState
    from .kernel import MaternParams
    from .objective import SoftKIHyperparams
    from .posterior import FittedPosterior, predict_mean, predict_var

    kernel = MaternParams(lengthscales=ck.lengthscales, outputscale=ck.outputscale)
    if ck.variant == "softki":
        hp = SoftKIHyperparams(
            noise=ck.noise,
            kernel=kernel,
            interp=InterpolationState(z=ck.z, temperatures=ck.temperatures),
        )
        post = FittedPosterior(hp=hp, u_zz=ck.u_zz, r=ck.r, alpha=ck.alpha)
        return (lambda xs: predict_mean(post, xs)), (lambda xs: predict_var(post, xs))
    if ck.variant == "sgpr":
        post = SGPRPosterior(
            hp=SGPRHyperparams(noise=ck.noise, kernel=kernel, z=ck.z),
            u_zz=ck.u_zz, factor=ck.r, alpha=ck.alpha,
        )
        return (lambda xs: sgpr_predict_mean(post, xs)), (
            lambda xs: sgpr_predict_var(post, xs)
        )
    if ck.variant == "exact":
        gp = ExactGP(x=ck.z, noise=ck.noise, kernel=kernel, u=ck.u_zz,
                     alpha=ck.alpha)
        return gp.predict_mean, gp.predict_var
    raise ChecksumOrVersionMismatch(f"unknown checkpoint variant {ck.variant!r}")
