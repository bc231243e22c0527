"""Versioned single-file checkpoint format.

A checkpoint is a fitted ``posterior.Posterior``: its model, hyperparameters,
v and m x m p, and the standardization statistics of its training data.
``save_checkpoint(path, post)`` writes it and ``load_checkpoint(path)``
returns it, so what is loaded is what ``predict`` takes. On disk it is a text
header (magic + format version, variant, m, d, the statistics, noise and
outputscale in decimal, then a ``sha256`` line) ended by an ``end-header``
line, then five length-prefixed little-endian float64 arrays: z,
temperatures, lengthscales, v, p. These are exactly what prediction reads:
the arrays of the posterior's ``interp.Hyperparams`` and its fit-time v and
p, which is softki's upper root T and SGPR's and exact's P (see
posterior.py). The variant is a key of ``posterior.MODELS``. p is stored and
read back C-ordered, the layout the live posterior holds it in.

``load_checkpoint`` checks only the file format. It raises
``ChecksumOrVersionMismatch``, naming the field, for a wrong magic or version
(a v3 file carries a training-set size that nothing read, a v2 file holds P
where softki's root now is, a v1 file an older checksum; none is converted),
a missing or unparsable header key, a sha256 that does not match the header
lines above it and the payload (so an edited scalar is caught like a flipped
payload byte), a truncated or overlong payload, a variant ``posterior.MODELS``
does not know, and a z or p whose size is not m x d or m x m. Every other
refusal comes from the rebuilt ``Standardization``, ``MaternParams``,
``Hyperparams`` and ``Posterior`` records, whose messages name the field and
which ``load_checkpoint`` raises as ``ChecksumOrVersionMismatch``, so that a
file with a recomputed sha256 is still caught where it is read: nan, inf or
values <= 0 in noise, outputscale, the stds and temperatures; nan or inf in
z, the means, v and p; lengthscales other than d or outside their bounds;
temperatures other than the variant learns (d for softki, none for sgpr and
exact); no points; statistics of another d; a softki root with a non-zero
entry below its diagonal.
"""

import hashlib
import struct
from dataclasses import replace

import numpy as np

from .data import Standardization
from .errors import ChecksumOrVersionMismatch, SoftKIError
from .interp import Hyperparams
from .kernel import MaternParams
from .posterior import MODELS, Posterior, predict_mean, predict_var

MAGIC = "softki-checkpoint"
VERSION = 4

_ARRAY_ORDER = ("z", "temperatures", "lengthscales", "v", "p")


def _fmt_floats(values) -> str:
    return " ".join(format(float(v), ".17g") for v in np.atleast_1d(values))


def _pack_array(arr: np.ndarray) -> bytes:
    flat = np.ascontiguousarray(np.asarray(arr, dtype="<f8")).ravel()
    return struct.pack("<Q", flat.size) + flat.tobytes()


def save_checkpoint(path, post: Posterior) -> None:
    hp, stats = post.hp, post.stats
    m, d = hp.z.shape
    arrays = (hp.z, hp.temperatures, hp.kernel.lengthscales, post.v, post.p)
    payload = b"".join(map(_pack_array, arrays))
    covered = "".join(
        line + "\n"
        for line in (
            f"{MAGIC} v{VERSION}",
            f"variant {post.variant}",
            f"m {m}",
            f"d {d}",
            f"x_mean {_fmt_floats(stats.x_mean)}",
            f"x_std {_fmt_floats(stats.x_std)}",
            f"y_mean {_fmt_floats(stats.y_mean)}",
            f"y_std {_fmt_floats(stats.y_std)}",
            f"noise {_fmt_floats(hp.noise)}",
            f"outputscale {_fmt_floats(hp.kernel.outputscale)}",
        )
    ).encode("ascii")
    digest = hashlib.sha256(covered + payload).hexdigest()
    with open(path, "wb") as fh:
        fh.write(covered)
        fh.write(f"sha256 {digest}\nend-header\n".encode("ascii"))
        fh.write(payload)


def _read_arrays(buf: bytes):
    arrays, off = [], 0
    try:
        for _ in _ARRAY_ORDER:
            (count,) = struct.unpack_from("<Q", buf, off)
            arrays.append(np.frombuffer(buf, "<f8", count, off + 8).copy())
            off += 8 + 8 * count
    except (struct.error, ValueError, OverflowError):  # a prefix or an array overruns
        raise ChecksumOrVersionMismatch("truncated checkpoint payload") from None
    if off != len(buf):
        raise ChecksumOrVersionMismatch("trailing bytes after checkpoint payload")
    return arrays


def load_checkpoint(path) -> Posterior:
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
            f"expected '{MAGIC} v{VERSION}', got {head[0] if head else 'empty file'!r}")
    fields = dict(line.partition(" ")[::2] for line in head[1:])

    # the scalars are parsed before the checksum is compared, so a missing or
    # unparsable key is named in the error
    try:
        variant = fields["variant"]
        m, d = (int(fields[k]) for k in ("m", "d"))
        x_mean, x_std = (np.array([float(s) for s in fields[k].split()])
                         for k in ("x_mean", "x_std"))
        y_mean, y_std, noise, outputscale = (
            float(fields[k]) for k in ("y_mean", "y_std", "noise", "outputscale"))
    except KeyError as err:
        raise ChecksumOrVersionMismatch(
            f"checkpoint header lacks {err.args[0]!r}") from None
    except ValueError as err:
        raise ChecksumOrVersionMismatch(f"malformed checkpoint header: {err}") from None
    digest = hashlib.sha256(covered + payload).hexdigest()
    if sha_line != f"sha256 {digest}".encode("ascii"):
        raise ChecksumOrVersionMismatch(
            "sha256 does not match the checkpoint header and payload")

    if variant not in MODELS:
        raise ChecksumOrVersionMismatch(f"unknown checkpoint variant {variant!r}")
    arrays = dict(zip(_ARRAY_ORDER, _read_arrays(payload)))
    for name, shape in (("z", (m, d)), ("p", (m, m))):
        if min(shape) < 0 or arrays[name].size != np.prod(shape):
            raise ChecksumOrVersionMismatch(
                f"checkpoint {name} has {arrays[name].size} values, but m={m} "
                f"and d={d} need {shape}")
        arrays[name] = arrays[name].reshape(shape)
    # each record checks its own fields; their messages name the field
    try:
        stats = Standardization(x_mean, x_std, y_mean, y_std)
        kernel = MaternParams(arrays["lengthscales"], outputscale)
        hp = Hyperparams(noise, kernel, arrays["z"], arrays["temperatures"])
        return Posterior(variant, hp, arrays["v"], arrays["p"], stats)
    except SoftKIError as err:
        raise ChecksumOrVersionMismatch(f"invalid checkpoint: {err}") from None


# benchmark shims: perfbench/worker.py calls these two; n is not stored
def bundle_softki(post: Posterior, stats: Standardization, n: int) -> Posterior:
    return replace(post, stats=stats)


def bundle_sgpr(post: Posterior, stats: Standardization, n: int) -> Posterior:
    return replace(post, stats=stats)


def restore(post: Posterior):
    """A predictor (predict_mean/predict_var pair) from a posterior."""
    return (lambda xs: predict_mean(post, xs)), (lambda xs: predict_var(post, xs))
