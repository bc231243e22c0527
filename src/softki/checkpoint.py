"""Versioned single-file checkpoint format.

``Checkpoint(posterior, stats, n)`` holds a fitted ``posterior.Posterior``,
the standardization statistics of its training split and the training-set
size. On disk it is a text header (magic + format version, variant, n, m, d,
the statistics, noise and outputscale in decimal, then a ``sha256`` line)
ended by an ``end-header`` line, then five length-prefixed little-endian
float64 arrays: z, temperatures, lengthscales, v, p. These are exactly what
prediction reads: the arrays of the posterior's ``interp.Hyperparams`` and
its fit-time v and m x m p, which is softki's upper root T and SGPR's and
exact's P (see posterior.py). temperatures is empty for sgpr and exact; for
exact z holds the training inputs, so m = n. p is stored and read back
C-ordered, the layout the live posterior holds it in.

``load_checkpoint`` raises ``ChecksumOrVersionMismatch``, naming the field,
for a wrong magic or version (a v2 file holds P where softki's root now is,
a v1 file an older checksum; neither is converted), a missing or unparsable
header key, a sha256 that does not match the header lines above it and the
payload (so an edited scalar is caught like a flipped payload byte), a
truncated or overlong payload, and then, so that a file with a recomputed
sha256 is still caught where it is read: a variant ``posterior.FORMS`` does
not know, a training-set size n < 1 (or n != m for exact, whose points are
its inputs), an array whose size does not fit the variant, m and d (x_mean,
x_std and lengthscales have d entries; temperatures has d for softki and
none for sgpr and exact), a nan or inf in v or p, a softki root with a
non-zero entry below its diagonal (which prediction's triangular product
would silently ignore), and any value the rebuilt ``Standardization``,
``MaternParams`` and ``Hyperparams`` records reject (nan, inf or values <= 0
in noise, outputscale, the stds and temperatures; nan or inf in z and the
means; lengthscales outside their bounds).
"""

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .data import Standardization
from .errors import ChecksumOrVersionMismatch, SoftKIError
from .interp import Hyperparams
from .kernel import MaternParams
from .posterior import FORMS, Posterior, predict_mean, predict_var

MAGIC = "softki-checkpoint"
VERSION = 3

_ARRAY_ORDER = ("z", "temperatures", "lengthscales", "v", "p")


@dataclass
class Checkpoint:
    posterior: Posterior
    stats: Standardization
    n: int                         # training-set size

    @property
    def noise(self) -> float:
        """Benchmark shim: perfbench/worker.py reads ``load_checkpoint(...).noise``."""
        return self.posterior.hp.noise


def _fmt_floats(values) -> str:
    return " ".join(format(float(v), ".17g") for v in np.atleast_1d(values))


def _pack_array(arr: np.ndarray) -> bytes:
    flat = np.ascontiguousarray(np.asarray(arr, dtype="<f8")).ravel()
    return struct.pack("<Q", flat.size) + flat.tobytes()


def save_checkpoint(path, ck: Checkpoint) -> None:
    post, hp = ck.posterior, ck.posterior.hp
    m, d = hp.z.shape
    arrays = (hp.z, hp.temperatures, hp.kernel.lengthscales, post.v, post.p)
    payload = b"".join(map(_pack_array, arrays))
    covered = "".join(
        line + "\n"
        for line in (
            f"{MAGIC} v{VERSION}",
            f"variant {post.variant}",
            f"n {ck.n}",
            f"m {m}",
            f"d {d}",
            f"x_mean {_fmt_floats(ck.stats.x_mean)}",
            f"x_std {_fmt_floats(ck.stats.x_std)}",
            f"y_mean {_fmt_floats(ck.stats.y_mean)}",
            f"y_std {_fmt_floats(ck.stats.y_std)}",
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
            f"expected '{MAGIC} v{VERSION}', got {head[0] if head else 'empty file'!r}")
    fields = dict(line.partition(" ")[::2] for line in head[1:])

    # the scalars are parsed before the checksum is compared, so a missing or
    # unparsable key is named in the error
    try:
        variant = fields["variant"]
        n, m, d = (int(fields[k]) for k in ("n", "m", "d"))
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

    if variant not in FORMS:
        raise ChecksumOrVersionMismatch(f"unknown checkpoint variant {variant!r}")
    if n < 1 or (variant == "exact" and n != m):
        raise ChecksumOrVersionMismatch(
            f"checkpoint n = {n} must be >= 1, and equal m = {m} for exact")
    arrays = dict(zip(_ARRAY_ORDER, _read_arrays(payload)), x_mean=x_mean, x_std=x_std)
    shapes = (("z", (m, d)), ("v", (m,)), ("p", (m, m)), ("lengthscales", (d,)),
              ("temperatures", (d if variant == "softki" else 0,)),
              ("x_mean", (d,)), ("x_std", (d,)))
    for name, shape in shapes:
        if min(shape) < 0 or arrays[name].size != np.prod(shape):
            raise ChecksumOrVersionMismatch(
                f"checkpoint {name} has {arrays[name].size} values, but a {variant} "
                f"file with m={m} and d={d} needs {shape}")
        arrays[name] = arrays[name].reshape(shape)
    for name in ("v", "p"):
        if not np.all(np.isfinite(arrays[name])):
            raise ChecksumOrVersionMismatch(f"checkpoint {name} has non-finite entries")
    if variant == "softki" and np.any(np.tril(arrays["p"], -1)):
        raise ChecksumOrVersionMismatch(
            "checkpoint p, softki's upper root T, has non-zero entries below its diagonal")
    # each record checks its own fields; their messages name the field
    try:
        stats = Standardization(arrays["x_mean"], arrays["x_std"], y_mean, y_std)
        kernel = MaternParams(arrays["lengthscales"], outputscale)
        hp = Hyperparams(noise, kernel, arrays["z"], arrays["temperatures"])
    except SoftKIError as err:
        raise ChecksumOrVersionMismatch(f"invalid checkpoint: {err}") from None
    return Checkpoint(Posterior(variant, hp, arrays["v"], arrays["p"]), stats, n)


# benchmark shims: perfbench/worker.py calls these two
def bundle_softki(post: Posterior, stats: Standardization, n: int) -> Checkpoint:
    return Checkpoint(post, stats, n)


def bundle_sgpr(post: Posterior, stats: Standardization, n: int) -> Checkpoint:
    return Checkpoint(post, stats, n)


def restore(ck: Checkpoint):
    """A predictor (predict_mean/predict_var pair) from a checkpoint."""
    post = ck.posterior
    return (lambda xs: predict_mean(post, xs)), (lambda xs: predict_var(post, xs))
