"""Binary and probabilistic subnetwork masks.

A MaskSet holds one {0,1} matrix per maskable weight tensor (biases are never
masked). A ProbabilitySet holds per-entry retention probabilities in [0,1]
together with the binary terminal mask each entry anneals toward. Applying a
mask is a Hadamard product that leaves the stored weights untouched, so
while a mask is stochastic its masked-off parameters keep their values and
can reactivate later. A permanent mask is instead burned into the weights
once (``training.run_epoch``), which zeroes its masked-off parameters.

Masks and network weights serialize to a small binary container: magic
``SSAM``, version u32, entry count u32, then per entry name length u32 +
UTF-8 name bytes + rank u32 + dims (u64 each) + raw values, all
little-endian, every field read by ``data.read_array``. Mask entries store
u8 values, weight entries f64 (a float32 weight widens to f64 exactly, so
it loads back bit for bit).
"""

from __future__ import annotations

import functools
import math
import struct

import numpy as np

from .data import read_array
from .nn.layers import views

MAGIC = b"SSAM"
VERSION = 1


class MaskSet:
    """Per-layer binary masks: exact 0/1 uint8 values in one read-only
    array, ``flat``, viewed per name in ``masks``. Built from a dict of
    name -> array, or viewing a flat uint8 or bool array in ``shapes``'
    order. Nothing writes into a mask, so masks are shared, not copied."""

    def __init__(self, masks, shapes: dict | None = None):
        if shapes is None:
            shapes = {name: np.shape(m) for name, m in masks.items()}
            masks = np.concatenate([np.ravel(m) for m in masks.values()]
                                   or [np.zeros(0, np.uint8)])
        flat = np.asarray(masks)
        if flat.dtype == np.bool_:
            flat = flat.view(np.uint8)  # 0/1 by construction
        elif flat.size and not (flat.max() <= 1 if flat.dtype == np.uint8
                                else np.isin(flat, (0, 1)).all()):
            raise ValueError("mask has non-binary entries")
        self.flat = flat.astype(np.uint8, copy=False).view()
        self.flat.flags.writeable = False
        self.shapes = shapes
        self.masks = dict(zip(shapes, views(self.flat, shapes.values())))

    def __getitem__(self, name: str) -> np.ndarray:
        return self.masks[name]

    def __iter__(self):
        return iter(self.masks)

    def items(self):
        return self.masks.items()

    def sparsity(self) -> float:
        """Fraction of masked-off entries over all maskable parameters."""
        return (self.flat.size - int(self.flat.sum())) / self.flat.size

    def complement(self) -> "MaskSet":
        return MaskSet(1 - self.flat, self.shapes)


class ProbabilitySet:
    """Per-layer retention probabilities plus the binary annealing target:
    float64 values in one read-only array, ``flat``, in the terminal's
    order (a float64 array is viewed, not copied)."""

    def __init__(self, flat, terminal: MaskSet):
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != terminal.flat.shape:
            raise ValueError("probability and terminal sizes differ")
        if flat.size and (flat.min() < 0.0 or flat.max() > 1.0):
            raise ValueError("probabilities outside [0, 1]")
        self.flat = flat.view()
        self.flat.flags.writeable = False
        self.shapes = terminal.shapes
        self.terminal = terminal

    def mean(self) -> float:
        """Expected active fraction over all maskable parameters."""
        layers = views(self.flat, self.shapes.values())
        return sum(float(p.sum()) for p in layers) / self.flat.size


def realize(probs: ProbabilitySet, rng: np.random.Generator) -> MaskSet:
    """One Bernoulli realization: entry i is active with probability P_i.

    Each call draws fresh uniforms in one array, one per entry in order.
    """
    return MaskSet(rng.random(probs.flat.size) < probs.flat, probs.shapes)


def apply_mask(w: np.ndarray, m: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Hadamard product w * m, written to ``out`` when given (computed in
    the promoted dtype, then rounded to ``out``'s). ``w`` itself is not
    modified."""
    if w.shape != m.shape:
        raise ValueError(f"weight shape {w.shape} != mask shape {m.shape}")
    return np.multiply(w, m, out=out)


def masked_grad(grad: np.ndarray, m: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """Zero the gradient of masked-off parameters: grad * m, written to
    ``out`` when given (``out=grad`` masks in place)."""
    if grad.shape != m.shape:
        raise ValueError(f"grad shape {grad.shape} != mask shape {m.shape}")
    return np.multiply(grad, m, out=out)


def full_mask(shapes: dict) -> MaskSet:
    return MaskSet(np.ones(sum(map(math.prod, shapes.values())), np.uint8),
                   shapes)


# --- binary container -------------------------------------------------------

def _write_container(path, entries: list) -> None:
    """Write a container (layout in the module docstring) holding each
    ``(name, array, kind)`` of ``entries``, kind "u8" or "f64"."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(entries)))
        for name, arr, kind in entries:
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<Q", d))
            fh.write(arr.astype("<u1" if kind == "u8" else "<f8").tobytes())


class ContainerError(ValueError):
    """Malformed container file; the message names the failing byte offset."""
    truncated = ("truncated container: expected {n} bytes for {what} at "
                 "offset {offset}")


def _read_entries(path, kind: str) -> dict:
    """Every entry of the container ``path``, each of ``kind``."""
    entries = {}
    dtype = "<u1" if kind == "u8" else "<f8"
    with open(path, "rb") as fh:
        read = functools.partial(read_array, fh, error=ContainerError)
        magic = read((4,), "u1", "magic").tobytes()
        if magic != MAGIC:
            raise ContainerError(f"bad magic {magic!r} at offset 0")
        version = int(read((), "<u4", "version"))
        if version != VERSION:
            raise ContainerError(f"unsupported version {version} at offset 4")
        for _ in range(int(read((), "<u4", "entry count"))):
            nlen = int(read((), "<u4", "name length"))
            at = fh.tell()
            raw = read((nlen,), "u1", "name")
            try:
                name = raw.tobytes().decode("utf-8")
            except UnicodeDecodeError as err:
                raise ContainerError(f"name at offset {at} is not UTF-8: "
                                     f"{err}") from None
            rank = int(read((), "<u4", "rank"))
            at = fh.tell()
            dims = read((rank,), "<u8", "dims").tolist()
            entries[name] = read(dims, dtype, f"values of {name!r}",
                                 shape_what=f"dims of {name!r} at offset {at}")
    return entries


def save_mask_set(ms: MaskSet, path) -> None:
    _write_container(path, [(name, m, "u8") for name, m in ms.items()])


def load_mask_set(path) -> MaskSet:
    return MaskSet(_read_entries(path, "u8"))


def save_weights(params: dict, path) -> None:
    """Store named float tensors (network parameters) in the container."""
    _write_container(path, [(name, np.asarray(p), "f64")
                            for name, p in params.items()])


def load_weights(path) -> dict:
    return _read_entries(path, "f64")
