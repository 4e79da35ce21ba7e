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
name bytes + rank u32 + dims (u64 each) + raw values, all little-endian.
Mask entries store u8 values, weight entries f64 (a float32 weight widens
to f64 exactly, so it loads back bit for bit).
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .nn.layers import views

MAGIC = b"SSAM"
VERSION = 1


class MaskSet:
    """Per-layer binary masks: exact 0/1 uint8 values in one array, ``flat``,
    viewed per name in ``masks``. Built from a dict of name -> array, or
    from a flat uint8 or bool array (not copied) in ``shapes``' order."""

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
        self.flat = flat.astype(np.uint8, copy=False)
        self.shapes = shapes
        self.masks = dict(zip(shapes, views(self.flat, shapes.values())))

    def __getitem__(self, name: str) -> np.ndarray:
        return self.masks[name]

    def __iter__(self):
        return iter(self.masks)

    def items(self):
        return self.masks.items()

    def total(self) -> int:
        return self.flat.size

    def zeros(self) -> int:
        return self.flat.size - int(self.flat.sum())

    def sparsity(self) -> float:
        """Fraction of masked-off entries over all maskable parameters."""
        return self.zeros() / self.total()

    def complement(self) -> "MaskSet":
        return MaskSet(1 - self.flat, self.shapes)

    def copy(self) -> "MaskSet":
        return MaskSet(self.flat.copy(), self.shapes)


class ProbabilitySet:
    """Per-layer retention probabilities plus the binary annealing target:
    float64 values in one array, ``flat``, in the terminal's order, viewed
    per name in ``probs``. Built from a dict, or a flat float64 array (not
    copied)."""

    def __init__(self, probs, terminal: MaskSet):
        if isinstance(probs, dict):
            if {n: np.shape(p) for n, p in probs.items()} != terminal.shapes:
                raise ValueError("probability and terminal names or shapes differ")
            probs = np.concatenate([np.ravel(probs[n]) for n in terminal]
                                   or [np.zeros(0)], dtype=np.float64)
        flat = np.asarray(probs, dtype=np.float64)
        if flat.shape != terminal.flat.shape:
            raise ValueError("probability and terminal sizes differ")
        if flat.size and (flat.min() < 0.0 or flat.max() > 1.0):
            raise ValueError("probabilities outside [0, 1]")
        self.flat = flat
        self.shapes = terminal.shapes
        self.probs = dict(zip(self.shapes, views(flat, self.shapes.values())))
        self.terminal = terminal

    def __getitem__(self, name: str) -> np.ndarray:
        return self.probs[name]

    def items(self):
        return self.probs.items()

    def mean(self) -> float:
        """Expected active fraction over all maskable parameters."""
        return sum(float(p.sum()) for p in self.probs.values()) / self.flat.size

    def is_binary(self) -> bool:
        return bool(np.isin(self.flat, (0.0, 1.0)).all())

    def copy(self) -> "ProbabilitySet":
        return ProbabilitySet(self.flat.copy(), self.terminal.copy())


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
    return MaskSet({name: np.ones(shape, dtype=np.uint8)
                    for name, shape in shapes.items()})


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


def _read_exact(fh, n: int, what: str) -> bytes:
    """``n`` bytes of ``fh``, read only if the file holds that many."""
    offset = fh.tell()
    data = fh.read(n) if n <= os.fstat(fh.fileno()).st_size - offset else b""
    if len(data) != n:
        raise ContainerError(
            f"truncated container: expected {n} bytes for {what} at offset {offset}")
    return data


def _read_entries(path, kind: str) -> dict:
    """Every entry of the container ``path``, each of ``kind``."""
    entries = {}
    dtype = "<u1" if kind == "u8" else "<f8"
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != MAGIC:
            raise ContainerError(f"bad magic {magic!r} at offset 0")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != VERSION:
            raise ContainerError(f"unsupported version {version} at offset 4")
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "entry count"))
        for _ in range(count):
            (nlen,) = struct.unpack("<I", _read_exact(fh, 4, "name length"))
            name = _read_exact(fh, nlen, "name").decode("utf-8")
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, "rank"))
            offset = fh.tell()
            dims = struct.unpack(f"<{rank}Q", _read_exact(fh, 8 * rank, "dims"))
            # exact: a product of u64 dims may not fit any numpy integer
            nbytes = np.dtype(dtype).itemsize * math.prod(dims)
            raw = _read_exact(fh, nbytes, f"values of {name!r}")
            try:
                values = np.frombuffer(raw, dtype=dtype).reshape(dims)
            except ValueError as err:  # no bytes, but dims numpy cannot hold
                raise ContainerError(f"dims of {name!r} at offset {offset} "
                                     f"do not fit an array: {err}") from None
            entries[name] = values.copy()
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
