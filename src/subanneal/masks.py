"""Binary and probabilistic subnetwork masks.

A MaskSet holds one {0,1} matrix per maskable weight tensor (biases are never
masked). A ProbabilitySet holds per-entry retention probabilities in [0,1]
together with the binary terminal mask each entry anneals toward. Applying a
mask is a Hadamard product that leaves the stored weights untouched, so
masked-off parameters keep their values and can reactivate later.

Both serialize to a small binary container: magic ``SSAM``, version u32,
entry count u32, then per entry name length u32 + name bytes + rank u32 +
dims (u64 each) + raw values, all little-endian. Mask entries store u8
values; probability and weight entries store f64. A ProbabilitySet file
carries its terminal mask as extra u8 entries named ``<layer>::terminal``
(the layout has no per-entry dtype field, so the suffix marks them).
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"SSAM"
VERSION = 1
TERMINAL_SUFFIX = "::terminal"


class MaskSet:
    """Per-layer binary masks, stored as uint8 arrays of exact 0/1."""

    def __init__(self, masks: dict):
        clean = {}
        for name, m in masks.items():
            a = np.asarray(m)
            if a.dtype in (np.bool_, np.uint8):
                # unsigned: the range check is the whole check
                binary = a.size == 0 or a.max() <= 1
            else:
                binary = np.isin(a, (0, 1)).all()
            if not binary:
                raise ValueError(f"mask {name!r} has non-binary entries")
            clean[name] = a.astype(np.uint8)
        self.masks = clean

    def __getitem__(self, name: str) -> np.ndarray:
        return self.masks[name]

    def __iter__(self):
        return iter(self.masks)

    def items(self):
        return self.masks.items()

    def total(self) -> int:
        return sum(int(m.size) for m in self.masks.values())

    def zeros(self) -> int:
        return sum(int(m.size - m.sum()) for m in self.masks.values())

    def sparsity(self) -> float:
        """Fraction of masked-off entries over all maskable parameters."""
        return self.zeros() / self.total()

    def complement(self) -> "MaskSet":
        return MaskSet({name: 1 - m for name, m in self.masks.items()})

    def overlap(self, other: "MaskSet") -> int:
        """Number of positions active in both masks."""
        return sum(int((m & other.masks[name]).sum())
                   for name, m in self.masks.items())

    def equals(self, other: "MaskSet") -> bool:
        return self.masks.keys() == other.masks.keys() and all(
            np.array_equal(m, other.masks[name]) for name, m in self.masks.items())

    def copy(self) -> "MaskSet":
        return MaskSet({name: m.copy() for name, m in self.masks.items()})


class ProbabilitySet:
    """Per-layer retention probabilities plus the binary annealing target."""

    def __init__(self, probs: dict, terminal: MaskSet):
        if set(probs) != set(terminal.masks):
            raise ValueError("probability and terminal layer names differ")
        clean = {}
        for name, p in probs.items():
            a = np.asarray(p, dtype=np.float64)
            if a.min() < 0.0 or a.max() > 1.0:
                raise ValueError(f"probabilities {name!r} outside [0, 1]")
            if a.shape != terminal[name].shape:
                raise ValueError(f"{name!r}: probs shape {a.shape} != terminal "
                                 f"shape {terminal[name].shape}")
            clean[name] = a
        self.probs = clean
        self.terminal = terminal

    def __getitem__(self, name: str) -> np.ndarray:
        return self.probs[name]

    def items(self):
        return self.probs.items()

    def mean(self) -> float:
        """Expected active fraction over all maskable parameters."""
        total = sum(int(p.size) for p in self.probs.values())
        return sum(float(p.sum()) for p in self.probs.values()) / total

    def is_binary(self) -> bool:
        return all(np.isin(p, (0.0, 1.0)).all() for p in self.probs.values())

    def copy(self) -> "ProbabilitySet":
        return ProbabilitySet({n: p.copy() for n, p in self.probs.items()},
                              self.terminal.copy())


def realize(probs: ProbabilitySet, rng: np.random.Generator) -> MaskSet:
    """One Bernoulli realization: entry i is active with probability P_i.

    Each call draws fresh uniforms, one array per layer, in layer order.
    """
    return MaskSet({name: rng.random(p.shape) < p
                    for name, p in probs.items()})


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
    offset = fh.tell()
    data = fh.read(n)
    if len(data) != n:
        raise ContainerError(
            f"truncated container: expected {n} bytes for {what} at offset {offset}")
    return data


def _read_entries(path, kind_for):
    entries = {}
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
            dims = struct.unpack(f"<{rank}Q", _read_exact(fh, 8 * rank, "dims"))
            kind = kind_for(name)
            itemsize = 1 if kind == "u8" else 8
            nbytes = itemsize * int(np.prod(dims, dtype=np.int64)) if rank else itemsize
            raw = _read_exact(fh, nbytes, f"values of {name!r}")
            dtype = "<u1" if kind == "u8" else "<f8"
            entries[name] = np.frombuffer(raw, dtype=dtype).reshape(dims).copy()
    return entries


def save_mask_set(ms: MaskSet, path) -> None:
    _write_container(path, [(name, m, "u8") for name, m in ms.items()])


def load_mask_set(path) -> MaskSet:
    return MaskSet(_read_entries(path, lambda name: "u8"))


def save_probability_set(ps: ProbabilitySet, path) -> None:
    entries = []
    for name, p in ps.items():
        entries.append((name, p, "f64"))
        entries.append((name + TERMINAL_SUFFIX, ps.terminal[name], "u8"))
    _write_container(path, entries)


def load_probability_set(path) -> ProbabilitySet:
    entries = _read_entries(
        path, lambda name: "u8" if name.endswith(TERMINAL_SUFFIX) else "f64")
    probs = {n: a for n, a in entries.items() if not n.endswith(TERMINAL_SUFFIX)}
    terminal = {n.removesuffix(TERMINAL_SUFFIX): a
                for n, a in entries.items() if n.endswith(TERMINAL_SUFFIX)}
    return ProbabilitySet(probs, MaskSet(terminal))


def save_weights(params: dict, path) -> None:
    """Store named float tensors (network parameters) in the container."""
    _write_container(path, [(name, np.asarray(p), "f64")
                            for name, p in params.items()])


def load_weights(path) -> dict:
    return _read_entries(path, lambda name: "f64")
