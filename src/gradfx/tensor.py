"""Reverse-mode automatic differentiation over numpy arrays.

Operations execute eagerly on numpy and, when a Tape is active, record
one node per primitive application. Tape.backward walks the node list in
reverse and accumulates vector-Jacobian products. Without an active tape
every op is just a numpy call, so inference costs no bookkeeping.

Precision: tensors default to float32 (training); gradient verification
is expected to run at float64 (finite differences are unreliable at 32
bits). Arrays passed in as float64 keep their dtype.
"""

from __future__ import annotations

import math

import numpy as np

_DEFAULT_DTYPE = np.float32
_ACTIVE_TAPE = None


def set_default_dtype(dtype) -> None:
    """Set the dtype used for tensors built from lists/scalars (f32 or f64)."""
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.float32, np.float64):
        raise ValueError(f"unsupported dtype {dtype}")
    _DEFAULT_DTYPE = dtype.type


def default_dtype():
    return _DEFAULT_DTYPE


class Tensor:
    """N-dimensional numeric array, optionally tracked on a tape.

    requires_grad marks a leaf (trainable or checked input). Intermediate
    results are tracked through their node id on the active tape instead.
    """

    __slots__ = ("data", "requires_grad", "_tape", "_node_id")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        if dtype is None:
            # numpy returns scalars (not 0-d arrays) from 0-d arithmetic;
            # both must keep their float width
            if isinstance(data, (np.ndarray, np.floating)) and \
                    data.dtype in (np.float32, np.float64):
                dtype = data.dtype
            else:
                dtype = _DEFAULT_DTYPE
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = requires_grad
        self._tape = None
        self._node_id = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    # Arithmetic operators delegate to the primitive functions below.
    def __add__(self, other):
        return add(self, _wrap(other, self))

    def __radd__(self, other):
        return add(_wrap(other, self), self)

    def __sub__(self, other):
        return sub(self, _wrap(other, self))

    def __rsub__(self, other):
        return sub(_wrap(other, self), self)

    def __mul__(self, other):
        return mul(self, _wrap(other, self))

    def __rmul__(self, other):
        return mul(_wrap(other, self), self)

    def __truediv__(self, other):
        return div(self, _wrap(other, self))

    def __rtruediv__(self, other):
        return div(_wrap(other, self), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, n):
        return powi(self, n)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean_(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)


def _wrap(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


class Node:
    """One recorded primitive application: operand node ids + adjoint rule."""

    __slots__ = ("op", "parents", "vjp")

    def __init__(self, op, parents, vjp):
        self.op = op
        self.parents = parents
        self.vjp = vjp


class Grads:
    """Result of a backward pass: node id -> gradient array."""

    def __init__(self, tape: "Tape", by_node: dict):
        self._tape = tape
        self._by_node = by_node

    def get(self, t: Tensor):
        """Gradient of the root w.r.t. t, or None if t is off this tape."""
        if t._tape is not self._tape or t._node_id is None:
            return None
        g = self._by_node.get(t._node_id)
        if g is None:
            return Tensor(np.zeros_like(t.data))
        return Tensor(g)

    def __getitem__(self, t: Tensor) -> Tensor:
        g = self.get(t)
        if g is None:
            raise KeyError("gradient requested off-tape (tensor was never used under this tape)")
        return g


class Tape:
    """Ordered record of primitive applications for one forward pass.

    Nodes are appended in execution order, so every node's operands
    precede it; backward visits each node exactly once in reverse.
    """

    def __init__(self):
        self.nodes: list[Node] = []

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def _leaf(self, t: Tensor) -> int:
        nid = len(self.nodes)
        self.nodes.append(Node("leaf", (), None))
        t._tape = self
        t._node_id = nid
        return nid

    def _ensure(self, t: Tensor):
        """Node id of t on this tape; leaf-register if needed; None if untracked."""
        if t._tape is self and t._node_id is not None:
            return t._node_id
        if t.requires_grad:
            return self._leaf(t)
        return None

    def _record(self, op: str, parent_ids, vjp, out: Tensor) -> None:
        nid = len(self.nodes)
        self.nodes.append(Node(op, tuple(parent_ids), vjp))
        out._tape = self
        out._node_id = nid

    def backward(self, root: Tensor) -> Grads:
        """Accumulate d(root)/d(node) for every node reachable from root.

        root must be scalar (size 1) and recorded on this tape.
        """
        if root.data.size != 1:
            raise ValueError(f"backward root must be scalar, got shape {root.data.shape}")
        if root._tape is not self or root._node_id is None:
            raise ValueError("root is not recorded on this tape")
        grads: dict[int, np.ndarray] = {
            root._node_id: np.ones_like(root.data)
        }
        for nid in range(root._node_id, -1, -1):
            g = grads.get(nid)
            if g is None:
                continue
            node = self.nodes[nid]
            if node.vjp is None:
                continue
            parent_grads = node.vjp(g)
            for pid, pg in zip(node.parents, parent_grads):
                if pid is None or pg is None:
                    continue
                acc = grads.get(pid)
                grads[pid] = pg if acc is None else acc + pg
        return Grads(self, grads)


def active_tape():
    return _ACTIVE_TAPE


class suspend_tape:
    """Context manager: run a region without recording (e.g. state warmup)."""

    def __enter__(self):
        global _ACTIVE_TAPE
        self._saved = _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._saved
        return False


def _emit(op: str, out_data: np.ndarray, parents, vjp_builder) -> Tensor:
    """Create the output tensor and record a node if the result is tracked.

    vjp_builder is called only when recording, so untracked forwards pay
    nothing for closure setup.
    """
    out = Tensor(out_data)
    tape = _ACTIVE_TAPE
    if tape is None:
        return out
    pids = [tape._ensure(p) for p in parents]
    if all(pid is None for pid in pids):
        return out
    tape._record(op, pids, vjp_builder(), out)
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum g down to the given operand shape after numpy broadcasting."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    ash, bsh = a.data.shape, b.data.shape
    return _emit("add", out, (a, b),
                 lambda: lambda g: (_unbroadcast(g, ash), _unbroadcast(g, bsh)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    ash, bsh = a.data.shape, b.data.shape
    return _emit("sub", out, (a, b),
                 lambda: lambda g: (_unbroadcast(g, ash), _unbroadcast(-g, bsh)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    ad, bd = a.data, b.data
    return _emit("mul", out, (a, b),
                 lambda: lambda g: (_unbroadcast(g * bd, ad.shape),
                                    _unbroadcast(g * ad, bd.shape)))


def div(a: Tensor, b: Tensor) -> Tensor:
    out = a.data / b.data
    ad, bd = a.data, b.data
    return _emit("div", out, (a, b),
                 lambda: lambda g: (_unbroadcast(g / bd, ad.shape),
                                    _unbroadcast(-g * ad / (bd * bd), bd.shape)))


def neg(x: Tensor) -> Tensor:
    return _emit("neg", -x.data, (x,), lambda: lambda g: (-g,))


def powi(x: Tensor, n: int) -> Tensor:
    """Integer power. Non-integer exponents are not a primitive; use exp/log."""
    if not isinstance(n, (int, np.integer)):
        raise TypeError("powi exponent must be an integer")
    n = int(n)
    xd = x.data
    out = xd ** n
    return _emit("powi", out, (x,),
                 lambda: lambda g: (g * n * xd ** (n - 1),))


# ---------------------------------------------------------------------------
# elementwise transcendental

def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)
    return _emit("tanh", out, (x,), lambda: lambda g: (g * (1.0 - out * out),))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function; exp only ever sees -|z|, so it cannot overflow."""
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def sigmoid(x: Tensor) -> Tensor:
    out = _sigmoid(x.data)
    return _emit("sigmoid", out, (x,), lambda: lambda g: (g * out * (1.0 - out),))


def sin(x: Tensor) -> Tensor:
    xd = x.data
    return _emit("sin", np.sin(xd), (x,), lambda: lambda g: (g * np.cos(xd),))


def cos(x: Tensor) -> Tensor:
    # composed primitive: cos(x) = sin(x + pi/2)
    return sin(add(x, Tensor(np.asarray(math.pi / 2, dtype=x.data.dtype))))


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)
    return _emit("exp", out, (x,), lambda: lambda g: (g * out,))


def log(x: Tensor) -> Tensor:
    xd = x.data
    return _emit("log", np.log(xd), (x,), lambda: lambda g: (g / xd,))


def sqrt(x: Tensor) -> Tensor:
    out = np.sqrt(x.data)
    return _emit("sqrt", out, (x,), lambda: lambda g: (g * (0.5 / out),))


def abs_(x: Tensor) -> Tensor:
    xd = x.data
    return _emit("abs", np.abs(xd), (x,), lambda: lambda g: (g * np.sign(xd),))


def clip(x: Tensor, lo=None, hi=None) -> Tensor:
    """Clamp to [lo, hi]; gradient passes only where x is strictly inside."""
    xd = x.data
    out = np.clip(xd, lo, hi)

    def build():
        mask = np.ones_like(xd, dtype=bool)
        if lo is not None:
            mask &= xd > lo
        if hi is not None:
            mask &= xd < hi
        return lambda g: (g * mask,)

    return _emit("clip", out, (x,), build)


# ---------------------------------------------------------------------------
# reductions and shape

def sum_(x: Tensor, axis=None, keepdims=False) -> Tensor:
    xd = x.data
    out = xd.sum(axis=axis, keepdims=keepdims)

    def build():
        def vjp(g):
            if axis is None:
                return (np.broadcast_to(g, xd.shape).astype(xd.dtype, copy=False),)
            ax = axis if isinstance(axis, tuple) else (axis,)
            if not keepdims:
                g = np.expand_dims(g, ax)
            return (np.broadcast_to(g, xd.shape).astype(xd.dtype, copy=False),)
        return vjp

    return _emit("sum", np.asarray(out), (x,), build)


def mean_(x: Tensor, axis=None, keepdims=False) -> Tensor:
    xd = x.data
    out = xd.mean(axis=axis, keepdims=keepdims)
    count = xd.size if axis is None else np.prod(
        [xd.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))])

    def build():
        def vjp(g):
            if axis is None:
                gg = np.broadcast_to(g, xd.shape)
            else:
                ax = axis if isinstance(axis, tuple) else (axis,)
                gg = g if keepdims else np.expand_dims(g, ax)
                gg = np.broadcast_to(gg, xd.shape)
            return ((gg / count).astype(xd.dtype, copy=False),)
        return vjp

    return _emit("mean", np.asarray(out), (x,), build)


def reshape(x: Tensor, shape) -> Tensor:
    xd = x.data
    return _emit("reshape", xd.reshape(shape), (x,),
                 lambda: lambda g: (g.reshape(xd.shape),))


def transpose(x: Tensor, axes=None) -> Tensor:
    xd = x.data
    out = np.transpose(xd, axes).copy()

    def build():
        inv = None if axes is None else tuple(np.argsort(axes))
        return lambda g: (np.transpose(g, inv),)

    return _emit("transpose", out, (x,), build)


def take(x: Tensor, key) -> Tensor:
    """Slice/index; gradient scatter-adds back into the source shape."""
    xd = x.data
    out = xd[key]

    def build():
        def vjp(g):
            z = np.zeros_like(xd)
            np.add.at(z, key, g)
            return (z,)
        return vjp

    return _emit("slice", np.asarray(out), (x,), build)


def concat(tensors, axis=0) -> Tensor:
    tensors = list(tensors)
    datas = [t.data for t in tensors]
    out = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]

    def build():
        splits = np.cumsum(sizes)[:-1]
        return lambda g: tuple(np.split(g, splits, axis=axis))

    return _emit("concat", out, tensors, build)


def repeat_new_axis(x: Tensor, n: int, axis: int = 0) -> Tensor:
    """Stack n copies of x along a new axis."""
    xd = x.data
    out = np.repeat(np.expand_dims(xd, axis), n, axis=axis)
    return _emit("repeat", out, (x,), lambda: lambda g: (g.sum(axis=axis),))


def upsample1d(x: Tensor, factor: int, axis: int = -1) -> Tensor:
    """Nearest-neighbor / zero-order-hold upsampling along one axis."""
    xd = x.data
    out = np.repeat(xd, factor, axis=axis)
    ax = axis % xd.ndim

    def build():
        def vjp(g):
            shape = list(xd.shape)
            shape[ax:ax + 1] = [xd.shape[ax], factor]
            return (g.reshape(shape).sum(axis=ax + 1),)
        return vjp

    return _emit("upsample1d", out, (x,), build)


def pad_end(x: Tensor, length: int, axis: int = -1) -> Tensor:
    """Zero-pad along one axis up to `length` samples."""
    xd = x.data
    ax = axis % xd.ndim
    extra = length - xd.shape[ax]
    if extra < 0:
        raise ValueError(f"pad_end target {length} shorter than input {xd.shape[ax]}")
    if extra == 0:
        return _emit("pad_end", xd.copy(), (x,), lambda: lambda g: (g,))
    spec = [(0, 0)] * xd.ndim
    spec[ax] = (0, extra)
    out = np.pad(xd, spec)
    orig = xd.shape[ax]

    def build():
        sl = [slice(None)] * xd.ndim
        sl[ax] = slice(0, orig)
        sl = tuple(sl)
        return lambda g: (g[sl],)

    return _emit("pad_end", out, (x,), build)


def maxpool1d(x: Tensor, block: int, axis: int = -1) -> Tensor:
    """Non-overlapping max pooling; a partial final block is zero-padded."""
    xd = x.data
    ax = axis % xd.ndim
    t = xd.shape[ax]
    nb = -(-t // block)
    padded = xd
    if nb * block != t:
        spec = [(0, 0)] * xd.ndim
        spec[ax] = (0, nb * block - t)
        padded = np.pad(xd, spec)
    shape = list(padded.shape)
    shape[ax:ax + 1] = [nb, block]
    blocks = padded.reshape(shape)
    idx = blocks.argmax(axis=ax + 1)
    out = np.take_along_axis(blocks, np.expand_dims(idx, ax + 1), axis=ax + 1).squeeze(ax + 1)

    def build():
        def vjp(g):
            z = np.zeros_like(blocks)
            np.put_along_axis(z, np.expand_dims(idx, ax + 1),
                              np.expand_dims(g, ax + 1), axis=ax + 1)
            z = z.reshape(padded.shape)
            if padded.shape[ax] != t:
                sl = [slice(None)] * xd.ndim
                sl[ax] = slice(0, t)
                z = z[tuple(sl)]
            return (z,)
        return vjp

    return _emit("maxpool1d", out, (x,), build)


def blockmean1d(x: Tensor, block: int, axis: int = -1) -> Tensor:
    """Non-overlapping block means (composition of pad/reshape/mean)."""
    xd = x.data
    ax = axis % xd.ndim
    t = xd.shape[ax]
    nb = -(-t // block)
    y = pad_end(x, nb * block, axis=ax) if nb * block != t else x
    shape = list(xd.shape)
    shape[ax:ax + 1] = [nb, block]
    return mean_(reshape(y, tuple(shape)), axis=ax + 1)


# ---------------------------------------------------------------------------
# linear algebra and convolution

def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    out = ad @ bd

    def build():
        def vjp(g):
            if ad.ndim == 2 and bd.ndim == 2:
                return (g @ bd.T, ad.T @ g)
            if ad.ndim == 2 and bd.ndim == 1:
                return (np.outer(g, bd), ad.T @ g)
            if ad.ndim == 1 and bd.ndim == 2:
                return (bd @ g, np.outer(ad, g))
            # 1-D @ 1-D dot product
            return (g * bd, g * ad)
        return vjp

    return _emit("matmul", np.asarray(out), (a, b), build)


def conv1d(x: Tensor, w: Tensor, bias: Tensor | None = None, dilation: int = 1) -> Tensor:
    """Causal 1-D convolution, stride 1.

    x: [C_in, T], w: [C_out, C_in, K], bias: [C_out] or None.
    Left-pads (K-1)*dilation zeros so output sample n depends only on
    inputs <= n and the length is preserved.
    """
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 3:
        raise ValueError("conv1d expects x[C_in,T] and w[C_out,C_in,K]")
    c_in, t = xd.shape
    c_out, c_in_w, k = wd.shape
    if c_in_w != c_in:
        raise ValueError(f"conv1d channel mismatch: x has {c_in}, w expects {c_in_w}")
    pad = (k - 1) * dilation
    xp = np.pad(xd, ((0, 0), (pad, 0)))
    sc, st = xp.strides
    cols = np.lib.stride_tricks.as_strided(
        xp, shape=(c_in, k, t), strides=(sc, st * dilation, st))
    out = np.tensordot(wd, cols, axes=([1, 2], [0, 1]))
    bd = bias.data if bias is not None else None
    if bd is not None:
        out = out + bd[:, None]

    def build():
        cols_c = np.ascontiguousarray(cols)

        def vjp(g):
            dw = np.tensordot(g, cols_c, axes=([1], [2]))
            dcols = np.tensordot(wd, g, axes=([0], [0]))  # [C_in, K, T]
            dxp = np.zeros_like(xp)
            for i in range(k):
                dxp[:, i * dilation:i * dilation + t] += dcols[:, i, :]
            dx = dxp[:, pad:] if pad else dxp
            if bd is not None:
                return (dx, dw, g.sum(axis=1))
            return (dx, dw)
        return vjp

    parents = (x, w) if bias is None else (x, w, bias)
    return _emit("conv1d", out, parents, build)


def lstm(xz: Tensor, w_h: Tensor, h0: Tensor, c0: Tensor) -> Tensor:
    """LSTM recurrence, gates ordered (input, forget, cell, output).

    xz: [T, 4H] input projection x @ w_x + b, w_h: [H, 4H], h0, c0: [H].
    Returns [T + 2, H]: the hidden sequence, then the final h and c.
    Records one node. Its vjp is backprop through time over the saved
    gates and repeats, operation for operation and in the same order,
    what the per-step composition of slice/matmul/add/sigmoid/tanh/mul
    would compute on the tape, so the gradients equal it to the bit.
    """
    xzd, whd = xz.data, w_h.data
    n, hs = xzd.shape[0], whd.shape[0]
    out = np.empty((n + 2, hs), dtype=xzd.dtype)
    gates = np.empty_like(xzd)  # sigmoid(i), sigmoid(f), tanh(g), sigmoid(o)
    cs, tcs = np.empty((2, n, hs), dtype=xzd.dtype)  # c_t and tanh(c_t)
    h0d, c0d = h0.data, c0.data
    h, c = h0d, c0d
    for t in range(n):
        z = xzd[t] + h @ whd
        s = gates[t]
        s[:] = _sigmoid(z)
        s[2 * hs:3 * hs] = np.tanh(z[2 * hs:3 * hs])
        c = s[hs:2 * hs] * c + s[0:hs] * s[2 * hs:3 * hs]
        tcs[t] = np.tanh(c)
        h = s[3 * hs:] * tcs[t]
        out[t] = h
        cs[t] = c
    out[n] = h
    out[n + 1] = c

    def build():
        i, f, g, o = (gates[:, k * hs:(k + 1) * hs] for k in range(4))
        # the sigmoid and tanh adjoints' second factors, (1 - s) and (1 - y*y)
        ui, uf, ug, uo = 1.0 - i, 1.0 - f, 1.0 - g * g, 1.0 - o
        utc = 1.0 - tcs * tcs

        def vjp(gout):
            dz = np.empty_like(gates)
            dwh = np.zeros_like(whd)
            dh, dc = gout[n], gout[n + 1]
            for t in range(n - 1, -1, -1):
                h_prev = out[t - 1] if t else h0d
                c_prev = cs[t - 1] if t else c0d
                dh = dh + gout[t]
                dc = dc + (dh * o[t]) * utc[t]
                dzt = dz[t]
                dzt[0:hs] = ((dc * g[t]) * i[t]) * ui[t]
                dzt[hs:2 * hs] = ((dc * c_prev) * f[t]) * uf[t]
                dzt[2 * hs:3 * hs] = (dc * i[t]) * ug[t]
                dzt[3 * hs:] = ((dh * tcs[t]) * o[t]) * uo[t]
                # step by step in the tape's order: one GEMM would round differently
                dwh += h_prev[:, None] * dzt
                dc = dc * f[t]
                dh = whd @ dzt
            return (dz, dwh, dh, dc)
        return vjp

    return _emit("lstm", out, (xz, w_h, h0, c0), build)


# ---------------------------------------------------------------------------
# real FFT pair and complex arithmetic on stacked [2, ...] tensors

def rfft(x: Tensor, n: int | None = None, axis: int = -1) -> Tensor:
    """Real FFT along `axis`; returns real/imag stacked on a new leading axis."""
    xd = x.data
    ax = axis % xd.ndim
    t = xd.shape[ax]
    if n is None:
        n = t
    if n < t:
        raise ValueError(f"rfft length {n} shorter than signal {t}")
    spec = np.fft.rfft(xd, n=n, axis=ax)
    out = np.stack([spec.real, spec.imag], axis=0).astype(xd.dtype, copy=False)

    def build():
        def vjp(g):
            gc = g[0] + 1j * g[1]
            full_shape = list(gc.shape)
            full_shape[ax] = n
            c = np.zeros(full_shape, dtype=np.complex128)
            sl = [slice(None)] * gc.ndim
            sl[ax] = slice(0, gc.shape[ax])
            c[tuple(sl)] = gc
            gx = n * np.fft.ifft(c, axis=ax).real
            sl[ax] = slice(0, t)
            return (gx[tuple(sl)].astype(xd.dtype, copy=False),)
        return vjp

    return _emit("rfft", out, (x,), build)


def irfft(X: Tensor, n: int, axis: int = -1) -> Tensor:
    """Inverse real FFT of a stacked [2, ...] spectrum; output length n."""
    Xd = X.data
    if Xd.shape[0] != 2:
        raise ValueError("irfft expects a stacked [2, ...] real/imag tensor")
    spec = Xd[0] + 1j * Xd[1]
    ax = axis % spec.ndim
    nf = spec.shape[ax]
    if nf != n // 2 + 1:
        raise ValueError(f"irfft: {nf} bins inconsistent with length {n}")
    out = np.fft.irfft(spec, n=n, axis=ax).astype(Xd.dtype, copy=False)

    def build():
        def vjp(g):
            gf = np.fft.rfft(g, n=n, axis=ax)
            w_shape = [1] * gf.ndim
            w_shape[ax] = nf
            w = np.full(nf, 2.0)
            w[0] = 1.0
            if n % 2 == 0:
                w[-1] = 1.0
            w = w.reshape(w_shape)
            gr = (w * gf.real / n).astype(Xd.dtype, copy=False)
            gi = (w * gf.imag / n).astype(Xd.dtype, copy=False)
            return (np.stack([gr, gi], axis=0),)
        return vjp

    return _emit("irfft", out, (X,), build)


def complex_mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise complex multiply of stacked [2, ...] tensors."""
    ad, bd = a.data, b.data
    ar, ai = ad[0], ad[1]
    br, bi = bd[0], bd[1]
    out = np.stack([ar * br - ai * bi, ar * bi + ai * br], axis=0)

    def build():
        def vjp(g):
            gr, gi = g[0], g[1]
            da = np.stack([gr * br + gi * bi, -gr * bi + gi * br], axis=0)
            db = np.stack([gr * ar + gi * ai, -gr * ai + gi * ar], axis=0)
            return (_unbroadcast(da, ad.shape), _unbroadcast(db, bd.shape))
        return vjp

    return _emit("complex_mul", out, (a, b), build)


# ---------------------------------------------------------------------------
# gradient verification

def grad_check(f, inputs, eps: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    f maps a list of Tensors to a scalar Tensor. Inputs should be float64;
    the relative error denominator is max(|analytic|, |numeric|, 1e-8).
    """
    inputs = list(inputs)
    for t in inputs:
        t.requires_grad = True
    with Tape() as tape:
        out = f(inputs)
    if not np.all(np.isfinite(out.data)):
        raise FloatingPointError("non-finite forward value in grad_check")
    grads = tape.backward(out)
    analytic = [grads.get(t) for t in inputs]

    worst = 0.0
    for t, an in zip(inputs, analytic):
        an_data = np.zeros_like(t.data) if an is None else an.data
        flat = t.data.reshape(-1)
        num = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = f(inputs).item()
            flat[i] = orig - eps
            fm = f(inputs).item()
            flat[i] = orig
            num[i] = (fp - fm) / (2.0 * eps)
        num = num.reshape(t.data.shape)
        denom = np.maximum(np.maximum(np.abs(an_data), np.abs(num)), 1e-8)
        err = float(np.max(np.abs(an_data - num) / denom))
        worst = max(worst, err)
    return worst
