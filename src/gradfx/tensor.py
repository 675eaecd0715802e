"""Reverse-mode automatic differentiation over numpy arrays.

Operations execute eagerly on numpy and, when a Tape is active, record
one node per primitive application. Tape.backward walks the node list in
reverse and accumulates vector-Jacobian products. It frees as it goes:
each node's gradient is dropped once its vjp has run, and so is the vjp
closure with the forward arrays it saved; the closures of nodes the root
does not reach are dropped unrun. Only the leaves' gradients are kept,
and a tape runs backward once. Without an active tape every op is
just a numpy call, so inference costs no bookkeeping. A tape keeps its
leaves' node ids itself, and each thread has its own active tape, so
threads may record over shared parameters.

Precision: tensors default to float32 (training); gradient verification
is expected to run at float64 (finite differences are unreliable at 32
bits). Arrays passed in as float64 keep their dtype. Unlike the active
tape, the default dtype is one for the whole process.
"""

from __future__ import annotations

import itertools
import math
import threading

import numpy as np

_DEFAULT_DTYPE = np.float32


def set_default_dtype(dtype) -> None:
    """Set the process-wide dtype of tensors built from lists/scalars."""
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.float32, np.float64):
        raise ValueError(f"unsupported dtype {dtype}")
    _DEFAULT_DTYPE = dtype.type


def default_dtype():
    return _DEFAULT_DTYPE


class Tensor:
    """N-dimensional numeric array, optionally tracked on a tape.

    requires_grad marks a leaf (trainable or checked input). A result a
    tape recorded carries that tape's serial number and its node id there,
    not the tape; on any other tape it is a constant.
    """

    __slots__ = ("data", "requires_grad", "_tape_serial", "_node_id")

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
        self._tape_serial = None
        self._node_id = None

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    def __getitem__(self, key):
        return take(self, key)


class Node:
    """One recorded primitive application: operand node ids + adjoint rule."""

    __slots__ = ("op", "parents", "vjp")

    def __init__(self, op, parents, vjp):
        self.op = op
        self.parents = parents
        self.vjp = vjp


class _Active(threading.local):
    tape = None  # this thread's active tape; a new thread reads None


_ACTIVE = _Active()
_SERIALS = itertools.count()


class Tape:
    """Ordered record of primitive applications for one forward pass.

    Nodes are appended in execution order, so every node's operands
    precede it; backward visits each node exactly once in reverse. It
    releases every node's vjp closure, so a tape runs backward once; the
    nodes themselves stay. It is active on the thread that entered it and
    never writes to a leaf, so tapes on other threads may share leaves.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self.serial = next(_SERIALS)
        self._leaves = {}  # id(leaf) -> (node id, leaf): held, ids stay unique
        self._backward_ran = False

    def __enter__(self):
        if _ACTIVE.tape is not None:
            raise RuntimeError("a tape is already active; tapes do not nest")
        _ACTIVE.tape = self
        return self

    def __exit__(self, *exc):
        _ACTIVE.tape = None
        return False

    def _id(self, t: Tensor):
        """Node id of t on this tape, recording a leaf at its first use;
        None if t is untracked."""
        if t._tape_serial == self.serial:
            return t._node_id
        if not t.requires_grad:
            return None
        entry = self._leaves.get(id(t))
        if entry is None:
            entry = self._leaves[id(t)] = (len(self.nodes), t)
            self.nodes.append(Node("leaf", (), None))
        return entry[0]

    def backward(self, root: Tensor, wrt) -> list:
        """Gradients of root w.r.t. each tensor in wrt, as numpy arrays.

        root must be scalar (size 1) and recorded on this tape. For a leaf
        the entry is its gradient, zeros when root does not depend on it;
        for a tensor this tape never saw it is None. An intermediate
        result in wrt raises KeyError, since only leaf gradients are kept.
        A node's gradient is popped before its vjp runs and the vjp is
        released after, so memory falls as the walk goes; the vjps of
        nodes the root does not reach are released unrun. A second call
        raises RuntimeError.
        """
        if root.data.size != 1:
            raise ValueError(f"backward root must be scalar, got shape {root.data.shape}")
        if root._tape_serial != self.serial:
            raise ValueError("root is not recorded on this tape")
        if self._backward_ran:
            raise RuntimeError("backward already ran on this tape and released "
                               "its vjps; record the forward again")
        for t in wrt:
            if t._tape_serial == self.serial:
                raise KeyError(f"gradient requested for a "
                               f"{self.nodes[t._node_id].op!r} node; backward "
                               f"keeps leaf gradients only")
        self._backward_ran = True
        grads: dict[int, np.ndarray] = {
            root._node_id: np.ones_like(root.data)
        }
        for nid in range(len(self.nodes) - 1, -1, -1):
            node = self.nodes[nid]
            # a leaf has no vjp and keeps its gradient; a node the root
            # does not reach is released without running
            if node.vjp is None:
                continue
            parent_grads = node.vjp(grads.pop(nid)) if nid in grads else ()
            node.vjp = None
            for pid, pg in zip(node.parents, parent_grads):
                if pid is not None and pg is not None:
                    grads[pid] = grads[pid] + pg if pid in grads else pg
        # a loop: a comprehension would keep self and grads in closure
        # cells, allocated at entry, for the whole walk (Python < 3.12)
        out = [None] * len(wrt)
        for i, t in enumerate(wrt):
            nid, _ = self._leaves.get(id(t), (None, None))
            if nid is not None:
                out[i] = grads[nid] if nid in grads else np.zeros_like(t.data)
        return out


def active_tape():
    """The calling thread's active tape, or None."""
    return _ACTIVE.tape


def records(parents) -> bool:
    """Whether an op over these parents records a node: this thread has a
    tape and some parent requires grad or is already on it."""
    tape = _ACTIVE.tape
    if tape is not None:
        for p in parents:
            if p.requires_grad or p._tape_serial == tape.serial:
                return True
    return False


def _emit(op: str, out_data: np.ndarray, parents, vjp_builder) -> Tensor:
    """Create the output tensor and record a node if `records(parents)`.

    vjp_builder is called only when recording, so untracked forwards pay
    nothing for closure setup.
    """
    out = Tensor(out_data)
    if records(parents):
        tape = _ACTIVE.tape
        node = Node(op, tuple([tape._id(p) for p in parents]), vjp_builder())
        out._tape_serial, out._node_id = tape.serial, len(tape.nodes)
        tape.nodes.append(node)
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


# ---------------------------------------------------------------------------
# elementwise transcendental

def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)
    return _emit("tanh", out, (x,), lambda: lambda g: (g * (1.0 - out * out),))


def _sigmoid_into(z: np.ndarray):
    """A function writing the logistic of the buffer z into its argument,
    for repeated calls on the same z.

    It computes exp(min(z, 0)) / (1 + exp(-|z|)), both exponentials in one
    exp call over a stacked [2, *z.shape] scratch. Neither can overflow,
    and for z < 0 both see -|z| == z exactly, so this is the two-branch
    form (1 / (1 + e) where z >= 0, else e / (1 + e)) bit for bit. The
    scratch and the typed 0-d constants are made once: a Python scalar
    costs a conversion in every call.
    """
    e = np.empty((2,) + z.shape, dtype=z.dtype)
    num, den = e
    zero, one = np.zeros((), dtype=z.dtype), np.ones((), dtype=z.dtype)

    def into(out: np.ndarray) -> np.ndarray:
        np.minimum(z, zero, out=num)
        np.abs(z, out=den)
        np.negative(den, out=den)
        np.exp(e, out=e)
        np.add(one, den, out=den)
        return np.divide(num, den, out=out)
    return into


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return _sigmoid_into(z)(np.empty_like(z))


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


def _horner(xd: np.ndarray, c: list) -> list:
    """Horner values of sum_i c[i] x^i: h_0 = c[-1], h_j = h_{j-1} x + c[-1-j]."""
    h = [c[-1]]
    for ci in c[-2::-1]:
        h.append(h[-1] * xd + ci)
    return h


def _horner_vjp(g, xd: np.ndarray, h: list, gx):
    """The adjoints of h_j = add(mul(h_{j-1}, x), slice(c, -1-j)) nodes,
    last step first, for gradient g of h's last value: (dL/dc as a list in
    coefficient order, dL/dx folded onto gx in that order). Pops h."""
    dc = []
    while len(h) > 1:
        h.pop()
        dc.append(_unbroadcast(g, ()))
        gxj = _unbroadcast(g * h[-1], xd.shape)
        g = _unbroadcast(g * xd, np.shape(h[-1]))
        gx = gxj if gx is None else gx + gxj
    dc.append(g)
    return dc, gx


def rational(x: Tensor, num: Tensor, den: Tensor) -> Tensor:
    """R(x) = (a0 + a1 x + ... + am x^m) / (1 + b1 x + ... + bk x^k) as one
    node; num holds a0..am, den b1..bk.

    The forward runs Horner's rule with the numpy operations, in the order,
    of the same ratio composed from slice/mul/add/div nodes, and the node
    keeps only its operands. The vjp recomputes the Horner values and
    replays the composed graph's adjoints in reverse tape order, so output
    and gradients equal the composed graph's to the bit.
    """
    xd, nd, dd = x.data, num.data, den.data
    one = np.asarray(1.0, dtype=xd.dtype)
    out = _horner(xd, list(nd))[-1] / _horner(xd, [one, *dd])[-1]

    def build():
        def vjp(g):
            hn, hd = _horner(xd, list(nd)), _horner(xd, [one, *dd])
            gn, gd = g / hd[-1], -g * hn[-1] / (hd[-1] * hd[-1])
            # the composed slices' gradients sum one-hot vectors: 0 + v
            dc, gx = _horner_vjp(gd, xd, hd, None)
            dden = np.zeros_like(dd) + np.asarray(dc[1:], dtype=dd.dtype)
            dc, gx = _horner_vjp(gn, xd, hn, gx)
            dnum = np.zeros_like(nd) + np.asarray(dc, dtype=nd.dtype)
            return gx, dnum, dden
        return vjp

    return _emit("rational", out, (x, num, den), build)


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


def _is_basic(key) -> bool:
    """An int, a slice, an Ellipsis or a tuple of them: each source element
    at most once."""
    keys = key if isinstance(key, tuple) else (key,)
    return all(isinstance(k, slice) or k is Ellipsis
               or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
               for k in keys)


def take(x: Tensor, key) -> Tensor:
    """Slice/index; the gradient lands back in the source shape, assigned
    for basic keys and scatter-added for array keys (which may repeat)."""
    xd = x.data
    out = xd[key]

    def build():
        basic = _is_basic(key)

        def vjp(g):
            z = np.zeros_like(xd)
            if basic:
                z[key] = g
            else:
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


# Output samples per im2col GEMM. Training segments fit in one chunk; a
# render-length signal never materializes more than one chunk's columns.
_CONV_CHUNK = 4096


def last_samples(before, x: np.ndarray, n: int) -> np.ndarray:
    """The last n samples along the last axis of `before` (zeros when
    None) followed by x: the history a causal filter carries past x."""
    t = x.shape[-1]
    if t >= n:
        return x[..., t - n:].copy()
    if before is None:
        before = np.zeros(x.shape[:-1] + (n,), dtype=x.dtype)
    return np.concatenate((before, x), axis=-1)[..., t:]


def conv1d(x: Tensor, w: Tensor, bias: Tensor | None = None, dilation: int = 1,
           context: np.ndarray | None = None) -> Tensor:
    """Causal 1-D convolution, stride 1.

    x: [C_in, T], w: [C_out, C_in, K], bias: [C_out] or None.
    Left-pads (K-1)*dilation zeros so output sample n depends only on
    inputs <= n and the length is preserved; a `context` [C_in,
    (K-1)*dilation] of the inputs before x takes the zeros' place (a
    constant: it gets no gradient). Each span of _CONV_CHUNK
    outputs is one GEMM over its [C_in*K, span] columns, which are built
    from the padded input when needed and never kept: the tape saves
    only the padded input.
    """
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 3:
        raise ValueError("conv1d expects x[C_in,T] and w[C_out,C_in,K]")
    c_in, t = xd.shape
    c_out, c_in_w, k = wd.shape
    if c_in_w != c_in:
        raise ValueError(f"conv1d channel mismatch: x has {c_in}, w expects {c_in_w}")
    pad = (k - 1) * dilation
    if context is None:
        xp = np.pad(xd, ((0, 0), (pad, 0)))
    elif context.shape != (c_in, pad):
        raise ValueError(f"conv1d context must be [{c_in}, {pad}], "
                         f"got {context.shape}")
    else:
        xp = np.concatenate((context, xd), axis=1, dtype=xd.dtype)
    sc, st = xp.strides
    w2 = wd.reshape(c_out, c_in * k)
    spans = [(a, min(a + _CONV_CHUNK, t)) for a in range(0, t, _CONV_CHUNK)]

    def cols(a, b):
        view = np.lib.stride_tricks.as_strided(
            xp[:, a:], shape=(c_in, k, b - a), strides=(sc, st * dilation, st))
        return view.reshape(c_in * k, b - a)

    # np.dot, not @, and contiguous columns for dw, as np.tensordot over
    # the whole column view does, so one chunk equals it to the bit: @
    # rounds differently on views BLAS cannot take (reversed FIR taps, a
    # one-channel input's overlapping columns)
    out = np.empty((c_out, t), dtype=np.result_type(xd, wd))
    for a, b in spans:
        out[:, a:b] = np.dot(w2, cols(a, b))
    bd = bias.data if bias is not None else None
    if bd is not None:
        out += bd[:, None]

    def build():
        def vjp(g):
            dw = np.zeros(w2.shape, dtype=np.result_type(g, xp))
            dxp = np.zeros_like(xp)
            for a, b in spans:
                ga = g[:, a:b]
                dw += np.dot(ga, np.ascontiguousarray(cols(a, b)).T)
                dcols = np.dot(w2.T, ga).reshape(c_in, k, b - a)
                for i in range(k):
                    dxp[:, a + i * dilation:b + i * dilation] += dcols[:, i]
            dx = dxp[:, pad:] if pad else dxp
            dw = dw.reshape(wd.shape)
            if bd is not None:
                return (dx, dw, g.sum(axis=1))
            return (dx, dw)
        return vjp

    parents = (x, w) if bias is None else (x, w, bias)
    return _emit("conv1d", out, parents, build)


# Steps per backward block: the adjoint factors and the stacked dW_h terms
# exist for one block at a time, never for the whole sequence.
_LSTM_BLOCK = 16


def lstm(x: Tensor, w_x: Tensor, b: Tensor, w_h: Tensor, h0: Tensor,
         c0: Tensor) -> Tensor:
    """LSTM layer, gates ordered (input, forget, cell, output).

    x: [T, in], w_x: [in, 4H], b: [4H], w_h: [H, 4H], h0, c0: [H].
    Returns [T + 2, H]: the hidden sequence, then the final h and c.
    Records one node. Its vjp is backprop through time and repeats,
    operation for operation and in the same order, what x @ w_x + b and
    the per-step composition of slice/matmul/add/sigmoid/tanh/mul would
    compute on the tape, so the gradients equal it to the bit. Taped, a
    sample keeps 6H floats: step t writes its gates over row t of the
    projection once it has read it, the vjp writes the gate adjoints over
    them, and two factors per step have a buffer of their own.

    Batched: x [T, B, in] with h0, c0 [B, H] returns [T + 2, B, H], each
    sequence on its own row. It records no gradient: under a tape that
    would record it, it raises ValueError.
    """
    xd, wxd, whd, h0d, c0d = x.data, w_x.data, w_h.data, h0.data, c0.data
    n, hs = xd.shape[0], whd.shape[0]
    parents = (x, w_x, b, w_h, h0, c0)
    taped = records(parents)
    if taped and xd.ndim == 3:
        raise ValueError("a batched lstm records no gradient; run it "
                         "untaped or on untracked inputs")
    xz = xd.reshape(-1, xd.shape[-1]) @ wxd
    np.add(xz, b.data, out=xz)
    dt = xz.dtype
    if xd.ndim == 3:
        # gate-major steps: z[k] = h @ w_h[:, kH:(k+1)H] for all rows at once
        hshape = c0d.shape
        prod, w = np.matmul, np.ascontiguousarray(
            whd.reshape(hs, 4, hs).transpose(1, 0, 2))
        z = np.empty((4,) + hshape, dtype=dt)
        xrows = xz.reshape(n, hshape[0], 4, hs).transpose(0, 2, 1, 3)
    else:
        hshape = (hs,)
        prod, w = np.dot, whd
        z = np.empty(4 * hs, dtype=dt)
        xrows = xz
    out = np.empty((n + 2,) + hshape, dtype=dt)
    zg = z.reshape((4,) + hshape)[2]
    sigmoid_into = _sigmoid_into(z)
    ig_fc = np.empty((2,) + hshape, dtype=dt)
    ig, fc = ig_fc
    # A gate row holds [i_t, f_t, tanh(c_t), o_t] and a factor row
    # [tanh(g_t), c_{t-1}], so [i, f] * factors is [i*g, f*c] in one
    # multiply; c_t goes to the next factor row. Taped, the gates
    # overwrite the projection's rows and row n of the factors holds c_T;
    # untaped, one gate row and two alternating factor rows serve every
    # step.
    if taped:
        fac = np.empty((n + 1, 2 * hs), dtype=dt)
        g4, f2 = xz.reshape(n, 4, hs), fac.reshape(n + 1, 2, hs)
        # row views of column slices: cheaper per step than slicing each row
        steps = zip(xz, g4[:, :2], g4[:, 2], g4[:, 3], f2[:-1], f2[:-1, 0],
                    f2[1:, 1])
    else:
        s = np.empty_like(z)
        s4 = s.reshape((4,) + hshape)
        f2 = np.empty((2, 2) + hshape, dtype=dt)
        steps = itertools.cycle([(s, s4[:2], s4[2], s4[3], cur, cur[0], nxt[1])
                                 for cur, nxt in (f2, f2[::-1])])
    f2[0, 1] = c0d
    h, c = h0d, c0d
    for xt, (s, s_if, s_tc, s_o, f_gc, f_g, c), ht in zip(xrows, steps, out):
        prod(h, w, out=z)
        np.add(xt, z, out=z)
        sigmoid_into(s)
        np.tanh(zg, out=f_g)
        np.multiply(s_if, f_gc, out=ig_fc)  # [i*g, f*c]
        np.add(fc, ig, out=c)
        np.tanh(c, out=s_tc)
        h = np.multiply(s_o, s_tc, out=ht)
    out[n] = h
    out[n + 1] = c

    def build():
        def vjp(gout):
            dwh = np.zeros_like(whd)
            v = np.empty(4 * hs, dtype=dt)  # [dc, dc, dc, dh]
            v4, dh = v.reshape(4, hs), v[3 * hs:]
            dc = gout[n + 1].astype(dt)
            dh[:] = gout[n]
            tmp = np.empty(hs, dtype=dt)
            stack = np.empty((_LSTM_BLOCK + 1, hs, 4 * hs), dtype=dt)
            for a in reversed(range(0, n, _LSTM_BLOCK)):
                e = min(a + _LSTM_BLOCK, n)
                gb, fb = xz[a:e], fac[a:e]
                tg, tc = fb[:, :hs], gb[:, 2 * hs:3 * hs]
                # dz_t = (([dc, dc, dc, dh] * fb4[t]) * gb[t]) * u[t] is each
                # gate's adjoint in the tape's product order, with
                # fb4 = [tanh(g), c_{t-1}, i, tanh(c)] and gb = [i, f, 1, o]
                # (x * 1 is exact); u holds the sigmoid and tanh adjoints'
                # second factors, (1 - s) and (1 - y*y)
                fb4 = np.concatenate((fb, gb[:, :hs], tc), axis=1)
                u = 1.0 - gb
                u[:, 2 * hs:3 * hs] = 1.0 - tg * tg
                utc = 1.0 - tc * tc
                tc[...] = 1.0
                rows = (gout[a:e], gb, gb[:, hs:2 * hs], gb[:, 3 * hs:], fb4, u,
                        utc)
                # f_t and o_t are read before dz_t overwrites their row
                for gt_out, gt, f, o, ft, ut, uct in zip(*(r[::-1] for r in rows)):
                    np.add(dh, gt_out, out=dh)
                    np.multiply(dh, o, out=tmp)
                    np.multiply(tmp, uct, out=tmp)
                    np.add(dc, tmp, out=dc)
                    v4[:3] = dc
                    np.multiply(dc, f, out=dc)
                    np.multiply(v, ft, out=ft)
                    np.multiply(ft, gt, out=gt)
                    np.multiply(gt, ut, out=gt)
                    np.dot(whd, gt, out=dh)
                # dW_h += outer(h_{t-1}, dz_t) for t descending: a reduction
                # over the leading axis adds in that order, one GEMM would not
                st = stack[:e - a + 1]
                st[0] = dwh
                hp = out[a - 1:e - 1] if a else np.vstack((h0d, out[:e - 1]))
                np.multiply(hp[::-1, :, None], gb[::-1, None, :], out=st[1:])
                np.add.reduce(st, axis=0, out=dwh)
            # xz now holds dz: the projection's matmul and add adjoints
            return (xz @ wxd.T, xd.T @ xz, xz.sum(axis=0), dwh, dh, dc)
        return vjp

    return _emit("lstm", out, parents, build)


# ---------------------------------------------------------------------------
# recursive filtering

# Samples per solver block, the fastest of 128, 256 and 1024 at 4,096 and
# 288,000 samples. Static coefficients use it; a per-block block that is a
# multiple repeats its coefficients over it, any other is its own solver block.
_BIQUAD_BLOCK = 128


def _allpole_taps(a1: np.ndarray, a2: np.ndarray, b: int):
    """First b taps g of 1 / (1 + a1 z^-1 + a2 z^-2), one row per (a1, a2)
    pair, behind two zeros so columns t + 1 and t hold g[t-1] and g[t-2];
    and their rfft at size 2b."""
    g = np.zeros((b + 2, a1.shape[0]))
    g[2] = 1.0
    m1, tmp = -a1, np.empty_like(g[0])
    # g[t] = -a1 * g[t-1] - a2 * g[t-2], in place
    for g2, g1, g0 in zip(g[1:], g[2:], g[3:]):
        np.multiply(m1, g1, out=g0)
        np.multiply(a2, g2, out=tmp)
        np.subtract(g0, tmp, out=g0)
    g = np.ascontiguousarray(g.T)
    return g, np.fft.rfft(g[:, 2:], n=2 * b, axis=1)


def _allpole_blocks(v, g, G, a1_in, a2_in, p1=0.0, p2=0.0):
    """Solve y[t] = v[t] - a1 y[t-1] - a2 y[t-2] over blocks v [nb, b],
    with y[-1] = p1 and y[-2] = p2.

    Block k runs on its own taps g, G. Its zero-state part is an exact
    size-2b FFT convolution (b outputs kept, nothing wraps); a scan over
    blocks then adds u0 g[t] + u1 g[t-1] for the carried outputs, with
    u0 = -a1_in[k] y[-1] - a2_in[k] y[-2] and u1 = -a2_in[k] y[-1].
    """
    nb, b = v.shape
    zs = np.fft.irfft(np.fft.rfft(v, n=2 * b, axis=1) * G, n=2 * b,
                      axis=1)[:, :b]
    z1 = zs[:, -1].tolist()
    z2 = zs[:, -2].tolist() if b > 1 else z1
    g1, g2, g3 = (np.broadcast_to(g[:, t], (nb,)).tolist()
                  for t in (b + 1, b, b - 1))
    a1l, a2l = a1_in.tolist(), a2_in.tolist()
    u = []  # (u0, u1) per block; p1, p2 are the last two outputs so far
    for k in range(nb):
        c0 = -a1l[k] * p1 - a2l[k] * p2
        c1 = -a2l[k] * p1
        u.append((c0, c1))
        p1, p2 = (z1[k] + c0 * g1[k] + c1 * g2[k],
                  z2[k] + c0 * g2[k] + c1 * g3[k] if b > 1 else p1)
    u = np.asarray(u)
    return zs + u[:, :1] * g[:, 2:] + u[:, 1:] * g[:, 1:b + 1]


def _section(xd, cols, b: int, taps, record: bool, hist):
    """One direct-form-I section over xd [n] with coefficient rows cols
    (b0, b1, b2, a1, a2, each float64 [nb] over solver blocks of b),
    all-pole taps (g, G) of one row or one per block and the history hist
    (x[-2], x[-1], y[-2], y[-1]). Returns the output in xd's dtype, the
    history after it and, when recording, the vjp: output gradient ->
    (input gradient in xd's dtype, the five coefficient gradients per
    block). The vjp keeps the float64 y, the taps g and xd; it rebuilds
    the x lags from xd and the spectrum G from g, equal to the bit."""
    cb0, cb1, cb2, ca1, ca2 = cols
    n, nb = xd.shape[0], cb0.shape[0]
    big_n = nb * b
    hx = hist[:2].copy()

    def lags(h, s, ks):
        # s[t-k] for each k in ks as [nb, b] blocks, the two samples h before s
        hs = np.concatenate([h, s, np.zeros(big_n - s.shape[0])])
        return [hs[2 - k:big_n + 2 - k].reshape(nb, b) for k in ks]

    xs = lags(hx, xd, range(3))
    v = cb0[:, None] * xs[0] + cb1[:, None] * xs[1] + cb2[:, None] * xs[2]
    g, G = taps
    y = _allpole_blocks(v, g, G, ca1, ca2, float(hist[3]), float(hist[2]))
    out = y.reshape(-1)[:n].astype(xd.dtype)
    after = np.concatenate([last_samples(hx, xd, 2),
                            last_samples(hist[2:], y.reshape(-1)[:n], 2)])
    if not record:
        return out, after, None

    ys = lags(hist[2:], y.reshape(-1), (1, 2))
    # injections at the edges of the reversed blocks weigh the next block;
    # with one-sample blocks, y[t-2]'s weight is two blocks on
    sh = 2 if b == 1 else 1
    a1_next, a2_next = np.zeros(nb), np.zeros(nb)
    a1_next[:-1] = ca1[1:]
    a2_next[:nb - sh] = ca2[sh:]

    def vjp(gout):
        gy = np.concatenate([gout, np.zeros(big_n - n)])
        G = np.fft.rfft(g[:, 2:], n=2 * b, axis=1)
        w = _allpole_blocks(gy.reshape(nb, b)[::-1, ::-1], g[::-1], G[::-1],
                            a1_next[::-1], a2_next[::-1])[::-1, ::-1]
        xs = lags(hx, xd, range(3))
        dx = (cb0[:, None] * w).reshape(-1)
        dx[:-1] += (cb1[:, None] * w).reshape(-1)[1:]
        dx[:-2] += (cb2[:, None] * w).reshape(-1)[2:]
        sums = [(w * xs[k]).sum(axis=1) for k in range(3)]
        sums += [-(w * ys[k]).sum(axis=1) for k in range(2)]
        return dx[:n].astype(xd.dtype), sums
    return out, after, vjp


def biquad(x: Tensor, coeffs: Tensor, block: int | None = None,
           history: np.ndarray | None = None):
    """Cascade of direct-form-I biquads over x [T]. Section s filters the
    output of section s - 1:
    y[t] = b0 x[t] + b1 x[t-1] + b2 x[t-2] - a1 y[t-1] - a2 y[t-2].

    coeffs holds each section's a0-normalized (b0, b1, b2, a1, a2): [S, 5]
    for the whole signal, or [ceil(T / block), S, 5] with one set per block
    of `block` samples acting on the x and y history carried in from the
    block before. history [S, 4] holds each section's (x[-2], x[-1],
    y[-2], y[-1]) before x, zeros when None; it is a constant and gets no
    gradient. Returns (y, the float64 [S, 4] history after x), so a signal
    filtered piece by piece with the history carried equals one call; the
    same to the bit where the pieces split at multiples of the solver
    block. Each section computes in float64 and its output is cast
    to x's dtype. The vjp walks the sections in reverse; each runs the same
    block solver on its reversed output gradient (next block's a1, a2 at
    block edges) for w = dL/dv, then dL/db_k = sum w x[t-k],
    dL/da_k = -sum w y[t-k] and dL/dx by FIR transpose. All sections'
    all-pole taps come from one `_allpole_taps` call, taped or not.
    """
    xd, cd = x.data, coeffs.data
    if xd.ndim != 1:
        raise ValueError("biquad expects a 1-D signal")
    if cd.ndim not in (2, 3) or cd.shape[-1] != 5:
        raise ValueError(f"coefficients must be [S, 5] or [blocks, S, 5], "
                         f"got shape {cd.shape}")
    n = xd.shape[0]
    if cd.ndim == 2:
        block = _BIQUAD_BLOCK
    elif block is None:
        raise ValueError("per-block coefficients require a block size")
    if history is None:
        history = np.zeros((cd.shape[-2], 4))
    elif history.shape != (cd.shape[-2], 4):
        raise ValueError(f"history must be [{cd.shape[-2]}, 4], got shape "
                         f"{history.shape}")
    nbc = -(-n // block)
    if cd.ndim == 3 and cd.shape[0] != nbc:
        raise ValueError(f"coefficients have {cd.shape[0]} blocks, "
                         f"signal needs {nbc}")
    reps, b = ((block // _BIQUAD_BLOCK, _BIQUAD_BLOCK)
               if block % _BIQUAD_BLOCK == 0 else (1, block))
    nb = nbc * reps
    c64 = cd.astype(np.float64)
    # [S, 5, nb]: each section's coefficients per solver block, and the
    # rows its taps need (one for static coefficients)
    if cd.ndim == 2:
        cs, rows = np.broadcast_to(c64[:, :, None], c64.shape + (nb,)), 1
    else:
        cs, rows = np.repeat(c64.transpose(1, 2, 0), reps, axis=2), nb
    record = records((x, coeffs))
    shared = _allpole_taps(cs[:, 3, :rows].reshape(-1),
                           cs[:, 4, :rows].reshape(-1), b)
    y, backs, after = xd, [], np.empty((cd.shape[-2], 4))
    for s, cols in enumerate(cs):
        taps = tuple(t[s * rows:(s + 1) * rows] for t in shared)
        y, after[s], back = _section(y, cols, b, taps, record, history[s])
        backs.append(back)

    def build():
        def vjp(gout):
            dc = np.empty_like(cd)
            for s in reversed(range(len(backs))):
                gout, sums = backs[s](gout)
                for k, sm in enumerate(sums):
                    dc[..., s, k] = (sm.reshape(-1, reps).sum(axis=1)
                                     if cd.ndim == 3 else sm.sum())
            return gout, dc
        return vjp

    return _emit("biquad", y, (x, coeffs), build), after


# ---------------------------------------------------------------------------
# spectral magnitude

# frames per block of the stft_mag backward: its complex spectrum and
# inverse FFT span one block at a time, not every frame
_STFT_BLOCK = 8


def stft_mag(x: Tensor, window: np.ndarray, fft_size: int, hop: int,
             floor: float) -> Tensor:
    """Magnitude spectrogram [frames, fft_size // 2 + 1] of a 1-D signal.

    Frames of len(window) samples start every hop samples from sample 0,
    are windowed, zero-padded to fft_size and transformed; the magnitude
    is sqrt(re^2 + im^2 + floor^2). The vjp repeats, operation for
    operation, the reverse pass of the same steps composed from
    take/mul/pad_end/rfft/slice/sqrt nodes, so the gradient equals it to
    the bit: the sqrt and product rules, the complex ifft of the bin
    gradient, the window, and an overlap-add in frame order. It works
    through _STFT_BLOCK frames at a time; blocks add in order, so each
    sample still receives its frames first to last.
    """
    xd = x.data
    if xd.ndim != 1:
        raise ValueError("stft_mag expects a 1-D signal")
    win = window.shape[0]
    num = (xd.shape[0] - win) // hop + 1
    frames = np.lib.stride_tricks.sliding_window_view(xd, win)[::hop]
    spec = np.fft.rfft(frames * window, n=fft_size, axis=-1)
    re = spec.real.astype(xd.dtype)
    im = spec.imag.astype(xd.dtype)
    out = np.sqrt((re * re + im * im) + np.asarray(floor ** 2, dtype=xd.dtype))

    def build():
        r = -(-win // hop)  # hop-sized blocks a frame spans

        def vjp(g):
            acc = np.zeros((num + r - 1, hop), dtype=xd.dtype)
            for f0 in range(0, num, _STFT_BLOCK):
                fs = slice(f0, min(f0 + _STFT_BLOCK, num))
                nf = fs.stop - f0
                gs = g[fs] * (0.5 / out[fs])
                c = np.zeros((nf, fft_size), dtype=np.complex128)
                c[:, :re.shape[1]] = ((gs * re[fs] + gs * re[fs])
                                      + 1j * (gs * im[fs] + gs * im[fs]))
                c = np.fft.ifft(c, axis=-1)  # frees the spectrum before gf
                gf = np.zeros((nf, r * hop), dtype=xd.dtype)
                gf[:, :win] = ((fft_size * c[:, :win].real).astype(xd.dtype)
                               * window)
                # piece m of frame f holds samples (f + m) * hop onwards;
                # adding the pieces last to first, block after block, adds
                # each sample's frames first to last
                gf = gf.reshape(nf, r, hop)
                for m in range(r - 1, -1, -1):
                    acc[f0 + m:f0 + m + nf] += gf[:, m]
            dx = np.zeros_like(xd)
            span = min(acc.size, dx.size)
            dx[:span] = acc.reshape(-1)[:span]
            return (dx,)
        return vjp

    return _emit("stft_mag", out, (x,), build)


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
    worst = 0.0
    for t, an in zip(inputs, tape.backward(out, inputs)):
        an_data = np.zeros_like(t.data) if an is None else an
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
