"""Optimization loop: Adam, plain and truncated-BPTT steps, evaluation.

Batch order is a pure function of (seed, step index), never of loop
history, so a run resumed from a checkpoint sees exactly the data the
uninterrupted run would have seen.
"""

from __future__ import annotations

import time

import numpy as np

from . import losses as L
from . import models as M
from . import tensor as T
from .data import atomic_open
from .tensor import Tape, Tensor


class TrainConfig:
    def __init__(self, max_steps: int = 15000, batch_size: int = 1,
                 lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, w_l1: float = 1.0, w_mrstft: float = 1.0,
                 mrstft_resolutions=L.MRSTFTConfig.DEFAULT,
                 tbptt: bool = False, chunk_len: int = 2048,
                 warmup_len: int = 1000, validate_every: int = 500,
                 seed: int = 0, stop_metric: str | None = None,
                 stop_value: float | None = None):
        if tbptt and batch_size != 1:
            raise ValueError("batch_size must be 1 when tbptt is enabled")
        if (stop_metric is None) != (stop_value is None):
            raise ValueError("stop_metric and stop_value go together")
        self.max_steps = max_steps
        self.batch_size = batch_size
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weights = L.LossWeights(w_l1, w_mrstft)
        self.mrstft_cfg = L.MRSTFTConfig(mrstft_resolutions)
        self.tbptt = tbptt
        self.chunk_len = chunk_len
        self.warmup_len = warmup_len
        self.validate_every = validate_every
        self.seed = seed
        self.stop_metric = stop_metric
        self.stop_value = stop_value


class Adam:
    """Standard Adam with bias correction. Skips non-finite steps whole."""

    def __init__(self, params, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.skipped = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads) -> bool:
        """Apply one update from gradient arrays aligned with params (None:
        no gradient). Returns False (and counts) on non-finite grads."""
        gs = [np.zeros_like(p.data) if g is None else g
              for p, g in zip(self.params, grads, strict=True)]
        if not all(np.all(np.isfinite(g)) for g in gs):
            self.skipped += 1
            return False
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(self.params, gs, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data = p.data - self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
        return True

    def load_state_dict(self, state: dict) -> None:
        """Moments are cast to their parameters' dtypes; a count or shape
        that does not match the parameters raises ValueError."""
        for key in ("m", "v"):
            if len(state[key]) != len(self.params):
                raise ValueError(f"optimizer state has {len(state[key])} {key} "
                                 f"moments for {len(self.params)} parameters")
            for i, (a, p) in enumerate(zip(state[key], self.params)):
                if np.shape(a) != p.data.shape:
                    raise ValueError(f"optimizer {key}[{i}] has shape "
                                     f"{np.shape(a)}, its parameter "
                                     f"{p.data.shape}")
        self.t = int(state["t"])
        self.skipped = int(state["skipped"])
        self.m = [np.array(a, dtype=p.data.dtype)
                  for a, p in zip(state["m"], self.params)]
        self.v = [np.array(a, dtype=p.data.dtype)
                  for a, p in zip(state["v"], self.params)]


def detach_state(s):
    """Copy a nested state structure out of the tape."""
    if s is None:
        return None
    if isinstance(s, Tensor):
        return Tensor(s.data.copy())
    if isinstance(s, tuple):
        return tuple(detach_state(v) for v in s)
    if isinstance(s, list):
        return [detach_state(v) for v in s]
    return s


def _controls(seg):
    if getattr(seg, "controls", None) is not None and len(seg.controls):
        return Tensor(np.asarray(seg.controls, dtype=T.default_dtype()))
    return None


def _loss(y, y_hat, cfg: TrainConfig):
    """(taped total, l1 value, mrstft value) against a numpy target."""
    yt = Tensor(np.asarray(y, dtype=y_hat.data.dtype))
    return L.weighted_loss(yt, y_hat, cfg.weights, cfg.mrstft_cfg)


def _update(model, xs, ys, cs, states, a, b, optimizer: Adam,
            cfg: TrainConfig) -> tuple:
    """One update on the mean loss over every segment's samples [a, b).

    Each segment runs its forward, loss and backward on its own tape, so
    only one segment's graph is alive at a time; its state goes on
    detached. Returns (loss value, l1 value, mrstft value, whether the
    update applied), the values means over the segments.
    """
    seg_grads = []
    l1_val = mr_val = 0.0
    for i in range(len(xs)):
        with Tape() as tape:
            y_hat, state = model.forward(
                Tensor(np.asarray(xs[i][a:b], dtype=T.default_dtype())),
                cs[i], states[i])
            t, p1, p2 = _loss(ys[i][a:b], y_hat, cfg)
            # once a loss is non-finite the update is skipped: no backward
            if seg_grads is not None and np.isfinite(t.data):
                root = t if len(xs) == 1 else T.mul(
                    t, Tensor(np.asarray(1.0 / len(xs), dtype=t.data.dtype)))
                seg_grads.append(tape.backward(root, optimizer.params))
            else:
                seg_grads = None
            states[i] = detach_state(state)
            tot = t.data if i == 0 else tot + t.data
            l1_val += p1
            mr_val += p2
            if i == len(xs) - 1:  # under a tape: traces count it as training
                loss_val, applied = _apply(tot, len(xs), seg_grads, optimizer)
    return loss_val, l1_val / len(xs), mr_val / len(xs), applied


def _apply(tot, n: int, seg_grads, optimizer: Adam) -> tuple:
    """Mean the sum `tot` of n segment losses and, when that is finite,
    make one Adam step on the per-segment gradients; a counted skip
    otherwise.

    Both follow the order of one tape over all segments: the losses were
    added first to last, and a backward from their mean would add each
    leaf's per-segment gradients last segment first. So the update is
    bit-identical to that tape's. Returns (loss value, whether the
    update applied).
    """
    if n > 1:
        tot = tot * np.asarray(1.0 / n, dtype=tot.dtype)
    if not np.isfinite(tot):
        optimizer.skipped += 1
        return float(tot), False
    summed = []
    for gs in zip(*seg_grads):
        acc = None
        for g in reversed(gs):
            if g is not None:
                acc = g if acc is None else acc + g
        summed.append(acc)
    return float(tot), optimizer.step(summed)


def _step(model, segs, optimizer: Adam, cfg: TrainConfig, warmup: int,
          chunk: int | None) -> tuple:
    """Warm each segment up untaped over its first `warmup` samples, then
    make one update per `chunk` samples (None: the rest of the segment) on
    the mean loss over `segs`, each segment's state carried detached from
    the tape. Returns (mean losses over the updates, updates applied)."""
    if not segs:
        raise ValueError("empty batch")
    xs = [np.asarray(s.x) for s in segs]
    ys = [np.asarray(s.y) for s in segs]
    n = min(len(x) for x in xs)
    if chunk is not None and chunk > n:
        raise ValueError(f"chunk_len {chunk} exceeds sequence length {n}")
    starts = [warmup] if chunk is None else range(warmup, n - chunk + 1, chunk)
    if not starts:
        raise ValueError("warmup consumed the whole sequence")
    model.train()
    cs = [_controls(s) for s in segs]
    states = [None] * len(segs)
    if warmup:
        for i, x in enumerate(xs):
            warm = Tensor(np.asarray(x[:warmup], dtype=T.default_dtype()))
            states[i] = detach_state(model.forward(warm, cs[i], None)[1])
    tots, l1s, mrs = [], [], []
    updates = 0
    for a in starts:
        b = None if chunk is None else a + chunk
        loss_val, l1_val, mr_val, applied = _update(
            model, xs, ys, cs, states, a, b, optimizer, cfg)
        updates += applied
        tots.append(loss_val)
        l1s.append(l1_val)
        mrs.append(mr_val)
    return {"loss_tot": float(np.mean(tots)), "loss_l1": float(np.mean(l1s)),
            "loss_mrstft": float(np.mean(mrs))}, updates


def train_step(model, batch, optimizer: Adam, cfg: TrainConfig) -> dict:
    """One forward/backward/update over a batch of segments."""
    losses, updates = _step(model, batch, optimizer, cfg, 0, None)
    return {**losses, "applied": updates == 1}


def tbptt_train_step(model, seg, optimizer: Adam, cfg: TrainConfig) -> dict:
    """Chunked recurrent training: warm up without gradient, then update
    once per chunk with the carried state detached from the tape."""
    losses, updates = _step(model, [seg], optimizer, cfg, cfg.warmup_len,
                            cfg.chunk_len)
    return {**losses, "updates": updates}


# -- evaluation --------------------------------------------------------------

EVAL_COLUMNS = ("tot", "l1", "mrstft", "esr", "dc", "mae", "mse", "mape")


def evaluate(model, segments, weights: L.LossWeights | None = None,
             mrstft_cfg: L.MRSTFTConfig | None = None) -> dict:
    """Mean metrics over segments; tot = w_l1*l1 + w_mrstft*mrstft."""
    if not segments:
        raise ValueError("cannot evaluate on an empty segment list")
    w = weights or L.LossWeights()
    was_training = model.training
    model.eval()
    sums = {k: 0.0 for k in EVAL_COLUMNS}
    for seg in segments:
        x = Tensor(np.asarray(seg.x, dtype=T.default_dtype()))
        y_hat, _ = model.forward(x, _controls(seg), None)
        yt = Tensor(np.asarray(seg.y, dtype=y_hat.data.dtype))
        row = {
            "l1": L.l1(yt, y_hat).item(),
            "mrstft": L.mrstft(yt, y_hat, mrstft_cfg).item(),
            "esr": L.esr(yt, y_hat).item(),
            "dc": L.dc_loss(yt, y_hat).item(),
            "mse": L.mse(yt, y_hat).item(),
            "mape": L.mape(yt, y_hat).item(),
        }
        row["mae"] = row["l1"]  # the same metric; kept for the log format
        row["tot"] = w.w_l1 * row["l1"] + w.w_mrstft * row["mrstft"]
        for k in EVAL_COLUMNS:
            sums[k] += row[k]
    model.train(was_training)
    return {k: sums[k] / len(segments) for k in EVAL_COLUMNS}


def format_table(metrics: dict) -> str:
    """Tot / L1 / MR-STFT columns first, the rest after."""
    head = f"{'Tot':>10} {'L1':>10} {'MR-STFT':>10} {'ESR':>10} {'DC':>10}"
    row = (f"{metrics['tot']:>10.4f} {metrics['l1']:>10.4f} "
           f"{metrics['mrstft']:>10.4f} {metrics['esr']:>10.4f} "
           f"{metrics['dc']:>10.4f}")
    return head + "\n" + row


# -- logging -----------------------------------------------------------------

class RunLog:
    """Per-step loss rows plus periodic validation metrics, CSV-friendly."""

    COLUMNS = ("step", "loss_tot", "loss_l1", "loss_mrstft", "skipped",
               "wall_clock", "val_tot", "val_l1", "val_mrstft", "val_esr",
               "val_dc", "val_mae", "val_mse", "val_mape")

    def __init__(self):
        self.rows = []

    def add(self, step: int, losses: dict, skipped: int,
            wall_clock: float, val: dict | None = None) -> None:
        if self.rows and step <= self.rows[-1]["step"]:
            raise ValueError("step indices must increase")
        row = {"step": step, "loss_tot": losses["loss_tot"],
               "loss_l1": losses["loss_l1"],
               "loss_mrstft": losses["loss_mrstft"],
               "skipped": skipped, "wall_clock": wall_clock}
        if val is not None:
            for k in EVAL_COLUMNS:
                row[f"val_{k}"] = val[k]
        self.rows.append(row)

    def to_csv(self, path) -> None:
        with atomic_open(path) as f:
            f.write(",".join(self.COLUMNS) + "\n")
            for row in self.rows:
                cells = []
                for col in self.COLUMNS:
                    v = row.get(col)
                    if v is None:
                        cells.append("")
                    elif col in ("step", "skipped"):
                        cells.append(str(int(v)))
                    else:
                        cells.append(f"{v:.10g}")
                f.write(",".join(cells) + "\n")

    @classmethod
    def from_csv(cls, path) -> "RunLog":
        log = cls()
        with open(path) as f:
            header = f.readline().strip().split(",")
            if tuple(header) != cls.COLUMNS:
                raise ValueError("unrecognized log header")
            for line in f:
                cells = line.strip().split(",")
                row = {}
                for col, cell in zip(cls.COLUMNS, cells):
                    if cell == "":
                        continue
                    row[col] = int(cell) if col in ("step", "skipped") \
                        else float(cell)
                log.rows.append(row)
        return log


# -- training loop -----------------------------------------------------------

def batch_indices(seed: int, step: int, n: int, batch_size: int) -> list:
    """Deterministic batch: depends only on (seed, step), never on history."""
    rng = np.random.default_rng([seed, step])
    return rng.integers(0, n, size=batch_size).tolist()


def save_training_checkpoint(path, model, spec, optimizer: Adam,
                             step: int, best: float | None = None) -> None:
    """best: the validation tot loss this checkpoint was kept for."""
    extra = {"step": step,
             "optimizer": {
                 "t": optimizer.t, "skipped": optimizer.skipped,
                 "m": [M._encode_array(a) for a in optimizer.m],
                 "v": [M._encode_array(a) for a in optimizer.v]}}
    if best is not None:
        extra["best"] = best
    M.save_checkpoint(path, model, spec, extra=extra)


def restore_training(path, cfg: TrainConfig,
                     rng: np.random.Generator | None = None):
    """Returns (model, spec, optimizer, step, best) rebuilt from a
    checkpoint; best is the validation tot loss it was kept for, or inf."""
    model, spec, extra = M.load_checkpoint(path, rng)
    optimizer = Adam(model.parameters(), cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
    step, best = 0, np.inf
    if extra and "optimizer" in extra:
        ost = extra["optimizer"]
        optimizer.load_state_dict({
            "t": ost["t"], "skipped": ost["skipped"],
            "m": [M._decode_array(a) for a in ost["m"]],
            "v": [M._decode_array(a) for a in ost["v"]]})
        step = int(extra.get("step", 0))
        best = float(extra.get("best", np.inf))
    return model, spec, optimizer, step, best


def fit(model, spec, train_segments, cfg: TrainConfig,
        val_segments=None, log_path=None, checkpoint_path=None,
        optimizer: Adam | None = None, start_step: int = 0,
        best: float = np.inf, log: RunLog | None = None) -> RunLog:
    """Train for cfg.max_steps, validating and checkpointing periodically.

    The best checkpoint (by validation tot loss) is kept when both
    val_segments and checkpoint_path are given; a resumed run passes the
    best loss so far from restore_training, so only a better one replaces it.
    A resumed run may also pass the rows logged up to start_step as `log`;
    new rows are appended to it, and its wall clock continues. log_path is
    rewritten whole at every validation and at the last step, so a crash
    loses only the rows since the last validation. It is written before the
    checkpoint: a log that runs past the checkpoint is trimmed on resume,
    while one that stopped short of it would leave a hole.
    """
    if not train_segments:
        raise ValueError("no training segments")
    optimizer = optimizer or Adam(model.parameters(), cfg.lr, cfg.beta1,
                                  cfg.beta2, cfg.eps)
    log = RunLog() if log is None else log
    t0 = time.monotonic() - (log.rows[-1]["wall_clock"] if log.rows else 0.0)
    n = len(train_segments)
    for step in range(start_step + 1, cfg.max_steps + 1):
        idx = batch_indices(cfg.seed, step, n, cfg.batch_size)
        if cfg.tbptt:
            losses = tbptt_train_step(model, train_segments[idx[0]],
                                      optimizer, cfg)
        else:
            losses = train_step(model, [train_segments[i] for i in idx],
                                optimizer, cfg)
        val = None
        if val_segments and (step % cfg.validate_every == 0
                             or step == cfg.max_steps):
            val = evaluate(model, val_segments, cfg.weights, cfg.mrstft_cfg)
        log.add(step, losses, optimizer.skipped, time.monotonic() - t0, val)
        if log_path and (val is not None or step == cfg.max_steps):
            log.to_csv(log_path)
        if val is None:
            continue
        if checkpoint_path and val["tot"] < best:
            best = val["tot"]
            save_training_checkpoint(checkpoint_path, model, spec,
                                     optimizer, step, best)
        if (cfg.stop_metric is not None
                and val[cfg.stop_metric] <= cfg.stop_value):
            break
    return log
