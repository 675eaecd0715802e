#!/usr/bin/env python3
"""Produce the committed tanh-surrogate coefficient files.

Two artifacts, both fit offline and checked here before being written:

  rational_tanh.json  order-[6,5] rational function, iteratively reweighted
                      least squares on 4096 points in [-4, 4]
  mlp_tanh.json       sine-activation MLP (w0=30 on the first layer),
                      Adam on the same grid plus an exact least-squares
                      solve of the final linear layer

Run from the repo root after an editable install:

    python3 scripts/fit_pretrained.py

The build itself never fits anything; it loads these files.
"""

import argparse
import json
import pathlib
import sys

import numpy as np

import gradfx.tensor as T
from gradfx import nn

FIT_POINTS = 4096
FIT_DOMAIN = (-4.0, 4.0)
CHECK_DOMAIN = (-3.0, 3.0)
RATIONAL_TOL = 1e-3
MLP_TOL = 5e-3


def fit_rational():
    """[6,5] rational via Sanathanan-Koerner reweighted least squares."""
    x = np.linspace(*FIT_DOMAIN, FIT_POINTS)
    y = np.tanh(x)
    N = np.vander(x, 7, increasing=True)          # x^0 .. x^6
    D = np.vander(x, 6, increasing=True)[:, 1:]   # x^1 .. x^5

    den = np.ones_like(x)
    a = b = None
    for _ in range(25):
        w = 1.0 / np.abs(den)
        A = np.hstack([N, -(y[:, None]) * D])
        theta, *_ = np.linalg.lstsq(w[:, None] * A, w * y, rcond=None)
        a, b = theta[:7], theta[7:]
        den = 1.0 + D @ b

    xe = np.linspace(*CHECK_DOMAIN, 20001)
    r = (np.vander(xe, 7, increasing=True) @ a) / \
        (1.0 + np.vander(xe, 6, increasing=True)[:, 1:] @ b)
    max_err = float(np.max(np.abs(r - np.tanh(xe))))

    xg = np.linspace(-8.0, 8.0, 40001)
    den_min = float(np.min(1.0 + np.vander(xg, 6, increasing=True)[:, 1:] @ b))

    assert max_err <= RATIONAL_TOL, f"rational fit too loose: {max_err}"
    assert den_min > 0.1, f"denominator approaches zero on [-8,8]: {den_min}"
    assert abs(a[0]) < 1e-4, f"a0 should be ~0 for an odd target: {a[0]}"

    return {
        "order": [6, 5],
        "numerator": [float(v) for v in a],
        "denominator": [float(v) for v in b],
        "fit": {
            "target": "tanh",
            "points": FIT_POINTS,
            "domain": list(FIT_DOMAIN),
            "max_err_on_check_domain": max_err,
            "check_domain": list(CHECK_DOMAIN),
            "den_min_on_[-8,8]": den_min,
        },
    }


def fit_mlp(seed: int, steps: int):
    """Sine-activation MLP trained to tanh; last layer re-solved exactly."""
    T.set_default_dtype(np.float64)
    rng = np.random.default_rng(seed)
    sizes = [1, 16, 16, 1]
    w0 = 30.0
    net = nn.SirenMLP(sizes, rng, w0=w0)
    # keep effective first-layer frequencies (w0 * w) low: the target is smooth
    net.layers[0].w.data = rng.uniform(-0.15, 0.15, size=(1, sizes[1]))
    net.layers[0].b.data = rng.uniform(-0.5, 0.5, size=sizes[1])
    for layer in net.layers[1:]:
        fan = layer.w.data.shape[0]
        bound = np.sqrt(6.0 / fan)
        layer.w.data = rng.uniform(-bound, bound, size=layer.w.data.shape)

    x = np.linspace(*FIT_DOMAIN, FIT_POINTS)[:, None]
    y = np.tanh(x)
    xt, yt = T.Tensor(x), T.Tensor(y)
    params = net.parameters()
    m = [np.zeros_like(p.data) for p in params]
    v = [np.zeros_like(p.data) for p in params]
    b1, b2, eps = 0.9, 0.999, 1e-8
    for step in range(1, steps + 1):
        lr = 1e-3 * 0.5 * (1.0 + np.cos(np.pi * step / steps))
        with T.Tape() as tape:
            diff = T.sub(net(xt), yt)
            loss = T.mean_(T.mul(diff, diff))
        grads = tape.backward(loss, params)
        for i, (p, g) in enumerate(zip(params, grads)):
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            p.data = p.data - lr * (m[i] / (1 - b1 ** step)) / \
                (np.sqrt(v[i] / (1 - b2 ** step)) + eps)

    # the final layer is linear in its weights: solve it exactly
    h = np.sin(w0 * (x @ net.layers[0].w.data + net.layers[0].b.data))
    h = np.sin(h @ net.layers[1].w.data + net.layers[1].b.data)
    A = np.hstack([h, np.ones((len(x), 1))])
    theta, *_ = np.linalg.lstsq(A, y, rcond=None)
    net.layers[2].w.data = theta[:-1]
    net.layers[2].b.data = theta[-1]

    xe = np.linspace(*CHECK_DOMAIN, 20001)[:, None]
    max_err = float(np.max(np.abs(net(T.Tensor(xe)).data - np.tanh(xe))))
    assert max_err <= MLP_TOL, f"mlp fit too loose: {max_err}"
    ordered = [float(net(T.Tensor(np.array([[val]]))).data.reshape(-1)[0])
               for val in (-1.0, 0.0, 1.0)]
    assert ordered[0] < ordered[1] < ordered[2], "fit lost monotone ordering"

    T.set_default_dtype(np.float32)
    return {
        "sizes": sizes,
        "w0": w0,
        "layers": [{"w": layer.w.data.tolist(), "b": layer.b.data.tolist()}
                   for layer in net.layers],
        "fit": {
            "target": "tanh",
            "points": FIT_POINTS,
            "domain": list(FIT_DOMAIN),
            "seed": seed,
            "adam_steps": steps,
            "max_err_on_check_domain": max_err,
            "check_domain": list(CHECK_DOMAIN),
        },
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="src/gradfx/prefit")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--steps", type=int, default=8000)
    args = ap.parse_args(argv)

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rational = fit_rational()
    (out / "rational_tanh.json").write_text(json.dumps(rational, indent=1))
    print(f"rational_tanh.json: max err {rational['fit']['max_err_on_check_domain']:.2e}")

    mlp = fit_mlp(args.seed, args.steps)
    (out / "mlp_tanh.json").write_text(json.dumps(mlp, indent=1))
    print(f"mlp_tanh.json: max err {mlp['fit']['max_err_on_check_domain']:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
