"""Models with hand-derived gradients: a shared 2-layer MLP composed with an
architecture-specific propagation stage, decoupled: H = MLP(X), then
Z = prop(H).

    GSCNet   prop(V) = (sum_i alpha_i (2I-L)^i + sum_j beta_j L^j) V
    GCN      prop(V) = M^k V                 M = D_hat^{-1/2}(A+I)D_hat^{-1/2}
    JKNet    prop(V) = sum_{k=1..K} alpha_k M^k V
    BernNet  prop(V) = sum_{k=0..K} alpha_k (2I-L)^k L^{K-k} V

Each baseline is what its row says: "GCN" is the MLP then M^k, not stacked
GCN layers (Kipf & Welling, 2017), and "JKNet" is GPR-GNN's propagation
(Chien et al., 2021) without its k = 0 term, not a jumping-knowledge
aggregation of stacked layers (Xu et al., 2018).

One propagation path serves all four: `propagation` checks an
architecture's degrees once and returns its `Propagation`, whose `blocks`
are the basis blocks B_m(V) and whose `apply` is prop(V) = sum_m (W c)_m
B_m(V) with c = (alpha, beta), or the fixed weight [1] for GCN's one block.
W is the identity matrix except for GSCNet, whose blocks are the Krylov
sequence Â^m V up to the larger degree, and whose W holds the binomial
coefficients of (I+Â)^i and (I-Â)^j. GCN's block is the last of the M
powers JKNet sums. Every operator is symmetric, so the backward pass is the
same path run on dZ, and the gradient of c is W^T t with
t_m = <dZ, B_m(V)>. Dropout is applied at two sites: on the first stage's
input (linear rate) and between the stages (conv rate), inverted-scaled at
train time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import (bernstein_blocks, build_basis_cache, combine, gsc_weights,
                    operator_powers)
from .errors import InputError, is_int, is_real
from .graph import SparseGraph, gcn_norm_apply

ARCHITECTURES = ("GSCNet", "GCN", "JKNet", "BernNet")
HIDDEN_UNITS = 64


@dataclass
class TrainConfig:
    lr_linear: float = 0.01
    lr_prop: float = 0.01
    weight_decay: float = 0.0005
    dropout_conv: float = 0.1
    dropout_linear: float = 0.1
    epochs: int = 1000
    seed: int = 0
    patience: int = 200

    def __post_init__(self):
        rates = (self.lr_linear, self.lr_prop, self.weight_decay,
                 self.dropout_conv, self.dropout_linear)
        # A comparison with NaN is False, so these reject NaN too.
        if not (all(is_real(x) and 0 <= x < math.inf for x in rates)
                and self.lr_linear > 0 and self.lr_prop > 0
                and self.dropout_conv < 1 and self.dropout_linear < 1):
            raise InputError("learning rates must be finite and > 0, "
                             "weight_decay finite and >= 0 and dropout in "
                             f"[0, 1), got {rates!r}")
        counts = (self.epochs, self.patience, self.seed)
        if not all(is_int(k) and k >= 0 for k in counts):
            raise InputError("epochs, patience and seed must be non-negative "
                             f"integers, got {counts!r}")


@dataclass(frozen=True, eq=False)
class Propagation:
    """One architecture's propagation stage at its degrees, as `propagation`
    checked them: ``na`` + ``nb`` coefficients c = (alpha, beta) and the
    read-only map ``W`` from c to block weights."""

    arch: str
    k1: int
    k2: int
    na: int
    nb: int
    W: np.ndarray

    def blocks(self, g: SparseGraph, V: np.ndarray) -> list:
        """The basis blocks B_m(V), one per block weight: GSCNet's Krylov
        sequence, one block per row of W, BernNet's k1 + 1 Bernstein terms,
        and for GCN and JKNet one recurrence of k1 M powers, of which GCN
        keeps the last block and JKNet every block after V."""
        if self.arch == "GSCNet":
            return build_basis_cache(g, V, self.W.shape[0] - 1)
        if self.arch == "BernNet":
            return bernstein_blocks(g, V, self.k1)
        powers = operator_powers(gcn_norm_apply, g, V, self.k1)
        return powers[-1:] if self.arch == "GCN" else powers[1:]

    def apply(self, c: np.ndarray, g: SparseGraph, V: np.ndarray):
        """(sum_m (W c)_m B_m(V), the blocks B_m(V)). GCN trains no
        coefficient and weights its one block by 1."""
        blocks = self.blocks(g, V)
        weights = np.ones(1) if self.arch == "GCN" else self.W @ c
        return combine(blocks, weights), blocks


def propagation(arch: str, k1: int, k2: int) -> Propagation:
    """The `Propagation` of ``arch`` at degrees (k1, k2); the one place the
    degrees are checked. GSCNet uses (k1, k2), where -1 switches a family
    off; GCN propagates a fixed k1 steps; JKNet and BernNet use k1 as their
    single degree K."""
    if arch not in ARCHITECTURES:
        raise InputError(f"unknown architecture {arch!r}; "
                         f"expected one of {ARCHITECTURES}")
    if not (is_int(k1) and is_int(k2)):
        raise InputError(f"degrees must be integers, got ({k1!r}, {k2!r})")
    if arch == "GSCNet":
        if k1 < -1 or k2 < -1 or (k1 < 0 and k2 < 0):
            raise InputError(f"GSCNet needs at least one family, got ({k1}, {k2})")
        na, nb, W = k1 + 1, k2 + 1, gsc_weights(k1, k2)
    else:
        lowest = 1 if arch == "JKNet" else 0
        if k1 < lowest:
            raise InputError(f"{arch} degree must be >= {lowest}, got {k1}")
        na = {"GCN": 0, "JKNet": k1, "BernNet": k1 + 1}[arch]
        # The identity's products are exact: W changes no baseline's bytes.
        nb, W = 0, np.eye(na)
    W.flags.writeable = False
    return Propagation(arch, k1, k2, na, nb, W)


@dataclass
class ModelParams:
    """Trainable state: MLP weights plus the coefficients c = (alpha, beta)
    of the model's propagation ``prop``, alpha being c[:prop.na]. The
    coefficients' meaning is architecture-dependent (see module docstring):
    GCN has none, and for JKNet alpha[k-1] multiplies M^k (there is no
    k = 0 term).
    """

    prop: Propagation
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    c: np.ndarray

    @property
    def d_in(self) -> int:
        return self.w1.shape[0]

    def trainable(self) -> dict:
        groups = {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}
        if self.c.size:
            groups["c"] = self.c
        return groups


def init_params(arch: str, d_in: int, d_out: int, k1: int, k2: int,
                seed, hidden: int = HIDDEN_UNITS) -> ModelParams:
    """Seeded initialization of ``arch`` at degrees (k1, k2) (see
    `propagation`): filter coefficients all 1, MLP weights drawn from the
    symmetric uniform fan-in scheme U(-1/sqrt(fan_in), 1/sqrt(fan_in)),
    biases zero.
    """
    prop = propagation(arch, k1, k2)
    rng = np.random.default_rng(seed)
    s1 = 1.0 / np.sqrt(d_in)
    s2 = 1.0 / np.sqrt(hidden)
    w1 = rng.uniform(-s1, s1, size=(d_in, hidden))
    w2 = rng.uniform(-s2, s2, size=(hidden, d_out))
    return ModelParams(prop=prop, w1=w1, b1=np.zeros(hidden), w2=w2,
                       b2=np.zeros(d_out), c=np.ones(prop.na + prop.nb))


class MlpBuffers(NamedTuple):
    """The MLP's n x hidden arrays, allocated once per run and written
    through numpy's ``out=``: the hidden layer h1, which a training pass and
    the evaluation after its backward share, and the bool ReLU mask. After a
    backward, h1's buffer holds h1's gradient da1. A field left None is an
    ``out=None``: numpy allocates it."""

    h1: np.ndarray | None = None
    relu: np.ndarray | None = None

    @classmethod
    def for_params(cls, params: ModelParams, n: int) -> "MlpBuffers":
        shape = (n, params.w1.shape[1])
        return cls(np.empty(shape), np.empty(shape, bool))


def forward(params: ModelParams, g: SparseGraph, X, rng=None,
            dropout_linear: float = 0.0, dropout_conv: float = 0.0,
            buffers: MlpBuffers = MlpBuffers()):
    """Run the model; returns (logits, tape) with the tape holding the
    intermediates the backward pass needs. Without dropout rates this is
    the evaluation pass; a positive rate draws its mask from ``rng``. The
    hidden layer is written into ``buffers.h1``.

    Order: drop_lin -> MLP -> drop_conv -> propagate.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != g.n:
        raise InputError(f"expected features of shape ({g.n}, d), got {X.shape}")
    if X.shape[1] != params.d_in:
        raise InputError(
            f"feature width {X.shape[1]} != model input width {params.d_in}")

    def drop_mask(shape, rate):
        # Inverted dropout: the mask is 0 or 1/(1-rate), so eval needs no
        # rescaling. It is built in the buffer of its uniforms, with no
        # bool temporary.
        if rate <= 0.0:
            return None
        if rng is None:
            raise InputError("dropout needs an rng")
        u = rng.random(shape)
        np.greater_equal(u, rate, out=u)
        u *= 1.0 / (1.0 - rate)
        return u

    # The input mask's buffer becomes Xd: one n x d array beyond X.
    mask_lin = drop_mask(X.shape, dropout_linear)
    Xd = X if mask_lin is None else np.multiply(X, mask_lin, out=mask_lin)
    # The MLP builds each stage in its product's buffer.
    h1 = np.matmul(Xd, params.w1, out=buffers.h1)
    h1 += params.b1
    np.maximum(h1, 0.0, out=h1)
    H = h1 @ params.w2
    H += params.b2
    mask_conv = drop_mask(H.shape, dropout_conv)
    Hd = H if mask_conv is None else np.multiply(H, mask_conv, out=H)
    Z, blocks = params.prop.apply(params.c, g, Hd)
    tape = {"Xd": Xd, "h1": h1, "mask_conv": mask_conv, "blocks": blocks}
    return Z, tape


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray,
                          mask: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over masked rows and its gradient w.r.t. logits
    (zero on unmasked rows). Numerically stable under large logits."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise InputError("loss needs a non-empty node mask")
    zs = logits[idx]
    zmax = zs.max(axis=1, keepdims=True)
    exp = np.exp(zs - zmax)
    total = exp.sum(axis=1, keepdims=True)
    log_probs = (zs - zmax) - np.log(total)
    rows = np.arange(idx.size)
    y = labels[idx]
    loss = -float(log_probs[rows, y].mean())

    probs = exp / total
    probs[rows, y] -= 1.0
    dZ = np.zeros_like(logits)
    dZ[idx] = probs / idx.size
    return loss, dZ


def loss_and_grad(params: ModelParams, g: SparseGraph, X, labels, mask,
                  config: TrainConfig, rng=None,
                  buffers: MlpBuffers = MlpBuffers()):
    """Masked softmax cross-entropy and gradients for every trainable group;
    the MLP's n x hidden arrays are written into ``buffers``, and the
    hidden layer's array ends up holding its gradient da1.

    Weight decay is not included here; it enters as L2-on-gradient inside
    adam_step, so these gradients match finite differences of the loss."""
    logits, tape = forward(params, g, X, rng=rng,
                           dropout_linear=config.dropout_linear,
                           dropout_conv=config.dropout_conv,
                           buffers=buffers)
    labels = np.asarray(labels)
    mask = np.asarray(mask, dtype=bool)
    loss, dZ = softmax_cross_entropy(logits, labels, mask)

    # The operators are symmetric: dH is the same propagation run on dZ.
    dH, _ = params.prop.apply(params.c, g, dZ)
    if tape["mask_conv"] is not None:
        dH *= tape["mask_conv"]
    h1 = tape["h1"]
    grads = {"w2": h1.T @ dH, "b2": dH.sum(axis=0)}
    # h1 = max(a1, 0), so h1 > 0 exactly where the ReLU passes. The mask
    # and w2's gradient are h1's last readers: da1 overwrites its array.
    relu = np.greater(h1, 0.0, out=buffers.relu)
    da1 = np.matmul(dH, params.w2.T, out=h1)
    da1 *= relu
    grads["w1"] = tape["Xd"].T @ da1
    grads["b1"] = da1.sum(axis=0)

    if params.c.size:
        t = np.array([float(np.vdot(dZ, B)) for B in tape["blocks"]])
        grads["c"] = params.prop.W.T @ t
    return loss, grads


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        groups = params.trainable()
        return cls(m={k: np.zeros_like(v) for k, v in groups.items()},
                   v={k: np.zeros_like(v) for k, v in groups.items()})


# MLP weights get lr_linear and L2 decay; the propagation coefficients c
# get lr_prop and no decay (decay would fight their all-ones initialization).
_DECAYED_GROUPS = ("w1", "w2")


def adam_step(params: ModelParams, grads: dict, state: AdamState,
              config: TrainConfig) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update, in place; returns (params, state)."""
    state.t += 1
    groups = params.trainable()
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for name, value in groups.items():
        g = grads[name]
        if name in _DECAYED_GROUPS and config.weight_decay > 0.0:
            g = g + config.weight_decay * value
        lr = config.lr_prop if name == "c" else config.lr_linear
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        value -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return params, state


def predict(logits: np.ndarray) -> np.ndarray:
    """Argmax per row; ties resolve to the lowest class index."""
    return np.argmax(np.asarray(logits), axis=1)


def accuracy(logits: np.ndarray, labels, mask) -> float:
    """Fraction of masked rows predicted right; a row with a non-finite
    logit counts as wrong, whatever its argmax."""
    idx = np.flatnonzero(np.asarray(mask, dtype=bool))
    if idx.size == 0:
        return 0.0
    rows = np.asarray(logits)[idx]
    right = (predict(rows) == np.asarray(labels)[idx]) \
        & np.isfinite(rows).all(axis=1)
    return float(np.mean(right))
