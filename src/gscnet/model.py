"""Models with hand-derived gradients: a shared 2-layer MLP composed with an
architecture-specific propagation stage, decoupled: H = MLP(X), then
Z = prop(H).

    GSCNet   prop(V) = (sum_i alpha_i (2I-L)^i + sum_j beta_j L^j) V
    GCN      prop(V) = M^k V                 M = D_hat^{-1/2}(A+I)D_hat^{-1/2}
    JKNet    prop(V) = sum_{k=1..K} alpha_k M^k V
    BernNet  prop(V) = sum_{k=0..K} alpha_k (2I-L)^k L^{K-k} V

One propagation path serves all four: `_blocks` names each architecture's
basis blocks B_m(V), and prop(V) = sum_m (W c)_m B_m(V) with c = (alpha,
beta), or c = [1] for GCN's one fixed block. W is the identity matrix
except for GSCNet, whose blocks are the Krylov sequence Â^m V,
m <= max(k1, k2), and whose W holds the binomial coefficients of (I+Â)^i
and (I-Â)^j. GCN's block is the last of the M powers JKNet sums. Every
operator is symmetric, so the backward pass is the same path run on dZ,
and the gradient of c is W^T t with t_m = <dZ, B_m(V)>. Dropout is
applied at two sites: on the first stage's input (linear rate) and
between the stages (conv rate), inverted-scaled at train time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (bernstein_blocks, build_basis_cache, combine, gsc_weights,
                    operator_powers)
from .errors import InputError
from .graph import SparseGraph, gcn_norm_apply

ARCHITECTURES = ("GSCNet", "GCN", "JKNet", "BernNet")
HIDDEN_UNITS = 64


def _is_int(value) -> bool:  # a bool is an int to Python, but not here
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
        if self.lr_linear <= 0 or self.lr_prop <= 0:
            raise InputError("learning rates must be > 0")
        for p in (self.dropout_conv, self.dropout_linear):
            if not 0.0 <= p < 1.0:
                raise InputError(f"dropout must be in [0, 1), got {p}")
        if not (_is_int(self.epochs) and _is_int(self.patience)) \
                or self.epochs < 0 or self.patience < 0:
            raise InputError("epochs and patience must be non-negative "
                             f"integers, got {self.epochs!r}, "
                             f"{self.patience!r}")


@dataclass
class ModelParams:
    """Trainable state: MLP weights plus the propagation coefficients
    ``alpha`` and ``beta``, with the degrees ``k1``/``k2`` as `init_params`
    was given them. The coefficients' meaning is architecture-dependent (see
    module docstring): GCN has none, and for JKNet alpha[k-1] multiplies M^k
    (there is no k = 0 term).
    """

    arch: str
    k1: int
    k2: int
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    @property
    def d_in(self) -> int:
        return self.w1.shape[0]

    def trainable(self) -> dict:
        groups = {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}
        if self.alpha.size:
            groups["alpha"] = self.alpha
        if self.beta.size:
            groups["beta"] = self.beta
        return groups


def init_params(arch: str, d_in: int, d_out: int, k1: int, k2: int,
                seed, hidden: int = HIDDEN_UNITS) -> ModelParams:
    """Seeded initialization: filter coefficients all 1, MLP weights drawn
    from the symmetric uniform fan-in scheme U(-1/sqrt(fan_in), 1/sqrt(fan_in)),
    biases zero.

    Degree interpretation per architecture: GSCNet uses (k1, k2), where -1
    switches a family off; GCN propagates a fixed k1 steps; JKNet and
    BernNet use k1 as their single degree K.
    """
    if arch not in ARCHITECTURES:
        raise InputError(f"unknown architecture {arch!r}; "
                         f"expected one of {ARCHITECTURES}")
    if not (_is_int(k1) and _is_int(k2)):
        raise InputError(f"degrees must be integers, got ({k1!r}, {k2!r})")
    rng = np.random.default_rng(seed)
    s1 = 1.0 / np.sqrt(d_in)
    s2 = 1.0 / np.sqrt(hidden)
    w1 = rng.uniform(-s1, s1, size=(d_in, hidden))
    w2 = rng.uniform(-s2, s2, size=(hidden, d_out))

    if arch == "GSCNet":
        if k1 < -1 or k2 < -1 or (k1 < 0 and k2 < 0):
            raise InputError(f"GSCNet needs at least one family, got ({k1}, {k2})")
        alpha, beta = np.ones(k1 + 1), np.ones(k2 + 1)
    elif arch == "GCN":
        if k1 < 0:
            raise InputError(f"GCN depth must be >= 0, got {k1}")
        alpha, beta = np.zeros(0), np.zeros(0)
    elif arch == "JKNet":
        if k1 < 1:
            raise InputError(f"JKNet degree must be >= 1, got {k1}")
        alpha, beta = np.ones(k1), np.zeros(0)
    else:  # BernNet
        if k1 < 0:
            raise InputError(f"BernNet degree must be >= 0, got {k1}")
        alpha, beta = np.ones(k1 + 1), np.zeros(0)

    return ModelParams(arch=arch, k1=k1, k2=k2, w1=w1, b1=np.zeros(hidden),
                       w2=w2, b2=np.zeros(d_out), alpha=alpha, beta=beta)


def _blocks(params: ModelParams, g: SparseGraph, V: np.ndarray):
    """The architecture's basis blocks B_m(V), one per row of
    `_weight_map(params)`, read off the degrees: GSCNet's Krylov sequence
    to max(k1, k2), BernNet's k1 + 1 Bernstein terms, and for GCN and JKNet
    one recurrence of k1 M powers, of which GCN keeps the last block and
    JKNet every block after V."""
    k1, k2 = params.k1, params.k2
    if params.arch == "GSCNet":
        return build_basis_cache(g, V, max(k1, k2, 0))
    if params.arch == "BernNet":
        return bernstein_blocks(g, V, k1)
    powers = operator_powers(gcn_norm_apply, g, V, k1)
    return powers[-1:] if params.arch == "GCN" else powers[1:]


def _coefficients(params: ModelParams) -> np.ndarray:
    """c = (alpha, beta); GCN trains no coefficient and weights its one
    block by 1."""
    c = np.concatenate([params.alpha, params.beta])
    return c if c.size else np.ones(1)


def _weight_map(params: ModelParams) -> np.ndarray:
    """The matrix W that maps the coefficients c to the block weights W c:
    GSCNet's binomial map, else the identity, whose products are exact."""
    if params.arch == "GSCNet":
        return gsc_weights(params.k1, params.k2)
    return np.eye(_coefficients(params).size)


def _propagate(params: ModelParams, g: SparseGraph, V: np.ndarray):
    """(sum_m (W c)_m B_m(V), the blocks B_m(V))."""
    blocks = _blocks(params, g, V)
    return combine(blocks, _weight_map(params) @ _coefficients(params)), blocks


def forward(params: ModelParams, g: SparseGraph, X, rng=None,
            dropout_linear: float = 0.0, dropout_conv: float = 0.0):
    """Run the model; returns (logits, tape) with the tape holding the
    intermediates the backward pass needs. Without dropout rates this is
    the evaluation pass; a positive rate draws its mask from ``rng``.

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
        # rescaling. It is built in the buffer of its uniforms.
        if rate <= 0.0:
            return None
        if rng is None:
            raise InputError("dropout needs an rng")
        u = rng.random(shape)
        return np.multiply(u >= rate, 1.0 / (1.0 - rate), out=u)

    # The input mask's buffer becomes Xd: one n x d array beyond X.
    mask_lin = drop_mask(X.shape, dropout_linear)
    Xd = X if mask_lin is None else np.multiply(X, mask_lin, out=mask_lin)
    # The MLP builds each stage in its product's buffer.
    h1 = Xd @ params.w1
    h1 += params.b1
    np.maximum(h1, 0.0, out=h1)
    H = h1 @ params.w2
    H += params.b2
    mask_conv = drop_mask(H.shape, dropout_conv)
    Hd = H if mask_conv is None else np.multiply(H, mask_conv, out=H)
    Z, blocks = _propagate(params, g, Hd)
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
                  config: TrainConfig, rng=None):
    """Masked softmax cross-entropy and gradients for every trainable group.

    Weight decay is not included here; it enters as L2-on-gradient inside
    adam_step, so these gradients match finite differences of the loss."""
    logits, tape = forward(params, g, X, rng=rng,
                           dropout_linear=config.dropout_linear,
                           dropout_conv=config.dropout_conv)
    labels = np.asarray(labels)
    mask = np.asarray(mask, dtype=bool)
    loss, dZ = softmax_cross_entropy(logits, labels, mask)

    # The operators are symmetric: dH is the same propagation run on dZ.
    dH, _ = _propagate(params, g, dZ)
    if tape["mask_conv"] is not None:
        dH *= tape["mask_conv"]
    grads = {"w2": tape["h1"].T @ dH, "b2": dH.sum(axis=0)}
    # h1 = max(a1, 0), so h1 > 0 exactly where the ReLU passes.
    da1 = dH @ params.w2.T
    da1 *= tape["h1"] > 0.0
    grads["w1"] = tape["Xd"].T @ da1
    grads["b1"] = da1.sum(axis=0)

    na, nb = params.alpha.size, params.beta.size
    if na + nb:
        t = np.array([float(np.vdot(dZ, B)) for B in tape["blocks"]])
        dc = _weight_map(params).T @ t
        if na:
            grads["alpha"] = dc[:na]
        if nb:
            grads["beta"] = dc[na:]
    return loss, grads


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        groups = params.trainable()
        return cls(m={k: np.zeros_like(v) for k, v in groups.items()},
                   v={k: np.zeros_like(v) for k, v in groups.items()})


# MLP weights get lr_linear and L2 decay; propagation coefficients get
# lr_prop and no decay (decay would fight their all-ones initialization).
_LINEAR_GROUPS = ("w1", "b1", "w2", "b2")
_DECAYED_GROUPS = ("w1", "w2")


def adam_step(params: ModelParams, grads: dict, state: AdamState,
              config: TrainConfig) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update, in place; returns (params, state)."""
    state.t += 1
    groups = params.trainable()
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for name, value in groups.items():
        g = grads[name]
        if name in _DECAYED_GROUPS and config.weight_decay > 0.0:
            g = g + config.weight_decay * value
        lr = config.lr_linear if name in _LINEAR_GROUPS else config.lr_prop
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        value -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
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
