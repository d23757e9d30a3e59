"""Sparse spectral graph-filter engine with decoupled positive/negative bases."""

from .basis import bernstein_blocks, build_basis_cache, combine, \
    gsc_combine, gsc_weights
from .data import CsbmParams, Dataset, Split, csbm_generate, csbm_params_for, \
    load_dataset, random_split, save_dataset
from .graph import SparseGraph, adjacency_apply, build_csr, gcn_norm_apply, \
    laplacian_apply, normalized_apply, permute_graph, shifted_apply
from .model import ARCHITECTURES, AdamState, ModelParams, TrainConfig, \
    adam_step, forward, init_params, loss_and_grad, predict, propagation
from .pnca import ActivationClass, classify_graph_activation, \
    label_smoothness, positive_combination_check, rayleigh_quotient
from .train import RunRecord, train_single
from .verify import EigenSystem, dense_eigensystem, dense_matrix_power, \
    finite_difference_gradient, spectral_filter_oracle

__version__ = "0.1.0"
