"""Sparse spectral graph-filter engine with decoupled positive/negative bases."""
