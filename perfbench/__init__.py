"""Layered training benchmark for gscnet; see README.md."""
