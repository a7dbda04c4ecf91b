"""Discrete curves, semi-discrete surfaces and discrete K-surfaces built from
Jacobi-elliptic-function solutions of the sine-Gordon lattice equations."""

__version__ = "0.1.0"
