"""Numerics for lattice-localized magnetic frames.

Layers, bottom up: label geometry (`lattice`), closed-form state algebra in
the angular basis (`magnetic`), frame-operator spectra and decay
certificates (`frame_analysis`), many-body interactions with their
propagation functional and two-body kernels (`interactions`), quadratic
Hamiltonian coefficients (`quadratic`), the exact finite Fock engine
(`fock`), and the batch front end (`cli`) with its text formats
(`serialize`) and configuration (`config`).  Import each name from its
module; the package root re-exports nothing.
"""
