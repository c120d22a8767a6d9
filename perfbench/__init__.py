"""End-to-end and per-module benchmark for the neuralwalker package.

Run ``python3 perfbench/run.py --help`` from the repository root; README.md in
this directory describes the workloads, metrics and the traced run.
"""
