"""Bioformers reproduction — ultra-low-power sEMG gesture recognition.

A from-scratch Python reproduction of *"Bioformers: Embedding Transformers
for Ultra-Low Power sEMG-based Gesture Recognition"* (Burrello et al., DATE
2022), including every substrate the paper depends on:

* :mod:`repro.nn` — NumPy tensor/autograd deep-learning framework;
* :mod:`repro.data` — synthetic NinaPro DB6 surrogate (sEMG signal model,
  subjects, sessions, windows) plus preprocessing and augmentation;
* :mod:`repro.models` — the Bioformer architectures and the TEMPONet
  baseline;
* :mod:`repro.baselines` — classical-ML baselines (hand-crafted sEMG
  features + LDA/SVM/RF/kNN) from the paper's related-work comparison;
* :mod:`repro.training` — the standard and inter-subject pre-training
  protocols;
* :mod:`repro.quant` — the one int8 quantiser, QAT and I-BERT integer kernels;
* :mod:`repro.deploy` — GAP8 deployment toolchain (graph tracing, int8
  lowering, integer-only execution, L1 tiling, memory planning, GAP8
  latency/energy estimate);
* :mod:`repro.hw` — GAP8 complexity/latency/energy/battery modelling;
* :mod:`repro.search` — architecture search over the Bioformer design space;
* :mod:`repro.serve` — streaming inference service (dynamic micro-batching,
  float/int8 backends, majority-vote smoothing);
* :mod:`repro.experiments` — one driver per paper figure/table;
* :mod:`repro.eval` — streaming accuracy & robustness evaluation harness
  (labelled synthetic recordings, corruption scenarios, stream grading,
  accuracy-vs-deadline curves).

See README.md for a quickstart and DESIGN.md for the substitution notes.
"""

from . import (
    analysis,
    baselines,
    data,
    deploy,
    eval,
    experiments,
    hw,
    models,
    nn,
    quant,
    search,
    serve,
    training,
    utils,
)

__version__ = "1.0.0"

__all__ = [
    "nn",
    "data",
    "models",
    "baselines",
    "training",
    "quant",
    "hw",
    "deploy",
    "search",
    "serve",
    "analysis",
    "experiments",
    "eval",
    "utils",
    "__version__",
]
