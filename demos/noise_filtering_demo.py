#!/usr/bin/env python3
"""Walkthrough: how the loss-based noise filter separates mismatched pairs.

Generates a small synthetic dataset with 30% mismatched triplets, trains
past the warm-up phase, then shows the two-component Gaussian mixture fitted
to each view's normalized per-sample losses and the resulting keep/drop
labels, next to the planted ground truth.
"""

import dataclasses

import numpy as np

from noisycir import nfb
from noisycir.synth import DatasetSpec, generate_dataset
from noisycir.trainer import (TrainConfig, _collect_epoch_losses,
                              _fit_and_label, run_training, split_dataset)


def ascii_hist(values, bins=20, width=40):
    counts, edges = np.histogram(values, bins=bins, range=(0.0, 1.0))
    peak = max(counts.max(), 1)
    for c, lo, hi in zip(counts, edges, edges[1:]):
        bar = "#" * int(round(width * c / peak))
        print(f"  [{lo:4.2f},{hi:4.2f}) {bar}")


def main():
    spec = DatasetSpec(num_triplets=400, mismatch_rate=0.3, seed=0)
    samples = generate_dataset(spec)
    print(f"dataset: {spec.num_triplets} triplets, "
          f"{sum(s.is_noisy for s in samples)} mismatched")

    # warm up without filtering, then keep training so clean and noisy
    # losses drift well apart before we inspect the mixture fit
    config = TrainConfig(epochs=10, warmup_epochs=3, seed=0)
    result = run_training(samples, config)
    store = result.store

    train_idx, _ = split_dataset(samples, config)
    losses = _collect_epoch_losses(store, samples, train_idx, config)
    print("\nnormalized per-sample loss distribution after warm-up:")
    ascii_hist(nfb.normalize_losses(losses[0]))

    # the trainer's own fit step: one mixture per view, a pair kept only
    # when every view's posterior exceeds theta
    labels, gmms, sets = _fit_and_label(losses, config.theta)
    print("\nfitted mixtures:")
    for view, gmm in zip(("global", "compensated"), gmms):
        print(f"  {view} view: mu=({gmm.means[0]:.3f}, {gmm.means[1]:.3f}) "
              f"pi=({gmm.weights[0]:.2f}, {gmm.weights[1]:.2f})")
    truth = np.array([samples[i].is_noisy for i in train_idx])

    kept = labels == 1.0
    print(f"\nkept {int(kept.sum())}/{len(labels)} pairs; "
          f"{len(sets.s_p)} pairs flagged by only one view (treated as noisy)")
    tp = int(((labels == 0) & truth).sum())
    fp = int(((labels == 0) & ~truth).sum())
    fn = int(((labels == 1) & truth).sum())
    print(f"against planted truth: {tp} noisy pairs caught, "
          f"{fp} clean pairs wrongly dropped, {fn} noisy pairs missed")


if __name__ == "__main__":
    main()
