#!/usr/bin/env python3
"""Walkthrough: verifying the autodiff tape against finite differences.

Builds a tiny end-to-end objective (token compensation -> query fusion ->
masked contrastive loss) and compares every analytic parameter gradient to
a central-difference estimate. Also demonstrates the fault-injection hook:
corrupting one op's backward pass by 1% is reliably caught.
"""

import numpy as np

from noisycir import autodiff as ad
from noisycir import fusion
from noisycir.synth import DatasetSpec, generate_dataset
from noisycir.trainer import forward_batch, init_params


def objective(samples, labels):
    def f(store):
        (q, t), (q_wcb, t_wcb) = forward_batch(ad.Tape(), store, samples,
                                               enable_wcb=True)
        return fusion.soft_nce_loss(q, t, q_wcb, t_wcb, labels,
                                    fusion.DEFAULT_TEMPERATURE)
    return f


def main():
    spec = DatasetSpec(num_concepts=4, dim=8, text_tokens=4, image_patches=6,
                       num_triplets=4, seed=0)
    samples = generate_dataset(spec)
    store = init_params(spec.dim, 0)
    labels = np.ones(len(samples))
    f = objective(samples, labels)

    report = ad.grad_check(f, store)
    print(f"checked {report.n_entries} parameter entries")
    print(f"max relative error: {report.max_rel_error:.3e}")
    print(f"passed: {report.passed}")

    print("\nnow corrupting the backward pass of 'mlp_forward' by 1% ...")
    ad.set_backward_fault("mlp_forward")
    try:
        bad = ad.grad_check(f, store)
    finally:
        ad.set_backward_fault(None)
    print(f"max relative error: {bad.max_rel_error:.3e} "
          f"(worst parameter: {bad.worst_param})")
    print(f"passed: {bad.passed}  <- the checker catches the planted bug")
    # exit status 0 only if the clean check passes and the planted bug is caught
    return 0 if report.passed and not bad.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
