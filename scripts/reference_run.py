#!/usr/bin/env python3
"""Reference oracle run backing the frozen acceptance thresholds.

Reruns the seed-0 experiments whose outcomes are asserted by
tests/test_acceptance.py:

  * noisy dataset (30% mismatched pairs), full model, 20 epochs:
    final noise-detection F1 (frozen threshold: >= 0.90)
  * same dataset, all four ablation variants: final Recall@10 ordering
  * clean dataset control: full vs baseline Recall@10 gap

Usage: python3 scripts/reference_run.py [--seed 0]
"""

import argparse
import sys
import time

from noisycir.synth import DatasetSpec, generate_dataset
from noisycir.trainer import ABLATION_VARIANTS, TrainConfig, run_training, variant_config


def run_variants(samples, config):
    results = {}
    for name, _, _ in ABLATION_VARIANTS:
        t0 = time.time()
        result = run_training(samples, variant_config(config, name))
        final = result.records[-1]
        results[name] = result
        print(f"  {name:>9}: R@1={final.recall_at_1:.3f} "
              f"R@10={final.recall_at_10:.3f} R@50={final.recall_at_50:.3f} "
              f"({time.time() - t0:.1f}s)")
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    config = TrainConfig(seed=args.seed)
    noisy_spec = DatasetSpec(mismatch_rate=0.3, seed=args.seed)
    clean_spec = DatasetSpec(seed=args.seed)

    print(f"seed {args.seed}: noisy dataset ({noisy_spec.mismatch_rate:.0%} "
          "mismatched), four variants")
    noisy = run_variants(generate_dataset(noisy_spec), config)

    full = noisy["full"].records[-1]
    print(f"full-model filter F1 at final epoch: {full.filter_score.f1:.3f}")

    r10 = {k: v.records[-1].recall_at_10 for k, v in noisy.items()}
    ok_order = (r10["full"] >= r10["nfb_only"] >= r10["baseline"]
                and r10["full"] >= r10["wcb_only"] >= r10["baseline"])
    print(f"noisy R@10 ordering holds: {ok_order}")

    print("clean control (no planted noise), baseline vs full")
    clean = {}
    for name in ("baseline", "full"):
        clean[name] = run_training(generate_dataset(clean_spec), variant_config(config, name))
        print(f"  {name:>9}: R@10={clean[name].records[-1].recall_at_10:.3f}")
    gap = (clean["baseline"].records[-1].recall_at_10
           - clean["full"].records[-1].recall_at_10)
    print(f"clean-control gap (baseline - full): {gap:+.3f} "
          "(filter must not cost more than 0.02)")

    passed = ok_order and full.filter_score.f1 >= 0.90 and gap <= 0.02
    print("REFERENCE RUN", "PASS" if passed else "FAIL")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
