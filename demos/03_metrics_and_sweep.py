"""Dataset-level error metrics and the error-versus-rotations curve.

Evaluates a noisy predictor over a small dataset, prints the metric
report (relative errors, shape-consistency ratios, uncertainty
correlations), and sweeps the rotation count to show the 1/sqrt(N)
decay of the aggregated error.
"""

import os
import tempfile

import numpy as np

from rotta.dataset import generate_synthetic, save_dataset
from rotta.experiment import ExperimentConfig, run_sweep
from rotta.metrics import evaluate_dataset
from rotta.models import NoisyOracle, OracleParams
from rotta.rotations import RotationStream
from rotta.tta import TTAConfig, run_tta

# Twelve samples, forty steps each; targets come from the reference model.
samples = generate_synthetic(12, 40, stream=RotationStream(9))
targets = np.stack([s.target_stress for s in samples])

model = NoisyOracle(OracleParams(noise_amp=4.0, noise_seed=1))
config = TTAConfig(n_rotations=48, seed=3)
result = run_tta(model, samples, config)  # every array keeps the sample axis first

report = evaluate_dataset(targets, result)
print(report.to_text())

# Headline numbers, unpacked:
#   mere_i0   error of the plain (unrotated) prediction
#   mere_av   average error over the individual rotated copies
#   mere_tta  error of the aggregated path -- the augmentation payoff
print("\naggregation reduced the error by %.0f%% versus the per-rotation average"
      % (100 * (report.mere_av - report.mere_tta) / report.mere_av))

shape = report.shape
print("shape-consistency ratio > 1 means the aggregate tracks the target's")
print("step-to-step changes better than the direct prediction:")
print("  mean C_ratio = %.2f, below one in %.0f%% of channels"
      % (shape.mean_c_ratio, 100 * shape.fraction_below_one))

# The sweep reuses one rotation stream: the list for N is a prefix of the
# list for any larger N, so the curve is internally consistent.
with tempfile.TemporaryDirectory() as work:
    path = os.path.join(work, "demo.ndjson")
    save_dataset(samples, path)
    cfg = ExperimentConfig(
        dataset=path,
        out_dir=work,
        model="noisy",
        noise_amp=4.0,
        noise_seed=1,
        seed=3,
    )
    rows = run_sweep(cfg, [0, 1, 4, 16, 64, 256], write=False)

print("\n   N   mere_tta     vs 1/sqrt(N+1)")
base = rows[-1][1] * np.sqrt(257)
for n, mere_tta, _ in rows:
    print("%4d   %.6f     %.6f" % (n, mere_tta, base / np.sqrt(n + 1)))
print("\nthe aggregated error falls like 1/sqrt(N): pure noise averages out,")
print("so past a few hundred rotations extra copies buy little")
