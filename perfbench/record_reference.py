"""Record perfbench/reference.json: the fig1-compare and mc-lattice-d1 outputs
for the default seed's first operation, which every run re-checks during
set-up.

    python3 perfbench/record_reference.py

Re-record only when the workload's definition changes, never to make a
failing check pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import rgg_spectra  # noqa: E402

from perfbench.workloads import (  # noqa: E402
    DEFAULT_SEED,
    REFERENCE_FILE,
    Fig1Compare,
    McLatticeD1,
    make_input,
    reference_values,
)

if __name__ == "__main__":
    inp = make_input(DEFAULT_SEED, 0)
    fig1 = Fig1Compare().run(rgg_spectra, inp)
    mc = McLatticeD1()
    p_hat, _ = mc.run(rgg_spectra, inp)
    trial, _, _ = mc.checked_trial(rgg_spectra, inp)
    reference = {"fig1-compare": {"levy": fig1.levy}, "mc-lattice-d1": reference_values(p_hat, trial)}
    REFERENCE_FILE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(json.dumps(reference))
