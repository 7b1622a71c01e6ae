"""Generated inputs of the benchmark workloads, derived from the workload seed.

Every seed the program receives (Ulam kernel seeds, environment-sampling
seeds, Monte-Carlo seeds and ``--seed-override`` values) is derived here
from the one ``--seed`` of the run, so the same seed gives the same inputs.
Scenario files are copies of the shipped ``scenarios/*.yaml`` with their
seeds replaced.

Run as a script, this is the set-up step whose time the benchmark reports as
``setup_s``: a fresh interpreter imports ``cocyclelab`` and writes the
inputs of one workload.
"""

from __future__ import annotations

import argparse
import json
import sys
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
SETS_FILE = "sets_halves.yaml"


def derive_seed(seed: int, tag: str) -> int:
    """A 31-bit seed for one named input, fixed by the workload seed."""
    import numpy as np

    ss = np.random.SeedSequence(entropy=seed % 2**64,
                                spawn_key=(zlib.crc32(tag.encode()),))
    return int(ss.generate_state(1, np.uint32)[0] >> 1)


def shipped_scenarios() -> list[Path]:
    return sorted(p for p in SCENARIOS.glob("*.yaml")
                  if not p.name.startswith("sets_"))


def _seeded_scenario(path: Path, seed: int) -> dict:
    import yaml

    with open(path) as fh:
        doc = yaml.safe_load(fh)
    name = doc.get("name") or path.stem
    for op_name, node in (doc.get("operators") or {}).items():
        if isinstance(node, dict) and "ulam" in node:
            node["ulam"]["seed"] = derive_seed(seed, f"{name}/{op_name}/ulam")
    driving = doc.get("driving") or {}
    if "seed" in driving:
        driving["seed"] = derive_seed(seed, f"{name}/driving")
    return doc


def write_inputs(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the workload's inputs under out_dir; return the parameters
    (seeds and file paths) the workload reads."""
    import yaml

    out_dir.mkdir(parents=True, exist_ok=True)
    params: dict = {"seed": seed}
    if workload in ("cli-suite", "mixing-sweep"):
        files = {}
        for path in shipped_scenarios():
            doc = _seeded_scenario(path, seed)
            target = out_dir / path.name
            with open(target, "w") as fh:
                yaml.safe_dump(doc, fh, sort_keys=False)
            files[doc.get("name") or path.stem] = str(target)
        params["scenarios"] = files
        params["sets"] = str(SCENARIOS / SETS_FILE)
        params["seed_override"] = derive_seed(seed, "seed-override")
    elif workload == "large-grid":
        params["ulam_seed"] = derive_seed(seed, "large-grid/ulam")
    elif workload == "bernoulli-mc":
        params["ulam_seeds"] = {name: derive_seed(seed, f"bernoulli-mc/{name}")
                                for name in ("doubling", "tent")}
        params["mc_seed"] = derive_seed(seed, "bernoulli-mc/mc")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    with open(out_dir / "inputs.json", "w") as fh:
        json.dump(params, fh, indent=1, sort_keys=True)
    return params


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import cocyclelab.cli  # noqa: F401  (imports every cocyclelab module)

    write_inputs(args.workload, args.seed, Path(args.dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
