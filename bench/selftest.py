"""Quick self-test of the benchmark at small sizes (about 30 s).

    python3 bench/selftest.py

It writes expected traces for the small sizes, runs every workload
untraced and traced against them, runs each once more at another seed,
then alters one search trace per workload and checks that the run fails
with a message naming the workload, the instance and the init.  Last, it
runs the command in a directory without `src/` and checks that it fails.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import run
from probe import CheckFailure
from workloads import SMALL, WORKLOADS

SECONDS = 0.2


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest: FAILED: {message}")


def check_metric_names(result: dict, trace: bool) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == wanted, f"metrics {sorted(got)} do not match BENCHMARK.json {sorted(wanted)}")
    expect(result["correct"] and result["attempted"] >= 1 and result["failed"] == 0,
           f"bad result counts {result}")


def main() -> int:
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    traces_path = run.OUT_DIR / "selftest_traces.json"
    run.regenerate(SMALL, traces_path)
    traces = json.loads(traces_path.read_text())

    for name in WORKLOADS:
        for trace in (False, True):
            result = run.run(name, run.DEFAULT_SEED, SECONDS, trace, SMALL, traces_path)
            check_metric_names(result, trace)
        run.run(name, run.DEFAULT_SEED + 1, SECONDS, False, SMALL, traces_path)
        print(f"selftest: {name}: checks pass, traced and untraced")

    for name in WORKLOADS:
        altered = copy.deepcopy(traces)
        instance = sorted(altered[name])[0]
        digest = sorted(altered[name][instance])[0]
        altered[name][instance][digest][1] += 1  # one conflict more
        altered_path = run.OUT_DIR / "selftest_altered_traces.json"
        altered_path.write_text(json.dumps(altered))
        try:
            run.run(name, run.DEFAULT_SEED, SECONDS, False, SMALL, altered_path)
        except CheckFailure as exc:
            message = str(exc)
            expect(name in message and instance in message and " init " in message,
                   f"the failure does not name workload, instance and init: {message}")
            print(f"selftest: {name}: an altered trace fails the run: {message}")
        else:
            expect(False, f"{name}: an altered expected trace did not fail the run")

    bare = run.OUT_DIR / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "histogram", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"a directory without src/ gave exit {proc.returncode}: {proc.stdout!r}")
    shutil.rmtree(bare)
    print("selftest: a checkout without src/ fails the run")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
