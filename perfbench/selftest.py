#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout (it builds the driver like run.py does).
For every workload in BENCHMARK.json it makes one short untraced and one
short traced run and asserts that the last stdout line is the result
object, that every operation passed its check, and that the run emitted
exactly the metrics BENCHMARK.json lists, with their units. It also runs
the unlisted fig7-serial workload and asserts that it prints
fig7-parallel's trace digest (serial == parallel), and that run.py fails
without printing a result in a directory that holds only BENCHMARK.json
and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def digest(stdout):
    for line in stdout.splitlines():
        if "trace digest:" in line:
            return line.split(":", 1)[1].split()
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    digests = {}
    for w in spec["workloads"]:
        name = w["name"]
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            p = run(ROOT, name, trace)
            tag = f"{name} --trace {trace}"
            if p.returncode != 0:
                problems.append(f"{tag}: exit {p.returncode}: {p.stderr[-500:]}")
                continue
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 \
                    or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} "
                                f"failed={result['failed']}")
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {sorted(k for k in want if k in got and got[k] != want[k])}")
            if trace == 0:
                digests[name] = digest(p.stdout)
            failed = any(x.startswith(tag) for x in problems)
            print(f"{'FAIL' if failed else 'ok  '} {tag}", flush=True)
    p = run(ROOT, "fig7-serial", 0)
    digests["fig7-serial"] = digest(p.stdout)
    same = p.returncode == 0 and digests["fig7-serial"] is not None \
        and digests["fig7-serial"] == digests.get("fig7-parallel")
    if not same:
        problems.append(f"serial != parallel digests: {digests}")
    print(f"{'ok  ' if same else 'FAIL'} fig7-serial digest == fig7-parallel "
          "digest", flush=True)

    # Without the repository's sources the benchmark must fail cleanly.
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    bare = os.path.join(build_dir, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        spec["workloads"][0]["name"], "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=bare, env=env,
                       capture_output=True, text=True, timeout=180)
    if p.returncode == 0 or '"metrics"' in p.stdout:
        problems.append("bare directory: run.py did not fail cleanly")
    shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL " + problem)
    print("selftest: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
